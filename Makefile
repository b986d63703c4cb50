# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-par figures examples lint typecheck docs-check clean

install:
	$(PYTHON) -m pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Parallel smoke profile (docs/PARALLELISM.md): every --jobs consumer,
# sharded across 2 workers. Output is bit-identical to serial by
# contract; the very loose bench threshold keeps contended wall times
# (2 workers can share one core) from flaking the deterministic gate.
bench-par:
	$(PYTHON) -m repro bench --quick --jobs 2 --threshold 4.0
	$(PYTHON) -m repro fuzz --seed 0 --cases 50 --jobs 2
	$(PYTHON) -m repro sweep cost_weights --quick --jobs 2 --compare-serial

lint:
	$(PYTHON) -m repro lint src

typecheck:
	$(PYTHON) -m mypy --config-file pyproject.toml

# Doc-drift gate: README indexes every docs/*.md, docs/API.md tracks the
# CLI parser, and every relative Markdown link resolves.
docs-check:
	$(PYTHON) -m pytest tests/test_repo_consistency.py -q -k "DocsDrift or Readme or DesignDoc"

figures:
	$(PYTHON) -m repro table1
	$(PYTHON) -m repro table2
	$(PYTHON) -m repro ranges
	$(PYTHON) -m repro fig1
	$(PYTHON) -m repro fig2
	$(PYTHON) -m repro fig3

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/datacenter_batch.py
	$(PYTHON) examples/heterogeneous_mobile.py
	$(PYTHON) examples/deadline_energy_budget.py
	$(PYTHON) examples/dynamic_queue.py
	$(PYTHON) examples/energy_frontier.py
	$(PYTHON) examples/online_judge.py --small
	$(PYTHON) examples/traced_run.py
	$(PYTHON) examples/profiled_estimation.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
