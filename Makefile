# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench figures examples lint typecheck docs-check clean

install:
	$(PYTHON) -m pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

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
