"""Table I — regenerate the SPEC2006int workload table.

Prints the exact rows of the paper's Table I (benchmark, train input,
ref input — seconds) and benchmarks the workload-table construction
plus the seconds→cycles conversion the schedulers consume.
"""

import pytest

from harness import emit
from repro.analysis.reporting import render_table_i
from repro.workloads.spec import SPEC_TABLE_I, spec_cycles, spec_tasks


def test_table1_rows(benchmark):
    cycles = benchmark(spec_cycles)
    emit(render_table_i(SPEC_TABLE_I))
    # the paper's 24 workloads with the paper's conversion (× 1.6 GHz)
    assert len(cycles) == 24
    assert cycles["perlbench/train"] == pytest.approx(43.516 * 1.6)
    assert cycles["h264ref/ref"] == pytest.approx(1549.734 * 1.6)


def test_table1_taskset_construction(benchmark):
    tasks = benchmark(spec_tasks)
    assert len(tasks) == 24
    assert tasks.total_cycles() == pytest.approx(
        sum(spec_cycles().values())
    )
