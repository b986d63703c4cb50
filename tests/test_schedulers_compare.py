"""The Figure 2 / Figure 3 line-ups equal the direct plan-and-run path."""

import pytest

from repro.governors import OnDemandGovernor
from repro.models.cost import RE_BATCH, RE_ONLINE, RT_BATCH, RT_ONLINE
from repro.models.rates import TABLE_II
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
    batch_comparison,
    olb_plan,
    online_comparison,
    power_saving_plan,
    wbg_plan,
)
from repro.simulator import run_batch, run_online
from repro.workloads import JudgeTraceConfig, generate_judge_trace, spec_tasks

PRICINGS = pytest.mark.parametrize(
    "re, rt", [(RE_BATCH, RT_BATCH), (RE_ONLINE, RT_ONLINE)], ids=["batch", "online"]
)
CORES = pytest.mark.parametrize("n_cores", [2, 4])


def assert_same_runs(got, direct):
    assert list(got) == list(direct)
    for name, result in direct.items():
        assert got[name].records == result.records, name
        assert got[name] == result, name


@CORES
@PRICINGS
def test_batch_comparison_is_the_figure_2_line_up(n_cores, re, rt):
    tasks = spec_tasks()
    direct = {
        "WBG": run_batch(wbg_plan(tasks, TABLE_II, n_cores, re, rt), TABLE_II),
        "OLB": run_batch(olb_plan(tasks, TABLE_II, n_cores), TABLE_II),
        "PS": run_batch(power_saving_plan(tasks, TABLE_II, n_cores), TABLE_II),
    }
    got = batch_comparison(tasks, n_cores, re, rt)
    assert list(got) == ["WBG", "OLB", "PS"]
    assert_same_runs(got, direct)


@pytest.fixture(scope="module")
def small_trace():
    return generate_judge_trace(
        JudgeTraceConfig(n_interactive=300, n_noninteractive=24, duration_s=60.0, seed=5)
    )


@CORES
@PRICINGS
def test_online_comparison_is_the_figure_3_line_up(small_trace, n_cores, re, rt):
    direct = {
        "LMC": run_online(
            small_trace, LMCOnlineScheduler(TABLE_II, n_cores, re, rt), TABLE_II
        ),
        "OLB": run_online(small_trace, OLBOnlineScheduler(TABLE_II, n_cores), TABLE_II),
        "OD": run_online(
            small_trace, OnDemandRoundRobinScheduler(n_cores), TABLE_II,
            governors=[OnDemandGovernor(TABLE_II) for _ in range(n_cores)],
        ),
    }
    got = online_comparison(small_trace, n_cores, re, rt)
    assert list(got) == ["LMC", "OLB", "OD"]
    assert_same_runs(got, direct)

