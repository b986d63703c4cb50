"""One rule for per-core rate tables at every entry point that takes them.

``run_online``, the four online schedulers that take tables and
``wbg_plan`` all accept either one :class:`RateTable`, shared by every
core, or exactly one table per core. CI runs this file under
``python -O`` as well as normally.
"""

import pytest

import repro.schedulers.wbg as wbg_module
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, TABLE_II_VERIFICATION
from repro.schedulers import LMCOnlineScheduler, OLBOnlineScheduler, wbg_plan
from repro.schedulers.sjf import SJFMaxRateScheduler
from repro.schedulers.wbg_rerun import WBGRerunScheduler
from repro.simulator import online_runner, run_online
from repro.simulator.platform import SimCore

N_CORES = 2


def _run_online(tables, monkeypatch):
    built = []

    class RecordingCore(SimCore):
        def __init__(self, index, table, *args, **kwargs):
            super().__init__(index, table, *args, **kwargs)
            built.append(table)

    monkeypatch.setattr(online_runner, "SimCore", RecordingCore)
    run_online([], OLBOnlineScheduler(TABLE_II, N_CORES), tables)
    return built


def _wbg_plan(tables, monkeypatch):
    built = []

    class RecordingModel(CostModel):
        def __init__(self, table, re, rt):
            super().__init__(table, re, rt)
            built.append(table)

    monkeypatch.setattr(wbg_module, "CostModel", RecordingModel)
    wbg_plan([], tables, N_CORES, 0.1, 0.4)
    return built


#: entry point -> (tables, monkeypatch) -> the table each core ended up with
ENTRY_POINTS = {
    "run_online": _run_online,
    "wbg_plan": _wbg_plan,
    "LMCOnlineScheduler": lambda tables, _: [
        m.table for m in LMCOnlineScheduler(tables, N_CORES, 0.4, 0.1).policy.models],
    "OLBOnlineScheduler": lambda tables, _: OLBOnlineScheduler(tables, N_CORES)._tables,
    "SJFMaxRateScheduler": lambda tables, _: SJFMaxRateScheduler(tables, N_CORES)._tables,
    "WBGRerunScheduler": lambda tables, _: [
        m.table for m in WBGRerunScheduler(tables, N_CORES, 0.4, 0.1).models],
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_wrong_length_table_list_rejected(entry, monkeypatch):
    with pytest.raises(ValueError, match="need one rate table per core: got 3 for 2 cores"):
        ENTRY_POINTS[entry]([TABLE_II] * 3, monkeypatch)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_single_table_serves_every_core(entry, monkeypatch):
    tables = ENTRY_POINTS[entry](TABLE_II_VERIFICATION, monkeypatch)
    assert len(tables) == N_CORES
    assert all(t is TABLE_II_VERIFICATION for t in tables)
