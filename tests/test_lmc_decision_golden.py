"""Golden digest of LMC's traced decision stream.

A traced ``run_online`` under LMC emits one ``lmc.interactive``
(Equation 27) or ``lmc.noninteractive`` (Equation 32 increase) event per
arrival. Each scenario reduces those events — kind, field order and
every value, floats by ``repr``, task ids as trace positions — to one
sha256. The digests were
recorded before Equation 27's core choice was fused into a single pass,
so a tracer emission that drifts from the decision (a missing field, a
reordered ``costs`` list, a cost rounded differently) fails here even
where the simulated outcome is unchanged.
"""

import hashlib

import pytest

from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.obs import RecordingTracer
from repro.schedulers import LMCOnlineScheduler
from repro.simulator import run_online
from repro.workloads import JudgeTraceConfig, generate_judge_trace

RE_ONLINE, RT_ONLINE = 0.4, 0.1
LITTLE = rate_table_from_power_law([0.6, 0.9, 1.2, 1.5], dynamic_coefficient=0.25, name="little")

TABLES = {
    "homogeneous": [TABLE_II] * 4,
    "big_little": [TABLE_II, TABLE_II, LITTLE, LITTLE],
}

GOLDEN = {
    "homogeneous": "dbbba3aa4158b27de7bb4a05b4d10a8c2cf439b48240a5f00214d0dec1b75101",
    "big_little": "965c71baa3edc712bb47937a698cda3edebd102745a88db2b3afa99fab9e80c6",
}


def _decision_digest(tables):
    trace = generate_judge_trace(JudgeTraceConfig(
        duration_s=120.0, n_interactive=1500, n_noninteractive=40, seed=5))
    tracer = RecordingTracer()
    sched = LMCOnlineScheduler(tables, len(tables), RE_ONLINE, RT_ONLINE, tracer=tracer)
    run_online(trace, sched, tables)
    # task ids come from a process-wide counter: pin them as trace positions
    position = {task.task_id: i for i, task in enumerate(trace)}
    h = hashlib.sha256()
    n = 0
    for event in tracer:
        if event.kind in ("lmc.interactive", "lmc.noninteractive"):
            data = dict(event.data)
            data["task_id"] = position[data["task_id"]]
            h.update(repr((event.kind, data)).encode())
            h.update(b"\n")
            n += 1
    assert n == len(trace)
    return h.hexdigest()


@pytest.mark.parametrize("platform", sorted(TABLES))
def test_lmc_decision_stream_is_pinned(platform):
    assert _decision_digest(TABLES[platform]) == GOLDEN[platform]
