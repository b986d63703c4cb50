"""Energy-efficient task scheduling for multi-core platforms with per-core DVFS.

A from-scratch reproduction of Lin, Syu, Chang, Wu, Liu, Cheng and Hsu,
"An Energy-efficient Task Scheduler for Multi-core Platforms with
per-core DVFS Based on Task Characteristics" (ICPP 2014): the batch
**Workload Based Greedy** scheduler, the online **Least Marginal Cost**
heuristic, the dominating-position-range machinery, the dynamic
insert/delete cost index, every baseline the paper compares against,
and an event-driven multi-core DVFS platform simulator to run them on.

Quick start::

    from repro import CostModel, TABLE_II, spec_tasks, wbg_plan, run_batch

    tasks = spec_tasks()                     # the paper's Table I batch
    model = CostModel(TABLE_II, re=0.1, rt=0.4)
    plan = wbg_plan(tasks, TABLE_II, n_cores=4, re=0.1, rt=0.4)
    result = run_batch(plan, TABLE_II)
    print(result.cost(0.1, 0.4).total_cost)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.models import (
    CostModel,
    CoreSchedule,
    EXYNOS_4412,
    I7_950,
    Placement,
    PowerLawEnergy,
    RateTable,
    ScheduleCost,
    TABLE_II,
    Task,
    TaskKind,
    TaskSet,
    rate_table_from_power_law,
)
from repro.core import (
    DominatingRanges,
    DynamicCostIndex,
    LeastMarginalCostPolicy,
    WorkloadBasedGreedy,
    schedule_homogeneous_round_robin,
    schedule_multi_core,
    schedule_single_core,
)
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
    olb_plan,
    power_saving_plan,
    round_robin_plan,
    wbg_plan,
    yds_schedule,
)
from repro.simulator import (
    BatchResult,
    ContentionModel,
    NO_CONTENTION,
    OnlineResult,
    run_batch,
    run_online,
)
from repro.workloads import (
    JudgeTraceConfig,
    SPEC_TABLE_I,
    generate_judge_trace,
    spec_tasks,
)
from repro.analysis import normalize_costs, verify_model

__version__ = "1.0.0"

__all__ = [
    # models
    "CostModel",
    "CoreSchedule",
    "EXYNOS_4412",
    "I7_950",
    "Placement",
    "PowerLawEnergy",
    "RateTable",
    "ScheduleCost",
    "TABLE_II",
    "Task",
    "TaskKind",
    "TaskSet",
    "rate_table_from_power_law",
    # core algorithms
    "DominatingRanges",
    "DynamicCostIndex",
    "LeastMarginalCostPolicy",
    "WorkloadBasedGreedy",
    "schedule_homogeneous_round_robin",
    "schedule_multi_core",
    "schedule_single_core",
    # schedulers
    "LMCOnlineScheduler",
    "OLBOnlineScheduler",
    "OnDemandRoundRobinScheduler",
    "olb_plan",
    "power_saving_plan",
    "round_robin_plan",
    "wbg_plan",
    "yds_schedule",
    # simulator
    "BatchResult",
    "ContentionModel",
    "NO_CONTENTION",
    "OnlineResult",
    "run_batch",
    "run_online",
    # workloads
    "JudgeTraceConfig",
    "SPEC_TABLE_I",
    "generate_judge_trace",
    "spec_tasks",
    # analysis
    "normalize_costs",
    "verify_model",
    "__version__",
]
