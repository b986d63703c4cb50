"""Least Marginal Cost as an online-runner policy.

Bridges :class:`repro.core.online_lmc.LeastMarginalCostPolicy` (which
owns the per-core optimal queues and the marginal-cost mathematics) to
the :class:`~repro.simulator.online_runner.OnlinePolicy` protocol the
event-driven runner drives.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CostModel
from repro.models.rates import RateTable
from repro.models.task import Task, TaskKind
from repro.simulator.online_runner import CoreView
from repro.structures.rangetree import RangeTreeNode


class LMCOnlineScheduler:
    """The paper's online scheduler, ready to hand to ``run_online``.

    Pass an ``estimator`` (see :mod:`repro.workloads.estimation`) to
    schedule from *predicted* cycle counts — the paper's deployment
    assumption — while execution still consumes the true counts; task
    completions are fed back via :meth:`on_complete` so learning
    estimators (mean/EWMA) improve as the trace progresses. The default
    is the oracle (estimates ≡ truth), matching Section IV assumption 1.
    """

    def __init__(
        self,
        tables: Sequence[RateTable] | RateTable,
        n_cores: int,
        re: float,
        rt: float,
        seed: int = 0x5EED,
        estimator=None,
        tracer=None,
    ) -> None:
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        self.n_cores = n_cores
        table_list = [tables] * n_cores if isinstance(tables, RateTable) else list(tables)
        if len(table_list) != n_cores:
            raise ValueError("need one rate table per core")
        self.policy = LeastMarginalCostPolicy(
            [CostModel(t, re, rt) for t in table_list], seed=seed, tracer=tracer
        )
        self.estimator = estimator
        self._handles: dict[int, tuple[int, RangeTreeNode]] = {}  # task_id -> (core, node)

    def _cycles(self, task: Task) -> float:
        if self.estimator is None:
            return task.cycles
        est = self.estimator.estimate(task)
        if not (est > 0):
            raise ValueError(f"estimator returned non-positive cycles {est!r}")
        return est

    # -- OnlinePolicy protocol --------------------------------------------------------
    def select_core(self, task: Task, views: Sequence[CoreView]) -> int:
        """The least-marginal-cost core: Eq. 27 for interactive tasks,
        the dynamic-index marginal insert cost for non-interactive."""
        if task.kind is TaskKind.INTERACTIVE:
            delayed = [
                len(queue) + (1 if view.running_kind is TaskKind.NONINTERACTIVE else 0)
                for queue, view in zip(self.policy.queues, views)
            ]
            return self.policy.choose_core_interactive(self._cycles(task), delayed,
                                                       task=task)
        # seconds of head-of-line work not represented in the queue index:
        # the running task plus any preempted task, at the core's current rate
        head_delays = [
            (v.running_remaining_cycles + v.preempted_remaining_cycles)
            * self.policy.models[j].table.time(v.current_rate)
            for j, v in enumerate(views)
        ]
        return self.policy.choose_core_noninteractive(self._cycles(task), head_delays,
                                                      task=task)

    def enqueue_noninteractive(self, core: int, task: Task) -> None:
        """Insert into the core's dynamic cost index (cycle-sorted)."""
        node = self.policy.enqueue(core, self._cycles(task), payload=task)
        self._handles[task.task_id] = (core, node)

    def dequeue_noninteractive(self, core: int) -> Optional[Task]:
        """Pop the index head — the shortest waiting job on that core."""
        popped = self.policy.pop_head(core)
        if popped is None:
            return None
        task, _cycles, _rate = popped
        self._handles.pop(task.task_id, None)
        return task

    def rate_for_noninteractive(self, core: int, task: Task) -> Optional[float]:
        """The dominating rate for the running slot — forward position 1
        maps to backward position (waiting + 1)."""
        return self.policy.running_rate(core)

    def rate_for_interactive(self, core: int, task: Task) -> Optional[float]:
        """The paper's interactive rate (maximum frequency, Section IV-C)."""
        return self.policy.interactive_rate(core)

    def on_complete(self, core: int, task: Task) -> None:
        """Completion feedback: teach the estimator the true cycle count."""
        if self.estimator is not None:
            self.estimator.observe(task, task.cycles)

    # -- extras ---------------------------------------------------------------------
    def cancel(self, task: Task) -> None:
        """Withdraw a still-queued task (not part of the paper's trace,
        but supported by the dynamic index and exposed for users)."""
        core, node = self._handles.pop(task.task_id)
        self.policy.remove(core, node)

    def queued_cost(self) -> float:
        """Θ(1)-maintained total cost of all waiting queues."""
        return self.policy.total_queued_cost()

    def counters(self) -> dict[str, int]:
        """Deterministic ops counters (queue mutations, marginal probes)
        aggregated over all cores — what ``repro bench`` records for the
        LMC trace scenario."""
        return self.policy.probe_counters()
