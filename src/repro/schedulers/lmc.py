"""Least Marginal Cost as an online-runner policy.

Bridges :class:`repro.core.online_lmc.LeastMarginalCostPolicy` (which
owns the per-core optimal queues and the marginal-cost mathematics) to
the :class:`~repro.simulator.online_runner.OnlinePolicy` protocol the
event-driven runner drives.

Equation 27's interactive core choice lives here, where the runner's
core views and the policy's queues meet: one pass over the cores with
each core's ``E(pm)``/``T(pm)`` read once at construction and ``N_j``
read straight off the queue's range tree. Its readable form — an argmin
over :meth:`~repro.models.cost.CostModel.interactive_marginal_cost` —
is the test oracle :func:`repro.verify.reference.choose_core_interactive`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CostModel
from repro.models.rates import RateTable, per_core_tables
from repro.models.task import Task, TaskKind
from repro.simulator.online_runner import CoreView

# bound once: every arrival tests them, and an Enum member lookup through
# the class costs several times a module-global read
INTERACTIVE, NONINTERACTIVE = TaskKind.INTERACTIVE, TaskKind.NONINTERACTIVE


class LMCOnlineScheduler:
    """The paper's online scheduler, ready to hand to ``run_online``.

    Pass an ``estimator`` (see :mod:`repro.workloads.estimation`) to
    schedule from *predicted* cycle counts — the paper's deployment
    assumption — while execution still consumes the true counts; task
    completions are fed back via :meth:`on_complete` so a learning
    estimator (the per-category mean) improves as the trace progresses.
    The default is the oracle (estimates ≡ truth), matching Section IV
    assumption 1.
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
        self.policy = LeastMarginalCostPolicy(
            [CostModel(t, re, rt) for t in per_core_tables(tables, n_cores)],
            seed=seed, tracer=tracer,
        )
        self.estimator = estimator
        self._tracer = tracer
        # Equation 27's per-core constants: the queue's range tree (N_j is
        # its size) and E(pm), T(pm), the last entries of the rate table
        models = self.policy.models
        self._re, self._rt = models[0].re, models[0].rt
        self._eq27 = tuple(
            (q.tree, m.table.energy_per_cycle[-1], m.table.time_per_cycle[-1])
            for q, m in zip(self.policy.queues, models)
        )

    def _cycles(self, task: Task) -> float:
        if self.estimator is None:
            return task.cycles
        est = self.estimator.estimate(task)
        if not 0 < est < math.inf:
            raise ValueError(
                f"estimator returned non-positive or non-finite cycles {est!r} for "
                f"task {task.task_id} ({task.name!r}); cycles must be positive and finite"
            )
        return est

    # -- OnlinePolicy protocol --------------------------------------------------------
    def select_core(self, task: Task, views: Sequence[CoreView]) -> int:
        """The least-marginal-cost core: Eq. 27 for interactive tasks,
        the dynamic-index marginal insert cost for non-interactive.

        Equation 27 is one pass over the cores. ``N_j`` counts core
        ``j``'s waiting queue plus the non-interactive task the newcomer
        would preempt; each cost is ``(Re·L·E_j + x) + x·N_j`` with
        ``x = Rt·L·T_j``, the operations of
        :meth:`~repro.models.cost.CostModel.interactive_marginal_cost`
        in its order. The first strict minimum wins, so ties go to the
        lowest core index. With a tracer the same pass also collects the
        costs and ``N_j`` for the ``lmc.interactive`` event; the choice
        never depends on it.
        """
        if task.kind is INTERACTIVE:
            cycles = task.cycles if self.estimator is None else self._cycles(task)
            rc, tc = self._re * cycles, self._rt * cycles
            tracer = self._tracer
            rows: Optional[list[tuple[float, int]]] = None if tracer is None else []
            chosen, best = 0, math.nan
            for j, ((tree, e_pm, t_pm), view) in enumerate(zip(self._eq27, views)):
                n = tree.size
                if view.running_kind is NONINTERACTIVE:
                    n += 1
                x = tc * t_pm
                cost = (rc * e_pm + x) + x * n
                if j == 0 or cost < best:
                    chosen, best = j, cost
                if rows is not None:
                    rows.append((cost, n))
            if rows is not None:
                tracer.emit("lmc.interactive", {
                    "cycles": cycles, "costs": [c for c, _ in rows], "chosen": chosen,
                    "delayed": [n for _, n in rows],
                    "task_id": task.task_id, "task": task.name,
                })
            return chosen
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
        self.policy.enqueue(core, self._cycles(task), payload=task)

    def dequeue_noninteractive(self, core: int) -> Optional[Task]:
        """Pop the index head — the shortest waiting job on that core."""
        popped = self.policy.pop_head(core)
        return None if popped is None else popped[0]

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
    def counters(self) -> dict[str, int]:
        """Deterministic ops counters (queue mutations, marginal probes)
        aggregated over all cores — what ``repro bench`` records for the
        LMC trace scenario."""
        return self.policy.probe_counters()
