"""Section IV — the Least Marginal Cost (LMC) online scheduling policy.

LMC assigns each newly arrived task to the core where it causes the
smallest *marginal* cost, without migrating anything already queued:

* **Interactive** task of ``L`` cycles → core ``j`` minimising
  Equation 27,

  ``C^M_j = Re·L·E_j(pm) + Rt·L·T_j(pm) + Rt·L·T_j(pm)·N_j``

  (its own energy + time at core ``j``'s maximum frequency ``pm``, plus
  the delay it inflicts on the ``N_j`` tasks it pushes back). The task
  preempts whatever non-interactive work is running and executes at
  ``pm``. On homogeneous cores this reduces to "least ``N_j``".
  ``N_j`` depends on what each core is running, which only the
  simulator knows, so the choice is made in one pass by
  :meth:`repro.schedulers.lmc.LMCOnlineScheduler.select_core`, where the
  core views and these queues meet. Its readable form, an argmin over
  :meth:`~repro.models.cost.CostModel.interactive_marginal_cost`, is the
  test oracle :func:`repro.verify.reference.choose_core_interactive`.

* **Non-interactive** task → each core's waiting queue is kept in the
  cost-optimal order of Theorem 3, so the insertion position is the
  task's sorted position and the marginal cost is the increase of
  Equation 32 — exactly what
  :meth:`repro.core.dynamic.DynamicCostIndex.marginal_insert_cost`
  returns in ``O(|P̂| + log N)``. The task joins the cheapest core and
  every queued task's frequency is (re)read off its new backward
  position.

The policy is simulator-agnostic: it owns the per-core queue indices
and answers placement/rate questions; the event-driven runner in
:mod:`repro.simulator.online_runner` drives it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core.dominating import DominatingRanges
from repro.core.dynamic import DynamicCostIndex
from repro.models.cost import CostModel
from repro.structures.rangetree import RangeTreeNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.tracer import Tracer


class LeastMarginalCostPolicy:
    """LMC over ``R`` (possibly heterogeneous) cores.

    Parameters
    ----------
    models:
        One :class:`CostModel` per core; all must share ``Re``/``Rt``.
    seed:
        Seed forwarded to the per-core queue indices (treap priorities).
    tracer:
        Optional decision tracer (:mod:`repro.obs`). Records one
        ``ranges.build`` event per core at construction, an
        ``lmc.noninteractive`` event per non-interactive core choice
        (the per-core Equation 32 increases compared, and the argmin),
        and — through the per-core queue indices — every real
        insert/delete and probe. Decisions are bit-identical with and
        without a tracer.
    """

    def __init__(self, models: Sequence[CostModel], seed: int = 0x5EED,
                 tracer: "Optional[Tracer]" = None) -> None:
        if not models:
            raise ValueError("at least one core is required")
        re, rt = models[0].re, models[0].rt
        for m in models[1:]:
            if m.re != re or m.rt != rt:
                raise ValueError("all cores must share the same Re and Rt")
        self.models = list(models)
        self.ranges = [DominatingRanges.from_cost_model(m) for m in models]
        self._tracer = tracer
        if tracer is not None:
            from repro.obs.events import ranges_event_data

            for j, r in enumerate(self.ranges):
                tracer.emit("ranges.build", ranges_event_data(r, core=j))
        self.queues = [
            DynamicCostIndex(m, r, seed=seed + j, tracer=tracer, label=f"core{j}")
            for j, (m, r) in enumerate(zip(models, self.ranges))
        ]

    @property
    def n_cores(self) -> int:
        return len(self.models)

    # -- core selection -----------------------------------------------------------
    def choose_core_noninteractive(
        self, cycles: float, head_delays: Optional[Sequence[float]] = None,
        task: Any = None,
    ) -> int:
        """Least marginal queue-cost core for a non-interactive task.

        ``head_delays[j]`` (seconds, optional) is the residual work at
        the head of core ``j`` that is *not* in the waiting queue — the
        running task's remaining execution (plus any preempted task).
        In the positional accounting, that work delays the newcomer by
        exactly ``Rt × head_delay``; without the term, an idle core and
        a core grinding through a huge task would price identically
        when both queues are empty. ``task`` only annotates the trace
        event.
        """
        costs = self.marginal_insert_costs(cycles, head_delays)
        chosen = min(range(self.n_cores), key=costs.__getitem__)
        if self._tracer is not None:
            data = {"cycles": cycles, "costs": list(costs), "chosen": chosen}
            if head_delays is not None:
                data["head_delays"] = list(head_delays)
            self._annotate_task(data, task)
            self._tracer.emit("lmc.noninteractive", data)
        return chosen

    @staticmethod
    def _annotate_task(data: dict, task: Any) -> None:
        if task is not None:
            data["task_id"] = task.task_id
            data["task"] = task.name

    def marginal_insert_costs(
        self, cycles: float, head_delays: Optional[Sequence[float]] = None
    ) -> list[float]:
        """Per-core marginal queue costs for one candidate task.

        Each entry is what :meth:`choose_core_noninteractive` compares:
        the Equation 32 increase from
        :meth:`~repro.core.dynamic.DynamicCostIndex.marginal_insert_cost`
        plus the optional ``Rt × head_delay`` term.
        """
        if head_delays is not None and len(head_delays) != self.n_cores:
            raise ValueError("head_delays must have one entry per core")
        rt = self.models[0].rt
        costs = [q.marginal_insert_cost(cycles) for q in self.queues]
        if head_delays is not None:
            costs = [c + rt * d for c, d in zip(costs, head_delays)]
        return costs

    def probe_counters(self) -> dict[str, int]:
        """Aggregate the per-core queue counters (bench ops accounting)."""
        total = {"inserts": 0, "deletes": 0, "probes": 0}
        for q in self.queues:
            for key, value in q.counters.items():
                total[key] += value
        return total

    # -- queue manipulation ---------------------------------------------------------
    def enqueue(self, core: int, cycles: float, payload: Any = None) -> RangeTreeNode:
        """Insert a non-interactive task into ``core``'s optimal queue."""
        return self.queues[core].insert(cycles, payload)

    def remove(self, core: int, node: RangeTreeNode) -> None:
        """Remove a queued task (it completed, was cancelled, or starts running)."""
        self.queues[core].delete(node)

    def pop_head(self, core: int) -> Optional[tuple[Any, float, float]]:
        """Dequeue the task that should run next on ``core``.

        Returns ``(payload, cycles, rate)`` — the rate is the one its
        backward position dictates at dequeue time — or ``None`` if the
        queue is empty. The task leaves the queue index; the caller
        owns it from here (it is "running", not "waiting"). The head is
        the tree's last node, so both of its rank queries (for the rate
        and for the delete) are ``Θ(1)``.
        """
        q = self.queues[core]
        node = q.head()
        if node is None:
            return None
        rate = q.rate_of(node)
        payload, cycles = node.payload, node.value
        q.delete(node)
        return payload, cycles, rate

    def running_rate(self, core: int) -> float:
        """Rate for the task currently running on ``core``.

        The running task sits at forward position 1, i.e. backward
        position ``(waiting + 1)`` — everything still queued waits
        behind it. Re-queried whenever the queue length changes, per
        the paper's "the processing frequency of each task on core j is
        adjusted according to C(k, p_k)".
        """
        return self.ranges[core].rate_for(len(self.queues[core]) + 1)

    def interactive_rate(self, core: int) -> float:
        """Interactive tasks always run at the core's maximum frequency."""
        return self.models[core].table.max_rate

    def waiting_count(self, core: int) -> int:
        return len(self.queues[core])

    def queued_cost(self, core: int) -> float:
        """Equation 32 for ``core``'s waiting queue. ``Θ(1)``."""
        return self.queues[core].total_cost

    def total_queued_cost(self) -> float:
        return sum(q.total_cost for q in self.queues)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        qs = ", ".join(str(len(q)) for q in self.queues)
        return f"LeastMarginalCostPolicy(cores={self.n_cores}, queued=[{qs}])"
