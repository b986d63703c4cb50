"""Online-mode execution: arrivals, preemption, per-core queues.

This is the event-driven simulator of Section V-B: events are task
arrivals and task completions (plus governor sampling ticks when a
baseline delegates frequency control to a governor). The scheduling
*policy* — LMC or a baseline — is pluggable through the small
:class:`OnlinePolicy` protocol below; the runner owns the mechanics the
paper fixes for every policy (Section IV assumptions):

* one execution queue per core; the policy orders its own
  non-interactive queue;
* interactive tasks have priority: they preempt a running
  non-interactive task and FIFO among themselves;
* the preempted task resumes once no interactive work is pending;
* a core may change frequency at any time (online-mode rate model).

Cost accounting follows the paper: each task pays ``Re × joules`` plus
``Rt × (completion − arrival)``; the run's total cost is the sum over
tasks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Optional, Protocol, Sequence

from repro.governors.base import Governor
from repro.models.cost import ScheduleCost, check_prices
from repro.models.rates import RateTable, per_core_tables
from repro.models.task import Task, TaskKind
from repro.models.tolerances import STRICT_ABS_TOL, TIME_SLACK
from repro.simulator.platform import SimCore, TaskExecution

#: Events one run may fire (arrivals, completions and governor ticks)
#: before it is stopped as a runaway loop.
MAX_EVENTS = 50_000_000


class CoreView:
    """Read-only live view of one core, handed to policies at arrival time.

    The runner builds one view per core per run and passes the same
    views to every :meth:`OnlinePolicy.select_core` call. Each field is
    computed from the core's state when it is read, so a view is valid
    only during the ``select_core`` call it was passed to.
    """

    __slots__ = ("_index", "_state")

    def __init__(self, index: int, state: "_CoreState") -> None:
        self._index = index
        self._state = state

    @property
    def index(self) -> int:
        return self._index

    @property
    def current_rate(self) -> float:
        return self._state.sim.rate

    @property
    def running_kind(self) -> Optional[TaskKind]:
        return self._state.running_kind

    @property
    def running_remaining_cycles(self) -> float:
        running = self._state.sim.current
        return running.remaining_cycles if running is not None else 0.0

    @property
    def preempted_remaining_cycles(self) -> float:
        preempted = self._state.preempted
        return preempted.remaining_cycles if preempted is not None else 0.0

    @property
    def interactive_waiting(self) -> int:
        return len(self._state.interactive_queue)

    @property
    def interactive_backlog_cycles(self) -> float:
        return sum(t.cycles for t in self._state.interactive_queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CoreView({self._index}, rate={self.current_rate!r}, "
                f"running={self.running_kind}, waiting={self.interactive_waiting})")


class OnlinePolicy(Protocol):
    """What a scheduling strategy must provide to drive the runner.

    Rate-returning methods may return ``None`` to mean "leave frequency
    control to the governor" (how On-demand works); returning a rate
    pins the core to it, as the paper's userspace-governor setup does.

    The :class:`CoreView` objects ``select_core`` receives are live
    views that the runner reuses at every arrival: a view is valid only
    during the ``select_core`` call it was passed to.
    """

    n_cores: int

    def select_core(self, task: Task, views: Sequence[CoreView]) -> int:
        """Core for a newly arrived task (both kinds); ``views[j]`` is core ``j``."""
        ...

    def enqueue_noninteractive(self, core: int, task: Task) -> None:
        """Record a non-interactive task in ``core``'s waiting queue."""
        ...

    def dequeue_noninteractive(self, core: int) -> Optional[Task]:
        """Pop the next non-interactive task to run, or None if empty."""
        ...

    def rate_for_noninteractive(self, core: int, task: Task) -> Optional[float]:
        """Rate for the (re)starting or queue-adjusted running NI task."""
        ...

    def rate_for_interactive(self, core: int, task: Task) -> Optional[float]:
        """Rate for a starting interactive task."""
        ...


@dataclass(frozen=True, slots=True)
class OnlineTaskRecord:
    """Measured outcome of one online task.

    ``busy_seconds`` counts actual execution time only; a preempted
    task's suspension gap is part of its turnaround but not its busy
    time.
    """

    task: Task
    core: int
    first_start: float
    finish: float
    energy_joules: float
    preemptions: int
    busy_seconds: float = 0.0

    @property
    def turnaround(self) -> float:
        return self.finish - self.task.arrival

    @property
    def response_time(self) -> float:
        """Arrival → first execution; the paper's interactive-task metric."""
        return self.first_start - self.task.arrival

    @property
    def kind(self) -> TaskKind:
        return self.task.kind


def _record_factory():
    """``OnlineTaskRecord(...)`` with positional fields, minus ``__init__``.

    The frozen ``__init__`` sets each field through
    ``object.__setattr__``; filling the slot descriptors directly builds
    an equal record in about a quarter of the time. The record stays
    frozen: only this factory writes its slots.
    """
    new = object.__new__
    setters = tuple(OnlineTaskRecord.__dict__[f.name].__set__ for f in fields(OnlineTaskRecord))
    set_task, set_core, set_first_start, set_finish, set_energy, set_preemptions, set_busy = setters

    def make(task: Task, core: int, first_start: float, finish: float,
             energy_joules: float, preemptions: int, busy_seconds: float) -> OnlineTaskRecord:
        record = new(OnlineTaskRecord)
        set_task(record, task)
        set_core(record, core)
        set_first_start(record, first_start)
        set_finish(record, finish)
        set_energy(record, energy_joules)
        set_preemptions(record, preemptions)
        set_busy(record, busy_seconds)
        return record

    return make


_make_record = _record_factory()


@dataclass
class OnlineResult:
    """Everything measured during one online run.

    ``core_busy_seconds[j]`` is how long core ``j`` spent executing
    (any task kind); divide by :attr:`horizon` for utilisation.
    """

    records: list[OnlineTaskRecord]
    horizon: float
    energy_joules: float
    events: int
    core_busy_seconds: tuple[float, ...] = ()

    @property
    def total_preemptions(self) -> int:
        """Preemptions summed over all tasks — a deterministic ops
        counter (``repro bench`` compares it against the baseline)."""
        return sum(r.preemptions for r in self.records)

    def utilisation(self, core: int) -> float:
        """Busy fraction of ``core`` over the run's horizon."""
        n = len(self.core_busy_seconds)
        if not n:
            raise ValueError("this result carries no per-core accounting")
        if not 0 <= core < n:
            raise ValueError(f"core {core} out of range for {n} cores")
        if self.horizon <= 0:
            return 0.0
        return self.core_busy_seconds[core] / self.horizon

    def mean_utilisation(self) -> float:
        if not self.core_busy_seconds or self.horizon <= 0:
            return 0.0
        return sum(self.core_busy_seconds) / (len(self.core_busy_seconds) * self.horizon)

    def cost(self, re: float, rt: float) -> ScheduleCost:
        check_prices(re, rt)
        turnaround_sum = sum(r.turnaround for r in self.records)
        return ScheduleCost(
            energy_cost=re * self.energy_joules,
            temporal_cost=rt * turnaround_sum,
            energy_joules=self.energy_joules,
            busy_seconds=sum(r.busy_seconds for r in self.records),
            makespan=self.horizon,
            turnaround_sum=turnaround_sum,
            task_count=len(self.records),
        )

    def by_kind(self, kind: TaskKind) -> list[OnlineTaskRecord]:
        return [r for r in self.records if r.kind is kind]

    def mean_response(self, kind: TaskKind) -> float:
        rs = self.by_kind(kind)
        return sum(r.response_time for r in rs) / len(rs) if rs else 0.0

    def mean_turnaround(self, kind: TaskKind) -> float:
        rs = self.by_kind(kind)
        return sum(r.turnaround for r in rs) / len(rs) if rs else 0.0

    # -- QoS metrics (interactive tasks carry firm deadlines, Section II-A) ----
    def deadline_misses(self, kind: Optional[TaskKind] = None) -> int:
        """Tasks whose completion exceeded their (finite) deadline."""
        rs = self.records if kind is None else self.by_kind(kind)
        return sum(
            1 for r in rs if r.task.has_deadline and r.finish > r.task.deadline + TIME_SLACK
        )

    def deadline_miss_rate(self, kind: Optional[TaskKind] = None) -> float:
        """Miss fraction among tasks that *have* a finite deadline."""
        rs = self.records if kind is None else self.by_kind(kind)
        with_deadline = [r for r in rs if r.task.has_deadline]
        if not with_deadline:
            return 0.0
        return self.deadline_misses(kind) / len(with_deadline)

    def response_percentile(self, kind: TaskKind, q: float) -> float:
        """The ``q``-quantile (0..1) of response times for a task class.

        Nearest-rank percentile; the paper's interactive SLO is about
        tail response, not the mean.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        rs = sorted(r.response_time for r in self.by_kind(kind))
        if not rs:
            return 0.0
        idx = min(len(rs) - 1, max(0, int(math.ceil(q * len(rs))) - 1))
        return rs[idx]


@dataclass
class _CoreState:
    """The runner's books for one core; its running task and rate are
    the :class:`SimCore`'s own (``sim.current``, ``sim.rate``)."""

    sim: SimCore
    governor: Optional[Governor]
    running_kind: Optional[TaskKind] = None
    interactive_queue: deque = field(default_factory=deque)
    preempted: Optional[TaskExecution] = None
    completion: Optional[int] = None  # seq of the latest completion entry pushed
    busy_accum: float = 0.0
    busy_since: Optional[float] = None
    total_busy: float = 0.0


def run_online(
    trace: Sequence[Task],
    policy: OnlinePolicy,
    tables: Sequence[RateTable] | RateTable,
    governors: Optional[Sequence[Governor]] = None,
    tracer=None,
) -> OnlineResult:
    """Simulate an online trace under ``policy``. Returns measurements.

    Parameters
    ----------
    trace:
        Tasks with arrival times and kinds; completion order is decided
        by the policy and the mechanics above. The run continues past
        the last arrival until every task completes.
    tables:
        One :class:`RateTable` (homogeneous) or one per core.
    governors:
        Optional per-core governors. When given, they sample load every
        ``sampling_period`` seconds (positive and finite, or
        ``ValueError``) and set frequencies whenever the policy declines
        to (returns ``None`` from a rate method).
    tracer:
        Optional decision tracer (:mod:`repro.obs`): records
        ``sim.dispatch`` / ``sim.complete`` / ``sim.preempt`` /
        ``sim.rate`` events at simulated time. Measurements are
        bit-identical with and without it.

    The event loop merges the time-sorted arrivals with a heap of
    ``(time, seq, j)`` entries: ``j`` is the core whose running task
    completes, ``~j`` core ``j``'s governor tick. An arrival fires
    before any queued entry at the same time; queued entries at equal
    times fire in ``seq`` (push) order. A core's live completion is the
    last entry pushed for it, whose ``seq`` the core holds. A rate change
    or a preempting task's start pushes a new one; the superseded entry
    is skipped when popped, not fired and not counted in
    :attr:`OnlineResult.events`.
    """
    n = policy.n_cores
    if n < 1:
        raise ValueError("policy must manage at least one core")
    if governors is not None and len(governors) != n:
        raise ValueError("need one governor per core")
    table_list = per_core_tables(tables, n)
    periods = [gov.sampling_period for gov in governors or ()]
    for j, period in enumerate(periods):
        if not 0.0 < period < math.inf:
            raise ValueError(
                f"governor {j}: sampling_period must be positive and finite, got {period!r}"
            )

    cores: list[_CoreState] = []
    for j, table in enumerate(table_list):
        gov = governors[j] if governors is not None else None
        sc = SimCore(j, table)
        sc.rate = gov.initial_rate() if gov is not None else table.max_rate
        cores.append(_CoreState(sim=sc, governor=gov))

    records: list[OnlineTaskRecord] = []
    outstanding = len(trace)  # tasks arrived-or-future and not yet completed
    heap: list[tuple[float, int, int]] = []  # (time, seq, j): completion j, tick ~j
    heappush = heapq.heappush
    heappop = heapq.heappop
    next_seq = itertools.count().__next__
    max_events = MAX_EVENTS
    now = 0.0
    events = 0

    # ---- helpers -------------------------------------------------------------
    sim_cores = [cs.sim for cs in cores]
    # optional completion feedback (estimators learn from it), looked up once
    on_complete_hook = getattr(policy, "on_complete", None)
    core_views = tuple(CoreView(j, cs) for j, cs in enumerate(cores))

    def advance_all() -> None:
        # idle meterless cores are left alone: start/set_rate advance a
        # core before touching it, and busy cores keep every breakpoint
        for sc in sim_cores:
            if sc.current is not None:
                sc.advance(now)

    def schedule_completion(j: int) -> None:
        """Queue the running task's completion; it supersedes any earlier one."""
        cs = cores[j]
        t_done = cs.sim.next_completion_time(now)
        if not math.isfinite(t_done):
            task = cs.sim.current.task
            raise RuntimeError(
                f"core {j}: task {task.task_id} ({task.name!r}) "
                f"has non-finite completion time {t_done!r}"
            )
        if t_done < now - STRICT_ABS_TOL:
            raise ValueError(f"cannot schedule in the past: t={t_done} < now={now}")
        seq = next_seq()
        heappush(heap, (max(t_done, now), seq, j))
        cs.completion = seq

    def set_core_rate(j: int, rate: float) -> None:
        sc = sim_cores[j]
        prev_rate = sc.rate
        if rate == prev_rate:
            return
        if tracer is not None:
            tracer.emit("sim.rate",
                        {"time": now, "core": j, "rate": rate,
                         "prev_rate": prev_rate},
                        time=now)
        sc.set_rate(rate, now)
        if sc.current is not None:
            schedule_completion(j)

    def mark_busy(j: int) -> None:
        cs = cores[j]
        if cs.busy_since is None:
            cs.busy_since = now

    def mark_idle(j: int) -> None:
        cs = cores[j]
        if cs.busy_since is not None:
            elapsed = now - cs.busy_since
            cs.busy_accum += elapsed
            cs.total_busy += elapsed
            cs.busy_since = None

    def start_execution(j: int, execution: TaskExecution, kind: TaskKind,
                        rate: Optional[float]) -> None:
        cs = cores[j]
        sc = cs.sim
        if sc.current is not None:
            raise RuntimeError(
                f"core {j}: cannot start task {execution.task.task_id} at t={now!r} "
                f"while task {sc.current.task.task_id} is running"
            )
        if rate is not None:
            set_core_rate(j, rate)
        sc.start(execution, sc.rate, now)
        cs.running_kind = kind
        if tracer is not None:
            tracer.emit("sim.dispatch",
                        {"time": now, "core": j, "task_id": execution.task.task_id,
                         "task": execution.task.name, "task_kind": kind.name,
                         "rate": sc.rate},
                        time=now)
        mark_busy(j)
        schedule_completion(j)

    def start_next(j: int) -> None:
        """Fill an idle core per the fixed priority order."""
        cs = cores[j]
        running = cs.sim.current
        if running is not None:
            raise RuntimeError(
                f"core {j}: asked to fill at t={now!r} "
                f"while task {running.task.task_id} is running"
            )
        if cs.interactive_queue:
            task = cs.interactive_queue.popleft()
            execution = TaskExecution(task=task, remaining_cycles=task.cycles)
            start_execution(j, execution, TaskKind.INTERACTIVE,
                            policy.rate_for_interactive(j, task))
            return
        if cs.preempted is not None:
            execution = cs.preempted
            cs.preempted = None
            start_execution(j, execution, TaskKind.NONINTERACTIVE,
                            policy.rate_for_noninteractive(j, execution.task))
            return
        task = policy.dequeue_noninteractive(j)
        if task is not None:
            execution = TaskExecution(task=task, remaining_cycles=task.cycles)
            start_execution(j, execution, TaskKind.NONINTERACTIVE,
                            policy.rate_for_noninteractive(j, task))
            return
        mark_idle(j)

    # ---- event handlers ---------------------------------------------------------
    def on_completion(j: int) -> None:
        nonlocal outstanding
        cs = cores[j]
        advance_all()
        execution = cs.sim.complete(now)
        cs.running_kind = None
        if execution.started_at is None or execution.finished_at is None:
            raise RuntimeError(
                f"core {j}: task {execution.task.task_id} completed at t={now!r} "
                f"without start/finish stamps ({execution.started_at!r}, "
                f"{execution.finished_at!r})"
            )
        records.append(_make_record(
            execution.task, j, execution.started_at, execution.finished_at,
            execution.energy_joules, execution.preemptions, execution.busy_seconds,
        ))
        outstanding -= 1
        if tracer is not None:
            tracer.emit("sim.complete",
                        {"time": now, "core": j, "task_id": execution.task.task_id,
                         "task": execution.task.name,
                         "energy_joules": execution.energy_joules,
                         "turnaround": execution.finished_at - execution.task.arrival},
                        time=now)
        if on_complete_hook is not None:
            on_complete_hook(j, execution.task)
        start_next(j)

    def on_arrival(task: Task) -> None:
        advance_all()
        j = policy.select_core(task, core_views)
        if not (0 <= j < n):
            raise ValueError(f"policy selected invalid core {j}")
        cs = cores[j]
        running = cs.sim.current
        if task.kind is TaskKind.INTERACTIVE:
            if cs.running_kind is TaskKind.NONINTERACTIVE and running is not None and running.done:
                # the running task finishes at exactly this instant; its
                # completion event is already queued behind this arrival —
                # queue up rather than preempting a zero-cycle remainder.
                cs.interactive_queue.append(task)
            elif cs.running_kind is TaskKind.NONINTERACTIVE:
                # preempt the lower-priority task (Section IV mechanics)
                if cs.preempted is not None:
                    raise RuntimeError(
                        f"core {j}: an NI task is running at t={now!r} while task "
                        f"{cs.preempted.task.task_id} is preempted; cannot preempt for "
                        f"task {task.task_id}"
                    )
                # the interactive task's completion, pushed by
                # start_execution below, supersedes the preempted one's
                cs.preempted = cs.sim.preempt(now)
                if tracer is not None:
                    tracer.emit("sim.preempt",
                                {"time": now, "core": j,
                                 "task_id": cs.preempted.task.task_id,
                                 "task": cs.preempted.task.name},
                                time=now)
                cs.running_kind = None
                execution = TaskExecution(task=task, remaining_cycles=task.cycles)
                start_execution(j, execution, TaskKind.INTERACTIVE,
                                policy.rate_for_interactive(j, task))
            elif cs.running_kind is TaskKind.INTERACTIVE:
                cs.interactive_queue.append(task)
            else:
                execution = TaskExecution(task=task, remaining_cycles=task.cycles)
                start_execution(j, execution, TaskKind.INTERACTIVE,
                                policy.rate_for_interactive(j, task))
        else:
            policy.enqueue_noninteractive(j, task)
            if running is None:
                start_next(j)
            elif cs.running_kind is TaskKind.NONINTERACTIVE and not running.done:
                # queue membership changed → the running task's positional
                # rate may change ("adjusted according to C(k, p_k)")
                new_rate = policy.rate_for_noninteractive(j, running.task)
                if new_rate is not None:
                    set_core_rate(j, new_rate)

    def on_tick(j: int) -> None:
        cs = cores[j]
        gov = cs.governor
        if gov is None:
            raise RuntimeError(f"core {j}: governor tick at t={now!r} without a governor")
        advance_all()
        window = periods[j]
        busy = cs.busy_accum
        if cs.busy_since is not None:
            elapsed = now - cs.busy_since
            busy += elapsed
            cs.total_busy += elapsed
            cs.busy_since = now
        cs.busy_accum = 0.0
        new_rate = gov.on_sample(min(1.0, busy / window), cs.sim.rate)
        set_core_rate(j, new_rate)
        if outstanding > 0:
            heappush(heap, (now + window, next_seq(), ~j))

    def fire_queued(limit: float) -> None:
        """Fire the queued completions and ticks due strictly before ``limit``."""
        nonlocal now, events
        while heap and heap[0][0] < limit:
            time, seq, j = heappop(heap)
            if j >= 0 and cores[j].completion != seq:
                continue  # superseded by a rate change or a preemption
            now = time
            events += 1
            if events > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events — runaway loop?")
            if j >= 0:
                on_completion(j)
            else:
                on_tick(~j)

    # ---- run: arrivals stream past the heap, which holds completions and ticks ----
    for j, period in enumerate(periods):
        heappush(heap, (now + period, next_seq(), ~j))
    for task in sorted(trace, key=lambda t: (t.arrival, t.task_id)):
        time = task.arrival
        if not time >= now:
            raise ValueError(f"stream out of order: t={time} < now={now}")
        fire_queued(time)
        now = time
        events += 1
        if events > max_events:
            raise RuntimeError(f"simulation exceeded {max_events} events — runaway loop?")
        on_arrival(task)
    fire_queued(math.inf)

    if outstanding != 0:
        raise RuntimeError(f"{outstanding} tasks never completed — scheduling deadlock?")
    horizon = max((r.finish for r in records), default=0.0)
    return OnlineResult(
        records=records,
        horizon=horizon,
        energy_joules=sum(r.energy_joules for r in records),
        events=events,
        core_busy_seconds=tuple(cs.total_busy for cs in cores),
    )
