"""Deterministic process-pool fan-out: an ordered map with serial fallback.

:func:`run_sharded` evaluates ``worker(payload, seed_for(root_seed, i))``
for every payload and returns the results in input order, so the output
is **bit-identical to the serial loop** whatever ``jobs`` is:

* each item's seed is derived from its index alone
  (:func:`~repro.parallel.seeds.seed_for`), never from the worker, its
  PID or the clock;
* ``ProcessPoolExecutor.map`` already yields results in input order, so
  worker completion order never reaches the output;
* a pool that cannot spawn or breaks mid-run (``OSError``,
  ``BrokenProcessPool``) reruns the whole list serially in-process; a
  worker's own exception propagates with its type.

Workers must be **module-level picklable functions** of
``(payload, seed)`` and pure in those two arguments (global caches may
be warm or cold per process — they may only affect speed).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

from repro.parallel.seeds import seed_for

#: A worker callable: module-level, picklable, pure in (payload, seed).
Worker = Callable[[Any, int], Any]


def run_sharded(
    worker: Worker,
    payloads: Sequence[Any],
    *,
    root_seed: int = 0,
    jobs: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> List[Any]:
    """``[worker(p, seed_for(root_seed, i)) for i, p in enumerate(payloads)]``.

    With ``jobs > 1`` and more than one item the list is mapped over a
    fork-context process pool in chunks of ``ceil(n / (4·jobs))`` (four
    chunks per worker, so one slow chunk is backfilled by the rest).
    Fork lets workers inherit the warm interpreter, including registries
    a test has patched; the drivers that call this start no threads.
    If the pool cannot run, the list reruns serially and one line goes
    to ``log``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    items = list(payloads)
    seeds = [seed_for(root_seed, i) for i in range(len(items))]
    if jobs > 1 and len(items) > 1:
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(items)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                return list(pool.map(worker, items, seeds,
                                     chunksize=-(-len(items) // (4 * jobs))))
        except (OSError, BrokenProcessPool) as exc:
            if log is not None:
                log(f"parallel: pool failed ({exc!r}); rerunning {len(items)} items serially")
    return [worker(p, s) for p, s in zip(items, seeds)]


__all__ = ["Worker", "run_sharded"]
