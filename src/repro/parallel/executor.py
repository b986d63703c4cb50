"""Deterministic process-pool fan-out: an ordered map with serial fallback.

:func:`run_sharded` evaluates ``worker(payload)`` for every payload and
returns the results in input order, so the output is **bit-identical to
the serial loop** whatever ``jobs`` is:

* ``ProcessPoolExecutor.map`` already yields results in input order, so
  worker completion order never reaches the output;
* a pool that cannot spawn or breaks mid-run (``OSError``,
  ``BrokenProcessPool``) reruns the whole list serially in-process; a
  worker's own exception propagates with its type.

Workers must be **module-level picklable functions** of one payload and
pure in it (global caches may be warm or cold per process — they may
only affect speed). Any randomness a worker needs is seeded from its
payload, never from the process it runs in.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence


def run_sharded(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    jobs: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> List[Any]:
    """``[worker(p) for p in payloads]``, serially or in a process pool.

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
    if jobs > 1 and len(items) > 1:
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(items)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                return list(pool.map(worker, items,
                                     chunksize=-(-len(items) // (4 * jobs))))
        except (OSError, BrokenProcessPool) as exc:
            if log is not None:
                log(f"parallel: pool failed ({exc!r}); rerunning {len(items)} items serially")
    return [worker(p) for p in items]


__all__ = ["run_sharded"]
