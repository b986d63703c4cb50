"""Deterministic parallel execution for the repo's multi-run drivers.

Every driver that repeats seeded work — ``repro bench`` scenarios,
``repro fuzz`` case sweeps, the ``repro sweep`` experiment grids —
fans out through this package rather than touching
``multiprocessing`` / ``concurrent.futures`` directly (lint rule RP007
enforces that boundary). The contract, in one line: **the output of a
sharded run is bit-identical to the serial run**, for any ``--jobs``
value, worker completion order, or pool failure.

The pieces:

* :mod:`repro.parallel.seeds` — pinned SHA-256 seed derivation
  ``seed_for(root_seed, item_index)``; never wall-clock or PID.
* :mod:`repro.parallel.executor` — :func:`run_sharded`: an ordered
  process-pool map (``jobs > 1``) that reruns the list serially
  in-process if the pool cannot run.

See docs/PARALLELISM.md for seed derivation, the ordered merge and the
serial fallback in prose.
"""

from repro.parallel.executor import Worker, run_sharded
from repro.parallel.seeds import SEED_BITS, seed_for, spawn_seeds

__all__ = [
    "SEED_BITS",
    "Worker",
    "run_sharded",
    "seed_for",
    "spawn_seeds",
]
