"""Deterministic parallel execution for the repo's multi-run drivers.

Every driver that repeats work — ``repro bench`` scenarios, ``repro
fuzz`` case sweeps, the ``repro sweep`` experiment grids — fans out
through :func:`run_sharded` rather than touching ``multiprocessing`` /
``concurrent.futures`` directly (lint rule RP007 enforces that
boundary). The contract, in one line: **the output of a sharded run is
bit-identical to the serial run**, for any ``--jobs`` value, worker
completion order, or pool failure.

:func:`run_sharded` (:mod:`repro.parallel.executor`) is an ordered
process-pool map (``jobs > 1``) that reruns the list serially
in-process if the pool cannot run. See docs/PARALLELISM.md for the
ordered merge and the serial fallback in prose.
"""

from repro.parallel.executor import run_sharded

__all__ = ["run_sharded"]
