"""Tests for the deterministic fan-out layer (src/repro/parallel/).

Covers the pinned seed derivation, the ordered map that is
bit-identical to the serial loop, the serial rerun when a pool worker
dies, and exception propagation.

The workers below are module-level on purpose: pool workers must be
picklable, and ``_crash_in_worker`` misbehaves *only inside a worker
process* (checked via ``multiprocessing.parent_process()``) so the
serial fallback can be asserted to succeed deterministically.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.parallel import SEED_BITS, run_sharded, seed_for, spawn_seeds


# ---------------------------------------------------------------------------
# module-level workers (pool workers must be picklable)
# ---------------------------------------------------------------------------


def _echo(payload, seed):
    return (payload, seed)


def _square(payload, seed):
    return payload * payload


def _pid(payload, seed):
    return os.getpid()


def _crash_in_worker(payload, seed):
    if multiprocessing.parent_process() is not None:
        os._exit(17)  # hard-kill the pool worker; fine in the parent
    return payload + 1


def _always_raises(payload, seed):
    raise ValueError(f"bad payload {payload}")


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


class TestSeeds:
    def test_seed_values_are_pinned(self):
        # frozen constants: a change here silently invalidates every
        # committed artifact produced under --jobs
        assert seed_for(0, 0) == 6896483819881146115
        assert seed_for(0, 1) == 6440381980821027716
        assert seed_for(7, 0) == 5642997428398471325
        assert seed_for(-3, 5) == 3810670195432937049

    def test_seed_range_and_distinctness(self):
        seeds = spawn_seeds(42, 500)
        assert len(set(seeds)) == 500
        assert all(0 <= s < 2**SEED_BITS for s in seeds)

    def test_seed_is_pure_in_root_and_index(self):
        assert seed_for(1, 2) == seed_for(1, 2)
        assert seed_for(1, 2) != seed_for(2, 1)
        assert seed_for(12, 0) != seed_for(1, 20)  # no textual aliasing

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


# ---------------------------------------------------------------------------
# the ordered map
# ---------------------------------------------------------------------------


class TestMergeDeterminism:
    def test_serial_matches_the_documented_comprehension(self):
        payloads = list(range(17))
        assert run_sharded(_echo, payloads, root_seed=9) == [
            (p, seed_for(9, i)) for i, p in enumerate(payloads)
        ]

    def test_parallel_is_bit_identical_to_serial(self):
        payloads = list(range(23))
        serial = run_sharded(_echo, payloads, root_seed=3)
        assert run_sharded(_echo, payloads, root_seed=3, jobs=2) == serial

    def test_chunk_size_never_changes_the_output(self):
        # the chunk size is derived from jobs: 11 items give chunks of
        # 2, 1 and 1 under jobs = 2, 3 and 5
        payloads = list(range(11))
        outputs = [run_sharded(_square, payloads, root_seed=1, jobs=j)
                   for j in (2, 3, 5)]
        assert outputs[0] == outputs[1] == outputs[2] == [p * p for p in payloads]

    def test_parallel_items_run_in_child_processes(self):
        pids = run_sharded(_pid, list(range(6)), jobs=2)
        assert len(pids) == 6
        assert os.getpid() not in pids

    def test_single_shard_degrades_to_serial(self):
        assert run_sharded(_pid, [1], jobs=4) == [os.getpid()]

    def test_empty_work_list(self):
        assert run_sharded(_square, [], jobs=4) == []

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sharded(_square, [1, 2], jobs=0)


# ---------------------------------------------------------------------------
# failures: serial fallback, propagation
# ---------------------------------------------------------------------------


class TestFailureLadder:
    def test_crashing_worker_falls_back_serially(self):
        payloads = list(range(8))
        log: list[str] = []
        out = run_sharded(_crash_in_worker, payloads, jobs=2, log=log.append)
        # the whole list reruns in-process, bit-identically
        assert out == [p + 1 for p in payloads]
        assert len(log) == 1 and "serially" in log[0]

    def test_worker_exception_propagates_with_its_type(self):
        with pytest.raises(ValueError, match="bad payload"):
            run_sharded(_always_raises, [1, 2], jobs=2)

    def test_serial_path_raises_immediately(self):
        with pytest.raises(ValueError, match="bad payload 0"):
            run_sharded(_always_raises, [0])
