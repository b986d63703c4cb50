"""Tests for the deterministic fan-out layer (src/repro/parallel/).

Covers the ordered map that is bit-identical to the serial loop, the serial rerun when a pool worker
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

from repro.parallel import run_sharded


# ---------------------------------------------------------------------------
# module-level workers (pool workers must be picklable)
# ---------------------------------------------------------------------------


def _echo(payload):
    return (payload, -payload)


def _square(payload):
    return payload * payload


def _pid(payload):
    return os.getpid()


def _crash_in_worker(payload):
    if multiprocessing.parent_process() is not None:
        os._exit(17)  # hard-kill the pool worker; fine in the parent
    return payload + 1


def _always_raises(payload):
    raise ValueError(f"bad payload {payload}")


# ---------------------------------------------------------------------------
# the ordered map
# ---------------------------------------------------------------------------


class TestMergeDeterminism:
    def test_serial_matches_the_documented_comprehension(self):
        payloads = list(range(17))
        assert run_sharded(_echo, payloads) == [_echo(p) for p in payloads]

    def test_parallel_is_bit_identical_to_serial(self):
        payloads = list(range(23))
        serial = run_sharded(_echo, payloads)
        assert run_sharded(_echo, payloads, jobs=2) == serial

    def test_chunk_size_never_changes_the_output(self):
        # the chunk size is derived from jobs: 11 items give chunks of
        # 2, 1 and 1 under jobs = 2, 3 and 5
        payloads = list(range(11))
        outputs = [run_sharded(_square, payloads, jobs=j) for j in (2, 3, 5)]
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
