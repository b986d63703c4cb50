"""Shared setup for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` lets each benchmark print the paper-style table it regenerates
(Table I/II rows, the Figure 1-3 series). Without ``-s`` the numbers
are still asserted, just not displayed.

The pricing constants and ``emit`` live in ``benchmarks/harness.py``:
the modules import them by module name, and ``conftest`` is not a
unique one (the test suite has its own).
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest


@pytest.fixture(scope="session")
def spec_batch():
    from repro.workloads import spec_tasks

    return spec_tasks()
