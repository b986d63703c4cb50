"""Shared fixtures for the test suite.

The Hypothesis strategies live in ``tests/strategies.py``: test modules
import them by module name, and ``conftest`` is not a unique one (the
benchmark harness has its own).
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.models.cost import CostModel
from repro.models.rates import RateTable, TABLE_II, TABLE_II_VERIFICATION


@pytest.fixture
def table_ii() -> RateTable:
    return TABLE_II

@pytest.fixture
def table_verif() -> RateTable:
    return TABLE_II_VERIFICATION


@pytest.fixture
def batch_model(table_ii: RateTable) -> CostModel:
    """The paper's batch-mode pricing (Re=0.1 ¢/J, Rt=0.4 ¢/s)."""
    return CostModel(table_ii, re=0.1, rt=0.4)


@pytest.fixture
def online_model(table_ii: RateTable) -> CostModel:
    """The paper's online-mode pricing (Re=0.4 ¢/J, Rt=0.1 ¢/s)."""
    return CostModel(table_ii, re=0.4, rt=0.1)
