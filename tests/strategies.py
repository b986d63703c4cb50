"""Hypothesis strategies shared by the test modules (``from strategies import ...``)."""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from repro.models.cost import CostModel
from repro.models.rates import RateTable
from repro.models.task import Task


def rate_tables(min_rates: int = 1, max_rates: int = 8) -> st.SearchStrategy[RateTable]:
    """Random valid rate tables: strictly increasing p and E, T = 1/p."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_rates, max_rates))
        rates = draw(
            st.lists(
                st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n, unique=True,
            )
        )
        rates = sorted(rates)
        # ensure rates are distinct enough for T=1/p to be strictly decreasing
        for a, b in zip(rates, rates[1:]):
            assume(b - a >= 1e-6)
        base = draw(st.floats(0.01, 5.0))
        increments = draw(
            st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n)
        )
        energies = []
        acc = base
        for inc in increments:
            energies.append(acc)
            acc += inc
        return RateTable(rates, energies)

    return build()


def cost_models(min_rates: int = 1, max_rates: int = 8) -> st.SearchStrategy[CostModel]:
    return st.builds(
        CostModel,
        rate_tables(min_rates, max_rates),
        re=st.floats(0.01, 10.0),
        rt=st.floats(0.01, 10.0),
    )


def cycle_lists(min_size: int = 0, max_size: int = 30) -> st.SearchStrategy[list[float]]:
    return st.lists(
        st.floats(0.001, 1e4, allow_nan=False, allow_infinity=False),
        min_size=min_size,
        max_size=max_size,
    )


def task_lists(min_size: int = 0, max_size: int = 30) -> st.SearchStrategy[list[Task]]:
    return cycle_lists(min_size, max_size).map(
        lambda cs: [Task(cycles=c) for c in cs]
    )
