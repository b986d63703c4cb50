"""The paper's pricing constants (from :mod:`repro.models.cost`) and the
table printer the benchmarks share."""

from __future__ import annotations

import sys

from repro.models.cost import RE_BATCH, RE_ONLINE, RT_BATCH, RT_ONLINE

__all__ = ["RE_BATCH", "RE_ONLINE", "RT_BATCH", "RT_ONLINE", "emit"]


def emit(text: str) -> None:
    """Print a regenerated table (visible with ``pytest -s``)."""
    print()
    print(text)
    sys.stdout.flush()
