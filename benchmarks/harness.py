"""The paper's pricing constants and the table printer the benchmarks share."""

from __future__ import annotations

import sys

#: The paper's pricing constants.
RE_BATCH, RT_BATCH = 0.1, 0.4
RE_ONLINE, RT_ONLINE = 0.4, 0.1


def emit(text: str) -> None:
    """Print a regenerated table (visible with ``pytest -s``)."""
    print()
    print(text)
    sys.stdout.flush()
