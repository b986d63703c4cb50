"""Data-structure substrates.

* :mod:`repro.structures.rangetree` — the "1D range tree" of Section
  IV-A: a balanced binary search tree (a treap) with order statistics,
  subtree aggregates ``ξ`` (range sum) and ``Δ`` (offset-weighted range
  sum), and doubly-linked predecessor/successor threading so boundary
  pointers move in ``Θ(1)``.
"""

from repro.structures.rangetree import RangeTree, RangeTreeNode

__all__ = ["RangeTree", "RangeTreeNode"]
