"""Brute-force subset-enumeration oracle for every count.

Walks all 2^n vertex subsets with vectorized bit arithmetic and keeps the
connected ones: a subset of a tree induces a forest, so it is connected
exactly when its induced edge count is one less than its size.  Distances
come from per-vertex BFS.  Deliberately shares no code with the product-form
counters in :mod:`treecount.counting`; it exists to check them.

numpy (the ``oracle`` extra) is imported inside the functions that use it,
so importing treecount does not need or load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .counting import CountReport
from .tree import Tree

if TYPE_CHECKING:
    import numpy as np

ORACLE_MAX_ORDER = 20


class TooLargeError(ValueError):
    """Order beyond the subset-enumeration bound."""


def _connectivity_table(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """(index array, boolean mask over all 2^n subsets marking connected ones)."""
    import numpy as np
    if t.n > ORACLE_MAX_ORDER:
        raise TooLargeError(f"n={t.n} exceeds oracle bound {ORACLE_MAX_ORDER}")
    idx = np.arange(1 << t.n, dtype=np.uint32)
    inside = np.zeros(1 << t.n, dtype=np.uint32)
    for u, v in t.edges:
        inside += ((idx >> u) & (idx >> v)) & 1
    size = np.zeros(1 << t.n, dtype=np.uint32)
    for v in range(t.n):
        size += (idx >> v) & 1
    connected = (size > 0) & (inside + 1 == size)
    return idx, connected


def _bfs_distances(t: Tree, src: int) -> list[int]:
    dist = [-1] * t.n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in t.adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def oracle_counts(t: Tree) -> CountReport:
    """CountReport computed the slow, obviously-correct way (n <= 20)."""
    import numpy as np
    idx, connected = _connectivity_table(t)
    leaf_mask = 0
    for v in range(t.n):
        if len(t.adj[v]) <= 1:
            leaf_mask |= 1 << v
    total = int(np.count_nonzero(connected))
    leafy = int(np.count_nonzero(connected & ((idx & np.uint32(leaf_mask)) != 0)))
    f = {}
    fstar = {}
    for v in range(t.n):
        has_v = connected & (((idx >> v) & 1) == 1)
        f[v] = int(np.count_nonzero(has_v))
        if t.n >= 2:
            others = np.uint32(leaf_mask & ~(1 << v))
            fstar[v] = int(np.count_nonzero(has_v & ((idx & others) != 0)))
    wiener = sum(sum(_bfs_distances(t, v)) for v in range(t.n)) // 2
    return CountReport(n=t.n, F=total, Fstar=leafy, wiener=wiener,
                       f_vertex=f, fstar_vertex=fstar)


def oracle_pair_count(t: Tree, u: int, v: int) -> int:
    """Number of connected subsets containing both u and v, by enumeration."""
    import numpy as np
    if u == v:
        raise ValueError("anchors must be distinct")
    idx, connected = _connectivity_table(t)
    both = (((idx >> u) & 1) == 1) & (((idx >> v) & 1) == 1)
    return int(np.count_nonzero(connected & both))
