"""Matching number, domination number, perfect matchings, and a one-call
profile of the structural invariants used to carve out tree classes."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .tree import Tree, diameter_and_centers


class InvariantProfile(NamedTuple):
    matching: int
    domination: int
    diameter: int
    leaf_count: int
    max_degree: int
    centers: tuple[int, ...]
    has_perfect_matching: bool

    def to_json_dict(self) -> dict:
        return {
            "matching": self.matching,
            "domination": self.domination,
            "diameter": self.diameter,
            "leafCount": self.leaf_count,
            "maxDegree": self.max_degree,
            "centers": list(self.centers),
            "hasPerfectMatching": self.has_perfect_matching,
        }


def _matching(order: Sequence[int], parent: Sequence[int],
              free: list[bool]) -> list[tuple[int, int]]:
    """A maximum matching of the forest on the vertices marked free.

    Children first (``order`` lists parents first and is read backwards): a
    vertex still free takes its parent when the parent is free too.  By then
    no child of it is free, so it is a leaf of what remains, and some
    maximum matching pairs a leaf with its neighbour.
    """
    pairs = []
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and free[v] and free[p]:
            free[v] = free[p] = False
            pairs.append((p, v) if p < v else (v, p))
    return pairs


def matching_number(t: Tree) -> int:
    """Maximum number of pairwise nonincident edges."""
    order, parent = t.rooting
    return len(_matching(order, parent, [True] * t.n))


def maximum_matching(t: Tree) -> tuple[tuple[int, int], ...]:
    """One maximum matching, the lexicographically smallest as an edge list.

    Greedy over sorted edges, keeping an edge whenever some maximum matching
    extends the current choice through it.
    """
    order, parent = t.rooting
    q = len(_matching(order, parent, [True] * t.n))
    chosen: list[tuple[int, int]] = []
    alive = [True] * t.n
    for u, v in t.edges:
        if len(chosen) == q:
            break
        if not (alive[u] and alive[v]):
            continue
        alive[u] = alive[v] = False
        if len(chosen) + 1 + len(_matching(order, parent, alive[:])) == q:
            chosen.append((u, v))
        else:
            alive[u] = alive[v] = True
    return tuple(chosen)


def perfect_matching_edges(t: Tree) -> tuple[tuple[int, int], ...] | None:
    """The unique perfect matching of t, or None.

    A tree has at most one perfect matching, so it is the maximum matching
    whenever that covers every vertex.
    """
    order, parent = t.rooting
    pairs = _matching(order, parent, [True] * t.n)
    return tuple(sorted(pairs)) if 2 * len(pairs) == t.n else None


def has_perfect_matching(t: Tree) -> bool:
    return perfect_matching_edges(t) is not None


def _domination(t: Tree, order: Sequence[int], parent: Sequence[int],
                forced: Iterable[int] = ()) -> int:
    """Minimum dominating set size, with the forced vertices required in-set.

    Cockayne-Goodman-Hedetniemi greedy after taking the forced vertices:
    children first (``order`` lists parents first and is read backwards), a
    vertex nobody dominates yet puts its parent in the set (or itself, at
    the root).  All below it is dominated by then, so the parent covers all
    that it or a child could.
    """
    taken = set(forced)
    for v in reversed(order):
        if v not in taken and taken.isdisjoint(t.adj[v]):
            taken.add(v if parent[v] < 0 else parent[v])
    return len(taken)


def domination_number(t: Tree) -> int:
    """Minimum size of a set whose closed neighborhood covers every vertex."""
    order, parent = t.rooting
    return _domination(t, order, parent)


def minimum_dominating_set(t: Tree) -> tuple[int, ...]:
    """One minimum dominating set, lexicographically smallest by sorted labels."""
    order, parent = t.rooting
    gamma = _domination(t, order, parent)
    chosen: list[int] = []
    for v in range(t.n):
        if len(chosen) == gamma:
            break
        if _domination(t, order, parent, chosen + [v]) == gamma:
            chosen.append(v)
    return tuple(chosen)


def diameter(t: Tree) -> int:
    """Maximum eccentricity, from the tree's rooting."""
    return diameter_and_centers(t)[0]


def invariant_profile(t: Tree) -> InvariantProfile:
    order, parent = t.rooting
    q = len(_matching(order, parent, [True] * t.n))
    d, cs = diameter_and_centers(t)
    degrees = list(map(len, t.adj))
    return InvariantProfile(
        matching=q,
        domination=_domination(t, order, parent),
        diameter=d,
        leaf_count=degrees.count(1) + (t.n == 1),  # the lone vertex counts as a leaf
        max_degree=max(degrees),
        centers=cs,
        has_perfect_matching=(t.n % 2 == 0 and q == t.n // 2),
    )
