"""Exact subtree counters.

A subtree is a nonempty connected induced subgraph.  All counts are exact
Python integers; star-like trees push them past 64 bits quickly, so nothing
here may silently wrap.

Every count comes from one rooting, the tree's own (``Tree.rooting``) unless
the count is anchored at another vertex: a product pass folds the
per-vertex counts upward, and a reroot pass carries them back down to every
vertex.
Seeding the leaves with 0 instead of 1 restricts both passes to the stem
(the tree minus its leaves), so no sub-tree is ever built.

Conventions at the smallest orders: the vertex of a one-vertex tree counts as
a leaf, and the stem of a tree on <= 2 vertices is empty with subtree count 0.
Under these, every subtree of a 1- or 2-vertex tree contains a leaf.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .tree import LabelOutOfRangeError, Tree, preorder


class CountReport(NamedTuple):
    """All per-tree counts: totals, per-vertex anchored counts, Wiener index."""

    n: int
    F: int
    Fstar: int
    wiener: int
    f_vertex: dict[int, int]
    fstar_vertex: dict[int, int]

    def to_json_dict(self) -> dict:
        """JSON form with counts as decimal strings (arbitrary precision)."""
        return {
            "n": self.n,
            "F": str(self.F),
            "Fstar": str(self.Fstar),
            "W": str(self.wiener),
            "f": {str(v): str(c) for v, c in sorted(self.f_vertex.items())},
            "fstar": {str(v): str(c) for v, c in sorted(self.fstar_vertex.items())},
        }


# Counts below one machine word multiply and add in constant time.  The star
# has the most subtrees of any tree of its order (Szekely-Wang 2005), and the
# star on 64 vertices has 2^63 + 63 < 2^64, so no count of a tree on at most
# _SMALL_ORDER vertices reaches a word.
_WORD = 1 << 64
_SMALL_ORDER = 64


def _products(order: Sequence[int], parent: Sequence[int], g: list[int]) -> list[int]:
    """Fold g (1 on counted vertices, 0 elsewhere) upward, in place.

    ``order`` lists parents before their children; read backwards, it folds
    every child into its parent before the parent is read.  Afterwards g[v]
    is the number of subtrees of counted vertices whose vertex closest to
    the root is v.

    Multiplying a hub's growing count by one small factor per child would
    copy the big integer once per child.  So once a count reaches a word,
    its later child factors are held back, packed into products of about a
    word each, and multiplied in as one balanced product when the pass
    reaches the vertex itself.
    """
    if len(order) <= _SMALL_ORDER:
        for v in reversed(order):
            p = parent[v]
            if p >= 0:
                g[p] *= g[v] + 1
        return g
    held: dict[int, list[int]] = {}
    for v in reversed(order):
        x = g[v]
        if x >= _WORD and v in held:
            x = g[v] = x * _balanced_product(held.pop(v))
        p = parent[v]
        if p >= 0:
            if g[p] < _WORD:
                g[p] *= x + 1
            else:
                factors = held.get(p)
                if factors is None:
                    held[p] = [x + 1]
                elif factors[-1] < _WORD:
                    factors[-1] *= x + 1
                else:
                    factors.append(x + 1)
    return g


def _balanced_product(xs: list[int]) -> int:
    """Product of xs (consumed) by pairs, so each level's operands are of
    like size."""
    while len(xs) > 1:
        if len(xs) % 2:
            xs.append(1)
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])]
    return xs[0]


def _sum_counts(g: list[int], bound: int) -> int:
    """Sum of g, whose entries are at most bound.  Past a word, g is sorted
    in place and added in ascending order, so the running total stays small
    until the end: a plain left fold copies a huge early total once per
    later entry."""
    if bound < _WORD:
        return sum(g)
    g.sort()
    return sum(g)


def _reroot(order: Sequence[int], parent: Sequence[int], g: list[int]) -> list[int]:
    """f[v] = number of subtrees (of counted vertices) containing v, filled in
    parents first along ``order``.

    f[p] // (g[c] + 1) counts those through p that avoid its child c; the
    division is exact because g[c] + 1 is a factor of f[p].
    """
    f = g[:]
    for c in order[1:]:
        f[c] = g[c] * (f[parent[c]] // (g[c] + 1) + 1)
    return f


def _stem(t: Tree) -> list[int]:
    """1 on every non-leaf vertex, 0 on every leaf."""
    return [1 if len(a) > 1 else 0 for a in t.adj]


def _check_vertex(t: Tree, *vs: int) -> None:
    for v in vs:
        if not (0 <= v < t.n):
            raise LabelOutOfRangeError(f"vertex {v} outside 0..{t.n - 1}")


def subtree_totals(t: Tree) -> tuple[int, int]:
    """(F, F*) of t from its rooting."""
    F = count_subtrees(t)
    order, parent = t.rooting
    stem = _products(order, parent, _stem(t))
    return F, F - _sum_counts(stem, F)


def anchored_counts(t: Tree) -> tuple[list[int], list[int] | None]:
    """(f, f*): the anchored counts of every vertex from the tree's rooting
    and two reroots; f* is None on a one-vertex tree, where it is undefined.

    f*(v) = f(v) - f_stem(v) for an internal v.  A subtree through a leaf v
    that avoids every other leaf is {v} or v plus a stem subtree through its
    neighbour, so f*(v) = f(v) - 1 - f_stem(neighbour) there.
    """
    order, parent = t.rooting
    stem = _stem(t)
    f = _reroot(order, parent, _products(order, parent, [1] * t.n))
    if t.n < 2:
        return f, None
    f_stem = _reroot(order, parent, _products(order, parent, stem[:]))
    fstar = [f[v] - f_stem[v] if stem[v] else f[v] - 1 - f_stem[t.adj[v][0]]
             for v in range(t.n)]
    return f, fstar


def count_subtrees(t: Tree) -> int:
    """Total number of subtrees F(t)."""
    order, parent = t.rooting
    g = _products(order, parent, [1] * t.n)
    return _sum_counts(g, g[0])  # the root's count is the largest


def count_subtrees_at(t: Tree, v: int) -> int:
    """Number of subtrees containing v."""
    _check_vertex(t, v)
    order, parent = preorder(t, v)
    return _products(order, parent, [1] * t.n)[v]


def count_subtrees_at_pair(t: Tree, u: int, v: int) -> int:
    """Number of subtrees containing both u and v (u != v).

    Such a subtree contains the whole u-v path.  Rooted at u, it is a subtree
    topped at v extended, at each path vertex p above v, by a subtree through
    p that avoids the path child.
    """
    _check_vertex(t, u, v)
    if u == v:
        raise ValueError("anchors must be distinct")
    order, parent = preorder(t, u)
    g = _products(order, parent, [1] * t.n)
    count = g[v]
    while v != u:
        p = parent[v]
        count *= g[p] // (g[v] + 1)
        v = p
    return count


def count_leaf_subtrees(t: Tree) -> int:
    """Number of subtrees containing at least one leaf of t.

    Equals F(t) minus the subtree count of the stem (0 when the stem is
    empty, i.e. n <= 2).
    """
    return subtree_totals(t)[1]


def count_leaf_subtrees_at(t: Tree, v: int) -> int:
    """Number of subtrees containing v and at least one leaf other than v.

    Undefined on a one-vertex tree.  Computed as the anchored count at v
    minus the anchored count over the non-leaf vertices plus v itself (the
    subtrees through v avoiding every other leaf).
    """
    if t.n < 2:
        raise ValueError("needs at least two vertices")
    _check_vertex(t, v)
    order, parent = preorder(t, v)
    avoiding = _stem(t)
    avoiding[v] = 1
    return (_products(order, parent, [1] * t.n)[v]
            - _products(order, parent, avoiding)[v])


def wiener_index(t: Tree) -> int:
    """Sum of distances over all unordered vertex pairs.

    Each edge contributes (size of one side) * (size of the other side).
    """
    order, parent = t.rooting
    size = [1] * t.n
    total = 0
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            total += size[v] * (t.n - size[v])
    return total


def count_report(t: Tree) -> CountReport:
    """Full report: F, F*, Wiener index, and both per-vertex count maps.

    The per-vertex leaf-anchored map is empty for n = 1, where the quantity
    is undefined.
    """
    F, Fstar = subtree_totals(t)
    f, fstar = anchored_counts(t)
    return CountReport(
        n=t.n,
        F=F,
        Fstar=Fstar,
        wiener=wiener_index(t),
        f_vertex=dict(enumerate(f)),
        fstar_vertex={} if fstar is None else dict(enumerate(fstar)),
    )
