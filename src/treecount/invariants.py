"""The counts that carve out tree classes: matching number, domination
number, diameter and whether a perfect matching exists, each from the
tree's one rooting, and a one-call profile of them.  Every class is cut by
a count, so no function here returns a witness set."""

from __future__ import annotations

from typing import NamedTuple

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


def matching_number(t: Tree) -> int:
    """Maximum number of pairwise nonincident edges.

    Children first (the rooting lists parents first and is read backwards):
    a vertex still free takes its parent when the parent is free too.  By
    then no child of it is free, so it is a leaf of what remains, and some
    maximum matching pairs a leaf with its neighbour.
    """
    order, parent = t.rooting
    free = [True] * t.n
    q = 0
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and free[v] and free[p]:
            free[v] = free[p] = False
            q += 1
    return q


def has_perfect_matching(t: Tree) -> bool:
    """Whether some matching covers every vertex."""
    return 2 * matching_number(t) == t.n


def domination_number(t: Tree) -> int:
    """Minimum size of a set whose closed neighborhood covers every vertex.

    Cockayne-Goodman-Hedetniemi greedy, children first: a vertex nobody
    dominates yet puts its parent in the set (or itself, at the root).  All
    below it is dominated by then, so the parent covers all that it or a
    child could.
    """
    order, parent = t.rooting
    taken = [False] * t.n
    # covered[v]: v or a child of v is taken; the root's parent -1 indexes
    # the spare last slot
    covered = [False] * (t.n + 1)
    count = 0
    for v in order[:0:-1]:   # every vertex but the root, children first
        p = parent[v]
        if not (covered[v] or taken[p]):
            taken[p] = covered[p] = covered[parent[p]] = True
            count += 1
    return count + (not covered[0])


def diameter(t: Tree) -> int:
    """Maximum eccentricity, from the tree's rooting."""
    return diameter_and_centers(t)[0]


def invariant_profile(t: Tree) -> InvariantProfile:
    q = matching_number(t)
    d, cs = diameter_and_centers(t)
    degrees = list(map(len, t.adj))
    return InvariantProfile(
        matching=q,
        domination=domination_number(t),
        diameter=d,
        leaf_count=degrees.count(1) + (t.n == 1),  # the lone vertex counts as a leaf
        max_degree=max(degrees),
        centers=cs,
        has_perfect_matching=2 * q == t.n,
    )
