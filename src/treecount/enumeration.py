"""Generation of all non-isomorphic trees of a given order.

The generator walks canonical level sequences with the constant-amortized-time
successor method for free trees (Wright-Richmond-Odlyzko-McKay): rooted level
sequences are stepped in decreasing lexicographic order, and a candidate is a
valid free-tree representative exactly when the root's first principal subtree
is no taller / no bigger / no larger lexicographically than the rest of the
tree.  Invalid prefixes are skipped in one jump, so no isomorphism
deduplication is ever needed.

Random labeled trees (uniform over labeled, not unlabeled, trees -- adequate
for sampled property checks) come from random Pruefer sequences.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

from . import invariants
from .tree import Tree, tree_from_level_sequence

MAX_ORDER = 24

_R = TypeVar("_R")


class TooLargeError(ValueError):
    """Requested order beyond the enumeration cap."""


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Successor of a rooted-tree level sequence in decreasing lex order.

    ``p`` may pin the position whose value must decrease; by default it is
    the last entry exceeding 1.  Returns None after the star [0,1,...,1].
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split(seq: Sequence[int]) -> tuple[list[int], list[int]]:
    """(first principal subtree re-rooted at depth 0, remainder of the tree)."""
    m = len(seq)
    seen_one = False
    for i, d in enumerate(seq):
        if d == 1:
            if seen_one:
                m = i
                break
            seen_one = True
    left = [seq[i] - 1 for i in range(1, m)]
    rest = [0] + list(seq[m:])
    return left, rest


def _next_free(candidate: list[int]) -> list[int] | None:
    """Validate a rooted candidate as a free tree, jumping ahead if not."""
    left, rest = _split(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    nxt = _next_rooted(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split(nxt)
        suffix = list(range(1, max(new_left) + 2))
        nxt[-len(suffix):] = suffix
    return nxt


def all_level_sequences(n: int, max_order: int = MAX_ORDER) -> Iterator[tuple[int, ...]]:
    """Canonical level sequences of all non-isomorphic trees on n vertices."""
    if n < 1 or n > max_order:
        raise TooLargeError(f"order {n} outside 1..{max_order}")
    if n == 1:
        yield (0,)
        return
    layout: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_free(layout)
        if layout is None:
            return
        yield tuple(layout)
        layout = _next_rooted(layout)


def all_trees(n: int, max_order: int = MAX_ORDER) -> Iterator[Tree]:
    """One Tree per isomorphism class on n vertices, in a deterministic order."""
    for seq in all_level_sequences(n, max_order):
        yield tree_from_level_sequence(seq)


def all_trees_sharded(n: int, shard: int, jobs: int,
                      max_order: int = MAX_ORDER) -> Iterator[Tree]:
    """Round-robin shard of all_trees: the trees with emission index = shard mod jobs."""
    if not (jobs >= 1 and 0 <= shard < jobs):
        raise ValueError(f"bad shard {shard}/{jobs}")
    for i, seq in enumerate(all_level_sequences(n, max_order)):
        if i % jobs == shard:
            yield tree_from_level_sequence(seq)


def map_shards(fn: Callable[[object, Iterator[Tree]], _R], arg: object, n: int,
               jobs: int, max_order: int = MAX_ORDER) -> list[_R]:
    """``[fn(arg, all_trees_sharded(n, s, jobs)) for s in range(jobs)]``.

    With ``jobs > 1`` the shards run in a pool of ``jobs`` forked workers, so
    ``fn`` must be a module-level function and ``arg`` and the results must
    pickle.  The i-th tree of shard s is tree ``i * jobs + s`` of all_trees.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(fn, arg, n, shard, jobs, max_order) for shard in range(jobs)]
    if jobs == 1:
        return [_run_shard(tasks[0])]
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        return pool.map(_run_shard, tasks)


def _run_shard(task: tuple) -> object:
    fn, arg, n, shard, jobs, max_order = task
    return fn(arg, all_trees_sharded(n, shard, jobs, max_order))


@dataclass(frozen=True)
class TreeConstraint:
    """Optional structural requirements; None fields are unconstrained."""

    matching: int | None = None
    domination: int | None = None
    diameter: int | None = None
    leaves: int | None = None
    min_max_degree: int | None = None
    perfect_matching: bool | None = None

    def admits(self, t: Tree) -> bool:
        if self.leaves is not None and len(t.leaves()) != self.leaves:
            return False
        if self.min_max_degree is not None:
            if max(len(a) for a in t.adj) < self.min_max_degree:
                return False
        if self.diameter is not None and invariants.diameter(t) != self.diameter:
            return False
        if self.matching is not None and invariants.matching_number(t) != self.matching:
            return False
        if self.domination is not None and invariants.domination_number(t) != self.domination:
            return False
        if self.perfect_matching is not None:
            if invariants.has_perfect_matching(t) != self.perfect_matching:
                return False
        return True


def trees_matching(n: int, constraint: TreeConstraint,
                   max_order: int = MAX_ORDER) -> Iterator[Tree]:
    """All non-isomorphic trees on n vertices satisfying the constraint."""
    for t in all_trees(n, max_order):
        if constraint.admits(t):
            yield t


def tree_from_prufer(seq: Sequence[int]) -> Tree:
    """Decode a Pruefer sequence over labels 0..n-1 (n = len(seq) + 2)."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        if not (0 <= v < n):
            raise ValueError(f"entry {v} outside 0..{n - 1}")
        degree[v] += 1
    edges = []
    # pointer scan: leaf = smallest label of degree 1 not yet consumed
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return Tree(n, edges)


def random_labeled_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labeled tree on n vertices via a random Pruefer sequence."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return Tree(1, [])
    if n == 2:
        return Tree(2, [(0, 1)])
    return tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])
