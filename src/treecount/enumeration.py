"""Generation of all non-isomorphic trees of a given order.

The generator walks canonical level sequences with the constant-amortized-time
successor method for free trees (Wright-Richmond-Odlyzko-McKay): rooted level
sequences are stepped in decreasing lexicographic order, and a candidate is a
valid free-tree representative exactly when the root's first principal subtree
is no taller / no bigger / no larger lexicographically than the rest of the
tree.  Invalid prefixes, and the runs another shard takes, are skipped in
one jump, so no isomorphism deduplication is ever needed.

Random labeled trees (uniform over labeled, not unlabeled, trees -- adequate
for sampled property checks) come from random Pruefer sequences.
"""

from __future__ import annotations

import os
import random
from itertools import chain
from operator import add
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .tree import Tree, tree_from_level_sequence

MAX_ORDER = 24

_R = TypeVar("_R")


class TooLargeError(ValueError):
    """Requested order beyond the enumeration cap."""


def _next_rooted(seq: list[int], p: int) -> list[int]:
    """Successor of a rooted-tree level sequence in decreasing lex order,
    with ``p`` the position whose value must decrease (the last entry
    exceeding 1 for the plain successor)."""
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split(seq: Sequence[int]) -> tuple[list[int], list[int]]:
    """(first principal subtree re-rooted at depth 0, remainder of the tree)."""
    m = seq.index(1, 2) if 1 in seq[2:] else len(seq)   # the root's second child
    return [d - 1 for d in seq[1:m]], [0, *seq[m:]]


def _jump(seq: list[int], p: int) -> list[int]:
    """The first free-tree sequence after every sequence that shares seq's
    first principal subtree, which ends at position ``p``."""
    nxt = _next_rooted(seq, p)
    if seq[p] > 2:
        # the rest ends on a path exactly as deep as the new first principal subtree
        height = max(_split(nxt)[0])
        nxt[-height - 1:] = range(1, height + 2)
    return nxt


def _next_free(candidate: list[int]) -> list[int]:
    """Validate a rooted candidate as a free tree, jumping ahead if not."""
    left, rest = _split(candidate)
    # (height, size, sequence) of the rest against the first principal subtree
    if (max(rest), len(rest), rest) >= (max(left), len(left), left):
        return candidate
    return _jump(candidate, len(left))


def _run(start: list, end: int) -> Iterator[tuple[int, ...]]:
    """The run that begins at ``start[0]``, whose first principal subtree
    ends at position ``end``; leaves the next run's first sequence (None
    after the star, the last tree) in ``start[0]``."""
    seq = start[0]
    # (height, size, sequence) of the run's first principal subtree: a
    # successor that keeps it is a free-tree sequence iff its rest is no smaller
    left = [d - 1 for d in seq[1:end + 1]]
    first = (max(left, default=0), end, left)
    while True:
        yield tuple(seq)
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
        if p == 0:
            start[0] = None
            return
        seq = _next_rooted(seq, p)
        if p <= end:   # the successor rewrote the first principal subtree
            start[0] = _next_free(seq)
            return
        rest = [0, *seq[end + 1:]]
        if (max(rest), len(rest), rest) < first:
            start[0] = _jump(seq, end)
            return


def _runs(n: int, shard: int = 0, shards: int = 1) -> Iterator[Iterator[tuple[int, ...]]]:
    """Runs shard, shard + shards, ... of the order-n level sequences, each a
    lazy stream.  A run is a maximal block of sequences sharing one first
    principal subtree; another shard's run is passed in one jump."""
    if n < 1 or n > MAX_ORDER:
        raise TooLargeError(f"order {n} outside 1..{MAX_ORDER}")
    start = [list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))]   # the path
    r = 0
    while start[0] is not None:
        end = len(_split(start[0])[0])
        if r % shards == shard:
            run = _run(start, end)
            yield run
            for _ in run:   # whatever the consumer left unread
                pass
        else:
            start[0] = _jump(start[0], end) if end > 1 else None
        r += 1


def merge_runs(parts: Sequence[Sequence[_R]]) -> list[_R]:
    """One result per run from each shard of one order, back in generation
    order: run r is item ``r // w`` of shard ``r % w`` of w."""
    w = len(parts)
    return [parts[r % w][r // w] for r in range(sum(map(len, parts)))]


def all_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical level sequences of all non-isomorphic trees on n vertices."""
    return chain.from_iterable(_runs(n))


def all_trees(n: int) -> Iterator[Tree]:
    """One Tree per isomorphism class on n vertices, in a deterministic order."""
    for seq in all_level_sequences(n):
        yield tree_from_level_sequence(seq)


class TreeRecord(NamedTuple):
    """Every quantity the theorem scan reads off one tree."""

    n: int
    F: int
    Fstar: int
    matching: int
    domination: int
    diameter: int
    leaves: int
    max_degree: int


def tree_record(seq: Sequence[int]) -> TreeRecord:
    """The TreeRecord of the tree with this (valid) level sequence, in one
    leaves-up pass and without building a Tree.

    Vertex i of a preorder depth sequence hangs below the last vertex seen
    one level up, so every child has a larger index than its parent and
    ``range(n - 1, 0, -1)`` visits children first.  Each step is the loop
    body of a reference route: the product passes of ``counting`` (g seeded
    1; h seeded 1 and zeroed on leaves, giving the stem), the free-parent
    matching greedy and the Cockayne-Goodman-Hedetniemi domination greedy of
    ``invariants``, and the top two child heights of each vertex, whose sum
    peaks at the diameter.
    """
    n = len(seq)
    parent = [-1] * n
    last = [0] * n
    for i in range(1, n):
        d = seq[i]
        parent[i] = last[d - 1]
        last[d] = i
    g = [1] * n
    h = [1] * n
    kids = [0] * n
    free = [True] * n
    taken = [False] * n
    # dominated_below[v]: v or a child of v is taken; the root's parent -1
    # indexes the spare last slot
    dominated_below = [False] * (n + 1)
    high = [0] * n   # height of the subtree at v
    low = [0] * n    # second largest child height + 1 (0 with fewer than two children)
    matching = domination = leaves = 0
    for v in range(n - 1, 0, -1):
        p = parent[v]
        if not kids[v]:
            h[v] = 0
            leaves += 1
        kids[p] += 1
        g[p] *= g[v] + 1
        h[p] *= h[v] + 1
        if free[v] and free[p]:
            free[v] = free[p] = False
            matching += 1
        if not (dominated_below[v] or taken[p]):
            taken[p] = dominated_below[p] = dominated_below[parent[p]] = True
            domination += 1
        up = high[v] + 1
        if up > high[p]:
            low[p] = high[p]
            high[p] = up
        elif up > low[p]:
            low[p] = up
    if kids[0] <= 1:   # the root is a leaf
        h[0] = 0
        leaves += 1
    if not dominated_below[0]:
        domination += 1
    F = sum(g)
    return TreeRecord(n, F, F - sum(h), matching, domination,
                      max(map(add, high, low)), leaves,
                      max(max(kids[1:], default=-1) + 1, kids[0]))


def map_shards(fn: Callable[[object, Iterator[Iterator[tuple[int, ...]]]], _R], arg: object,
               orders: Sequence[int], jobs: int) -> list[list[_R]]:
    """``[[fn(arg, the runs of shard s of order n) for s in range(w)]
    for n in orders]`` with ``w = min(jobs, os.cpu_count())``.

    Shard s gets runs s, s + w, s + 2w, ... (see ``_runs``); merge_runs puts
    per-run results back in generation order.  This process computes shard
    0 of every order; each other shard is one forked child that computes its
    shard of every order and sends back the list, or the exception ``fn``
    raised, through its own pipe, so with ``w > 1`` both must pickle.  On any
    error every child still running is killed and reaped before it is raised.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for n in orders:
        if n < 1 or n > MAX_ORDER:
            raise TooLargeError(f"order {n} outside 1..{MAX_ORDER}")
    shards = min(jobs, os.cpu_count() or 1)
    children = {}   # pid -> read end of its pipe, for every child not yet reaped
    try:
        for shard in range(1, shards):
            pid, pipe = _fork_shard(fn, arg, orders, shard, shards)
            children[pid] = pipe
        parts = [[fn(arg, _runs(n, 0, shards))] for n in orders]
        for shard, pid in enumerate(list(children), 1):
            with children[pid] as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if not data:
                raise RuntimeError(f"shard {shard} of {shards} ended with no result "
                                   f"(exit status {status})")
            import pickle
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            for order_parts, part in zip(parts, result):
                order_parts.append(part)
    finally:
        # only an error leaves a child unreaped here
        for pid, pipe in children.items():
            from signal import SIGKILL
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return parts


def _fork_shard(fn: Callable, arg: object, orders: Sequence[int], shard: int,
                shards: int) -> tuple[int, BinaryIO]:
    """Fork a child that pickles ``(True, results)`` or ``(False, exception)``
    for this shard of every order into a pipe; (its pid, the read end)."""
    # loaded here, so that a command which forks nothing does not load it
    import pickle
    caller = os.getpid()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's stack and flushes none of
        # its buffers; it leaves with status 1 and nothing written on failure,
        # and before a run once the caller has gone (it has a new parent then)
        def runs(n):
            for run in _runs(n, shard, shards):
                if os.getppid() != caller:
                    os._exit(1)
                yield run

        try:
            os.close(read_end)
            try:
                reply = (True, [fn(arg, runs(n)) for n in orders])
            except Exception as exc:
                reply = (False, exc)
            with open(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    return pid, open(read_end, "rb")


class TreeConstraint(NamedTuple):
    """Optional structural requirements; None fields are unconstrained."""

    matching: int | None = None
    domination: int | None = None
    diameter: int | None = None
    leaves: int | None = None
    min_max_degree: int | None = None
    perfect_matching: bool | None = None

    def admits(self, rec: TreeRecord) -> bool:
        """Whether the tree with this record meets every set field."""
        return ((self.matching is None or rec.matching == self.matching)
                and (self.domination is None or rec.domination == self.domination)
                and (self.diameter is None or rec.diameter == self.diameter)
                and (self.leaves is None or rec.leaves == self.leaves)
                and (self.min_max_degree is None or rec.max_degree >= self.min_max_degree)
                and (self.perfect_matching is None
                     or (2 * rec.matching == rec.n) == self.perfect_matching))

    def select(self, seqs: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
        """The level sequences whose trees the constraint admits, read off
        their tree_record; with no field set, every sequence and no record."""
        if self == TreeConstraint():
            return iter(seqs)
        return (seq for seq in seqs if self.admits(tree_record(seq)))


def trees_matching(n: int, constraint: TreeConstraint) -> Iterator[Tree]:
    """All non-isomorphic trees on n vertices satisfying the constraint."""
    return map(tree_from_level_sequence, constraint.select(all_level_sequences(n)))


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
