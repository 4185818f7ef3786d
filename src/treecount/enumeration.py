"""Generation of all non-isomorphic trees of a given order.

The generator walks canonical level sequences with the constant-amortized-time
successor method for free trees (Wright-Richmond-Odlyzko-McKay): rooted level
sequences are stepped in decreasing lexicographic order, and a candidate is a
valid free-tree representative exactly when the root's first principal subtree
is no taller / no bigger / no larger lexicographically than the rest of the
tree.  Invalid prefixes, and the runs another shard takes, are skipped in
one jump, so no isomorphism deduplication is ever needed.  The stream of
one order is strictly decreasing, so the streams of a sharded order merge
back into it by comparing the sequences themselves.

Random labeled trees (uniform over labeled, not unlabeled, trees -- adequate
for sampled property checks) come from random Pruefer sequences.
"""

from __future__ import annotations

import os
import random
from itertools import chain
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


def _second_child(seq: Sequence[int]) -> int:
    """Position of the root's second child (len(seq) if it has none)."""
    return seq.index(1, 2) if 1 in seq[2:] else len(seq)


def _jump(seq: list[int], p: int) -> list[int]:
    """The first free-tree sequence after every sequence that shares seq's
    first principal subtree, which ends at position ``p``."""
    nxt = _next_rooted(seq, p)
    if seq[p] > 2:
        # the rest ends on a path exactly as deep as the new first principal subtree
        depth = max(nxt[1:_second_child(nxt)])
        nxt[-depth:] = range(1, depth + 1)
    return nxt


def _run(seq: list[int], end: int) -> Iterator[tuple[int, ...]]:
    """The run that begins at ``seq``, whose first principal subtree ends at
    position ``end``: seq and its successors up to the first that would
    rewrite that subtree or whose rest falls below it."""
    # (height, size, sequence) of the run's first principal subtree: a
    # successor that keeps it is a free-tree sequence iff its rest is no smaller
    left = [d - 1 for d in seq[1:end + 1]]
    first = (max(left, default=0), end, left)
    while True:
        yield tuple(seq)
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
        if p <= end:   # no successor keeps the first principal subtree (p == 0: none at all)
            return
        seq = _next_rooted(seq, p)
        rest = [0, *seq[end + 1:]]
        if (max(rest), len(rest), rest) < first:
            return


def _runs(n: int, shard: int = 0, shards: int = 1) -> Iterator[Iterator[tuple[int, ...]]]:
    """Runs shard, shard + shards, ... of the order-n level sequences, each an
    independent lazy stream.  A run is a maximal block of sequences sharing
    one first principal subtree; the next run starts one jump from a run's
    first sequence, and none follows the star's.  The callers check n."""
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))   # the path
    r = 0
    while seq is not None:
        end = _second_child(seq) - 1
        if r % shards == shard:
            yield _run(seq, end)
        seq = _jump(seq, end) if end > 1 else None
        r += 1


def all_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical level sequences of all non-isomorphic trees on n vertices,
    in strictly decreasing lexicographic order; an order outside
    1..MAX_ORDER is refused at the call, before any output."""
    if n < 1 or n > MAX_ORDER:
        raise TooLargeError(f"order {n} outside 1..{MAX_ORDER}")
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


# The process's branch summaries, each a pure function of its branch's slice
# of the sequence, so no record depends on the table; a forked shard inherits
# it.  Only branches of at most _CACHED_BRANCH vertices enter, so over the
# process's lifetime it holds at most 7,813 entries for generator sequences,
# the only ones the package passes (the rooted trees on 1..12 vertices,
# A000081), and at most 82,500 for any valid input (the level sequences of
# at most 12 vertices).  Orders 17..20 fill 7,021, about 2 MB; uncapped it
# would hold 24,881, about 8 MB, to save about 5% of the record's time.
_CACHED_BRANCH = 12
_BRANCHES: dict = {}


def _join(parts: Sequence[tuple], rooted: bool) -> tuple:
    """What a vertex, with a parent when ``rooted``, hands that parent from
    what its child branches handed it (sums, counts and maxima over its
    branch):

        (g + 1, h + 1, sum of g, sum of h, matching, vertex still free,
         domination, vertex not dominated from below, vertex taken,
         leaves, largest degree, height + 1, longest path)

    The record's rules are stated here only, each the step of a reference
    route: the product passes of ``counting`` (g the product of the
    children's g + 1, h likewise but 0 on a leaf, giving the stem), the
    free-parent matching greedy and the Cockayne-Goodman-Hedetniemi
    domination greedy of ``invariants``, and the top two child heights,
    whose sum peaks at the longest path.  A vertex is a leaf with at most
    one neighbour and its degree counts its parent; it matches a free
    child, and takes itself when a child is not dominated from below or,
    with no parent, when nothing dominates it.
    """
    g = h = 1
    F = H = matching = domination = leaves = longest = top = second = 0
    degree = own = len(parts) + rooted
    matched = undominated = dominated = False
    for bg, bh, bF, bH, bm, bfree, bd, bundom, btaken, bleaves, bdeg, up, blong in parts:
        g *= bg
        h *= bh
        F += bF
        H += bH
        matching += bm
        matched = matched or bfree
        domination += bd
        undominated = undominated or bundom
        dominated = dominated or btaken
        leaves += bleaves
        if bdeg > degree:
            degree = bdeg
        if blong > longest:
            longest = blong
        if up > top:
            second = top
            top = up
        elif up > second:
            second = up
    taken = undominated or not (dominated or rooted)
    if own <= 1:   # a leaf
        h = 0
        leaves += 1
    if top + second > longest:
        longest = top + second
    return (g + 1, h + 1, F + g, H + h, matching + matched, not matched,
            domination + taken, not (taken or dominated), taken,
            leaves, degree, top + 1, longest)


_LEAF = _join((), True)


def _branch(s: tuple[int, ...]) -> tuple:
    """The ``_join`` summary of the rooted branch with level sequence ``s``,
    its root at s[0] with a parent one level up.  Each vertex hangs below
    the last vertex seen one level up, so read backwards, the summaries
    waiting one level below a vertex are its children's: it joins them (a
    leaf hands on ``_LEAF``) and waits at its own level, with no recursion."""
    below = [[] for _ in range(max(s) + 2)]   # summaries waiting at each level
    for d in reversed(s):
        kids = below[d + 1]
        if kids:
            below[d + 1] = []
            below[d].append(_join(kids, True))
        else:
            below[d].append(_LEAF)
    return below[s[0]][0]


def tree_record(seq: Sequence[int]) -> TreeRecord:
    """The TreeRecord of the tree with this (valid) level sequence, without
    building a Tree: the root, with no parent, joins the ``_branch`` summary
    of each principal branch (the root's children are the entries at level
    1), one of at most ``_CACHED_BRANCH`` vertices made once per process and
    read back from ``_BRANCHES`` after that."""
    seq = tuple(seq)
    n = len(seq)
    kids = seq.count(1)
    parts = []
    i = 1
    for b in range(kids):
        j = seq.index(1, i + 1) if b < kids - 1 else n
        key = seq[i:j]
        part = _BRANCHES.get(key)
        if part is None:
            part = _branch(key)
            if j - i <= _CACHED_BRANCH:
                _BRANCHES[key] = part
        parts.append(part)
        i = j
    _, _, F, H, matching, _, domination, _, _, leaves, degree, _, diameter = _join(parts, False)
    return TreeRecord(n, F, F - H, matching, domination, diameter, leaves, degree)


def map_shards(fn: Callable[[Iterator[tuple[int, ...]]], _R],
               orders: Sequence[int], jobs: int) -> list[list[_R]]:
    """``[[fn(the level sequences of shard s of order n) for s in range(w)]
    for n in orders]`` with ``w = min(jobs, os.cpu_count())``.

    Shard s gets runs s, s + w, s + 2w, ... of the generator (see ``_runs``)
    as one stream in generation order, so strictly decreasing like the
    whole stream.  This process computes shard 0 of every order; each other
    shard is one forked child, which inherits ``fn`` with all it closes
    over, computes its shard of every order and sends back the list, or the
    exception ``fn`` raised, through its own pipe, so with ``w > 1`` both
    must pickle.  On any error every child still running is killed and
    reaped before it is raised.
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
            pid, pipe = _fork_shard(fn, orders, shard, shards)
            children[pid] = pipe
        parts = [[fn(chain.from_iterable(_runs(n, 0, shards)))] for n in orders]
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


def _fork_shard(fn: Callable, orders: Sequence[int], shard: int,
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
                reply = (True, [fn(chain.from_iterable(runs(n))) for n in orders])
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
    return tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])
