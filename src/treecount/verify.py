"""Exhaustive re-verification of the extremal theorems (tags T4.1-T4.8 plus
the order-n path/star bound L2star) and seeded property suites for the
rewrite lemmas.

Theorem checks enumerate *every* tree in the constraint class, take the
claimed extremum, and compare both the value (against the closed form) and
the extremizer set (against the constructed family member, with uniqueness
required exactly where the statement asserts it).  Runs are deterministic:
``jobs`` only sets how many shards of whole generator runs the enumeration
is split into, and reductions are associative with canonical-form
tie-breaking, so reports are byte-identical for any ``jobs`` and CPU count.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

from . import counting, invariants
from .enumeration import (MAX_ORDER, TreeRecord, map_shards, random_labeled_tree,
                          tree_record)
from .families import FamilySpec, _legged_path, closed_form, construct
from .transforms import (a_transform, b_transform, c_anchors, c_transform,
                         classify_c_anchor, is_pendant_path_component)
from .tree import (CanonicalForm, Tree, canonical_form, induced_subtree,
                   is_isomorphic, path_decomposition, serialize_tree,
                   tree_from_level_sequence)

class UnknownTagError(ValueError):
    """Tag is neither a known theorem nor a known lemma suite."""


class VerificationResult(NamedTuple):
    """Outcome of one check: a (theorem, n, parameter, quantity) cell or one
    lemma suite run."""

    theorem: str
    n: int | None
    constraint: dict
    claimed: int | None
    achieved: int | None
    extremizers: tuple[CanonicalForm, ...]
    expected: CanonicalForm | None
    passed: bool
    class_size: int | None = None
    counterexample: Tree | None = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "constraint": self.constraint,
            "claimed": None if self.claimed is None else str(self.claimed),
            "achieved": None if self.achieved is None else str(self.achieved),
            "extremizers": [list(c.level_seq) for c in self.extremizers],
            "expected": None if self.expected is None else list(self.expected.level_seq),
            "pass": self.passed,
            "classSize": self.class_size,
            "counterexample": (None if self.counterexample is None
                               else serialize_tree(self.counterexample)),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# the theorem catalog
# ---------------------------------------------------------------------------

class _Theorem(NamedTuple):
    """One catalog statement: over the n-vertex trees of each class, the
    class's family member attains the extremum of every quantity."""

    keys: Callable[[TreeRecord], tuple]   # the classes a tree falls in; () skips it
    quantities: tuple[str, ...]     # TreeRecord fields
    extremum: str | None            # "max" or "min"; None: the class key names it
    # (row constraint, class key, family member) for each class of order n
    classes: Callable[[int], list[tuple[dict, object, FamilySpec]]]
    unique: bool                    # the member must be the only extremizer
    default_range: tuple[int, int]
    min_order: int                  # smallest order the statement and its closed forms cover
    threshold: bool = False         # class k holds every tree whose key is >= k
    even_only: bool = False


def _pk_ab(n: int) -> FamilySpec:
    a = (n - 4) // 2
    return FamilySpec("pk_ab", k=4, a=a, b=n - 4 - a)


_THEOREMS = {
    "T4.1": _Theorem(
        keys=lambda r: (r.matching,), quantities=("F", "Fstar"),
        extremum="max", unique=True, default_range=(4, 14), min_order=3,
        classes=lambda n: [({"q": q}, q, FamilySpec("a_nq", n=n, q=q))
                           for q in range(1, n // 2 + 1)]),
    "T4.2": _Theorem(
        keys=lambda r: (r.domination,), quantities=("F", "Fstar"),
        extremum="max", unique=False, default_range=(4, 14), min_order=3,
        classes=lambda n: [({"gamma": g}, g, FamilySpec("a_nq", n=n, q=g))
                           for g in range(1, n // 2 + 1)]),
    "T4.3": _Theorem(
        keys=lambda r: (r.domination,) if 2 * r.domination == r.n else (),
        quantities=("F", "Fstar"),
        extremum="min", unique=True, default_range=(4, 16), min_order=4, even_only=True,
        classes=lambda n: [({"gamma": n // 2}, n // 2, FamilySpec("corona_path", m=n // 2))]),
    "T4.4": _Theorem(
        keys=lambda r: (2,) if r.domination == 2 else (),
        quantities=("F", "Fstar"),
        extremum="min", unique=True, default_range=(6, 14), min_order=6,
        classes=lambda n: [({"gamma": 2}, 2, _pk_ab(n))]),
    "T4.5": _Theorem(
        keys=lambda r: (r.max_degree,), quantities=("Fstar",),
        extremum="min", unique=True, default_range=(4, 14), min_order=4, threshold=True,
        classes=lambda n: [({"min_max_degree": d}, d, FamilySpec("t_ndelta", n=n, delta=d))
                           for d in range(3, n)]),
    "T4.6": _Theorem(
        keys=lambda r: (r.max_degree,) if 2 * r.matching == r.n else (),
        quantities=("F", "Fstar"),
        extremum="min", unique=True, default_range=(4, 14), min_order=4, threshold=True,
        even_only=True,
        classes=lambda n: [({"min_max_degree": d, "perfect_matching": True}, d,
                            FamilySpec("tprime_ndelta", n=n, delta=d))
                           for d in range(3, n)]),
    "T4.7": _Theorem(
        keys=lambda r: (r.leaves,), quantities=("Fstar",),
        extremum="max", unique=True, default_range=(3, 14), min_order=3,
        classes=lambda n: [({"leaves": k}, k, FamilySpec("spider", n=n, k=k))
                           for k in range(2, n)]),
    # T4.8 is a maximization: the bound chains the diameter-class subtree-count
    # maximum through the stem identity, giving F*(T) <= F*(hat) with equality
    # only at the balanced hat (the double star beats the hat from below
    # already at n=6, d=3).  Its rows also hold the F closed form to the count
    # on the built hat.
    "T4.8": _Theorem(
        keys=lambda r: (r.diameter,), quantities=("Fstar",),
        extremum="max", unique=True, default_range=(3, 14), min_order=3,
        classes=lambda n: [({"d": d}, d, FamilySpec("hat", n=n, d=d))
                           for d in range(2, n)]),
    "L2star": _Theorem(
        keys=lambda r: ("min", "max"), quantities=("Fstar",),
        extremum=None, unique=False, default_range=(3, 12), min_order=3,
        classes=lambda n: [({"extremum": "min"}, "min", FamilySpec("path", n=n)),
                           ({"extremum": "max"}, "max", FamilySpec("star", n=n))]),
}

THEOREM_TAGS = tuple(_THEOREMS)

_PRODUCT_NOTE = ("single-leg binomial tail evaluated as a product, the literal "
                 "reading of the displayed count; the direct decomposition "
                 "requires their sum")


# ---------------------------------------------------------------------------
# enumeration scan: per-class extremes, sharded aggregation
# ---------------------------------------------------------------------------

def _merge_entry(slot: dict, qty: str, val: int, seqs: Iterable, mode: str) -> None:
    """Fold one quantity's value ``val``, attained by ``seqs``, into slot[qty]
    = [extreme value, set of extremizers]; only a new extreme builds a set."""
    cur = slot.get(qty)
    if cur is None or (val > cur[0] if mode == "max" else val < cur[0]):
        slot[qty] = [val, set(seqs)]
    elif val == cur[0]:
        cur[1].update(seqs)


def _scan_shard(tag: str, seqs: Iterable[tuple[int, ...]]) -> dict:
    """Aggregate the level sequences of one enumeration shard into one
    record per class: key -> [size, {qty: [extreme value, set of generator
    level sequences]}]; every record reads the process's branch table."""
    th = _THEOREMS[tag]
    agg: dict = {}
    for seq in seqs:
        rec = tree_record(seq)
        for key in th.keys(rec):
            record = agg.get(key) or agg.setdefault(key, [0, {}])
            record[0] += 1
            for qty in th.quantities:
                _merge_entry(record[1], qty, getattr(rec, qty), (seq,), th.extremum or key)
    return agg


def _class_record(th: _Theorem, parts: list, key) -> list:
    """One class's record, [size, {qty: [extreme value, set of canonical
    level sequences]}], merged from every shard record whose key the class
    holds: its own, or any key >= it for a threshold class.  No shard record
    changes, and each winner is canonicalised once."""
    record = [0, {}]
    for part in parts:
        for k, (size, slot) in part.items():
            if (k >= key if th.threshold else k == key):
                record[0] += size
                for qty, (val, seqs) in slot.items():
                    _merge_entry(record[1], qty, val, seqs, th.extremum or key)
    canon = {seq: canonical_form(tree_from_level_sequence(seq)).level_seq
             for seq in set().union(*(seqs for _, seqs in record[1].values()))}
    for entry in record[1].values():
        entry[1] = {canon[seq] for seq in entry[1]}
    return record


# ---------------------------------------------------------------------------
# row assembly
# ---------------------------------------------------------------------------

def _assemble(tag: str, n: int, parts: list, formula_variant: str) -> list[VerificationResult]:
    th = _THEOREMS[tag]
    hat = tag == "T4.8"
    notes = _PRODUCT_NOTE if hat and formula_variant == "product" else ""
    rows: list[VerificationResult] = []
    for constraint, key, spec in th.classes(n):
        size, slot = _class_record(th, parts, key)
        if not size:
            rows.append(VerificationResult(tag, n, constraint, None, None, (), None, True,
                                           class_size=0, notes="empty class"))
            continue
        built = construct(spec)
        expected = canonical_form(built)
        for qty in th.quantities:
            cell = dict(constraint, quantity=qty)
            if hat:
                cell["formula"] = formula_variant
            claimed = closed_form(spec, qty, binomial_term=formula_variant).value
            value, canons = slot[qty]
            extremizers = sorted(canons)
            passed = claimed == value and (canons == {expected.level_seq} if th.unique
                                           else expected.level_seq in canons)
            bad = next((c for c in extremizers if c != expected.level_seq), extremizers[0])
            rows.append(VerificationResult(
                tag, n, cell, claimed, value, tuple(map(CanonicalForm, extremizers)),
                expected, passed, class_size=size,
                counterexample=None if passed else tree_from_level_sequence(bad),
                notes=notes))
        if hat:
            claimed_f = closed_form(spec, "F", binomial_term=formula_variant).value
            achieved_f = counting.count_subtrees(built)
            rows.append(VerificationResult(
                tag, n, dict(constraint, quantity="F", check="formula-vs-count",
                             formula=formula_variant),
                claimed_f, achieved_f, (), expected,
                claimed_f == achieved_f, class_size=size,
                counterexample=None if claimed_f == achieved_f else built,
                notes=notes))
    return rows


def theorem_orders(tag: str, n_min: int | None = None,
                   n_max: int | None = None) -> list[int]:
    """The orders ``verify_theorem`` checks: the requested range (default:
    the tag's ``default_range``) clipped to the orders the statement covers.

    Raises ValueError when no order is left, since a run that checks nothing
    must not pass, or when the range reaches past ``MAX_ORDER``, before any
    order is scanned.
    """
    if tag not in _THEOREMS:
        raise UnknownTagError(f"unknown theorem tag {tag!r}")
    th = _THEOREMS[tag]
    lo, hi = th.default_range
    lo = max(lo if n_min is None else n_min, th.min_order)
    hi = hi if n_max is None else n_max
    orders = [n for n in range(lo, hi + 1) if not (th.even_only and n % 2)]
    if not orders:
        parity = " even" if th.even_only else ""
        raise ValueError(f"{tag} has no{parity} order to check in {lo}..{hi}")
    if hi > MAX_ORDER:
        raise ValueError(f"{tag}: order {hi} is above the enumeration cap {MAX_ORDER}")
    return orders


def verify_theorem(tag: str, n_min: int | None = None, n_max: int | None = None,
                   jobs: int = 1, formula_variant: str = "sum") -> list[VerificationResult]:
    """Exhaustively check one theorem over a range of orders.

    ``formula_variant`` selects the binomial-tail reading for T4.8 ("sum" is
    the corrected default, "product" reproduces the flawed literal one).
    """
    orders = theorem_orders(tag, n_min, n_max)
    rows: list[VerificationResult] = []
    for n, parts in zip(orders, map_shards(partial(_scan_shard, tag), orders, jobs)):
        rows.extend(_assemble(tag, n, parts, formula_variant))
    return rows


# ---------------------------------------------------------------------------
# lemma suites (seeded random instances)
# ---------------------------------------------------------------------------

# Each suite is an endless stream of instances drawn from one seeded rng; it
# yields (tree reported on failure, lemma holds, tally for the notes).
_Instances = Iterator[tuple[Tree, bool, int]]


def _suite_a_transform(rng: random.Random) -> _Instances:
    while True:
        t = random_labeled_tree(rng.randint(4, 16), rng)
        u = rng.randrange(t.n)
        root = rng.choice(t.adj[u])
        out, _ = a_transform(t, u, root)
        fb, sb = counting.subtree_totals(t)
        fa, sa = counting.subtree_totals(out)
        pend = is_pendant_path_component(t, u, root)
        yield t, (fb >= fa and sb >= sa
                  and (fb == fa) == pend and (sb == sa) == pend
                  and (not pend or is_isomorphic(t, out))), pend


def _suite_b_transform(rng: random.Random) -> _Instances:
    while True:
        t = random_labeled_tree(rng.randint(4, 16), rng)
        internal = [(u, v) for u, nbrs in enumerate(t.adj) if len(nbrs) >= 2
                    for v in nbrs if v > u and len(t.adj[v]) >= 2]
        if not internal:
            continue
        u, v = rng.choice(internal)
        out, _ = b_transform(t, u, v)
        fb, sb = counting.subtree_totals(t)
        fa, sa = counting.subtree_totals(out)
        yield t, fa > fb and sa > sb, 0


def _bicentral_instance(rng: random.Random) -> Tree:
    """A bicentral tree whose two centers both carry pendant-path legs."""
    h = rng.randint(1, 3)
    return _legged_path(2, [(hub, h, rng.randint(2, 3)) for hub in (0, 1)])


def _suite_c_transform(rng: random.Random) -> _Instances:
    """Every third accepted instance is bicentral; the tally counts plain
    (C) anchors."""
    done = 0
    while True:
        if done % 3 == 2:
            t = _bicentral_instance(rng)
        else:
            t = random_labeled_tree(rng.randint(5, 16), rng)
        anchors = c_anchors(t)
        if not anchors:
            continue
        v = rng.choice(anchors)
        kind, _ = classify_c_anchor(t, v)
        out, _ = c_transform(t, v)
        fb, sb = counting.subtree_totals(t)
        fa, sa = counting.subtree_totals(out)
        done += 1
        yield t, (fa > fb and sa > sb
                  and len(out.leaves()) == len(t.leaves())
                  and invariants.diameter(out) <= invariants.diameter(t)), kind == "C"


def _suite_leaf_deletion(rng: random.Random) -> _Instances:
    while True:
        t = random_labeled_tree(rng.randint(3, 14), rng)
        u = rng.choice(t.leaves())
        sub, old_to_new = induced_subtree(t, (v for v in range(t.n) if v != u))
        fb, sb = counting.subtree_totals(t)
        fa, sa = counting.subtree_totals(sub)
        ok = fa < fb and sa < sb
        is_path = max(len(a) for a in t.adj) <= 2
        f_t, fs_t = counting.anchored_counts(t)
        f_sub, fs_sub = counting.anchored_counts(sub)
        equalities = 0
        for v, nv in old_to_new.items():
            ok = ok and f_sub[nv] < f_t[v]
            before, after = fs_t[v], fs_sub[nv]
            expect_equal = is_path and t.is_leaf(v) and v != u
            equalities += expect_equal
            ok = ok and after <= before and (after == before) == expect_equal
        yield t, ok, equalities


def _suite_pendant_edge(rng: random.Random) -> _Instances:
    """Equality holds on the two-vertex tree, which is reported (ahead of
    the draws) only when it fails."""
    k2 = Tree(2, [(0, 1)])
    f, fs = counting.anchored_counts(k2)
    if not (f[0] == f[1] and fs[0] == fs[1]):
        yield k2, False, 0
    while True:
        t = random_labeled_tree(rng.randint(3, 16), rng)
        u = rng.choice(t.leaves())
        v = t.adj[u][0]
        f, fs = counting.anchored_counts(t)
        yield t, f[u] < f[v] and fs[u] < fs[v], 0


def _attach_path_at(n: int, base_edges, w: int, k: int, i: int) -> Tree:
    """Identify vertex w of an n-vertex base tree, given by its edges, with
    position i (1-based) of a k-vertex path."""
    labels = list(range(n, n + k - 1))
    labels.insert(i - 1, w)
    edges = list(base_edges) + [(labels[p], labels[p + 1]) for p in range(k - 1)]
    return Tree(n + k - 1, edges)


def _suite_path_attachment(rng: random.Random) -> _Instances:
    while True:
        base = random_labeled_tree(rng.randint(2, 8), rng)
        w = rng.randrange(base.n)
        k = rng.randint(2, 8)
        base_edges = base.edges
        series = [_attach_path_at(base.n, base_edges, w, k, i) for i in range(1, k + 1)]
        fs, gs = zip(*map(counting.subtree_totals, series))
        ok = True
        for i in range(k):
            ok = ok and fs[i] == fs[k - 1 - i] and gs[i] == gs[k - 1 - i]
        for i in range((k + 1) // 2 - 1):
            ok = ok and fs[i] < fs[i + 1] and gs[i] < gs[i + 1]
        yield series[0], ok, 0


def _random_rooted(rng: random.Random) -> tuple[Tree, int]:
    t = random_labeled_tree(rng.randint(1, 4), rng)
    return t, rng.randrange(t.n)


def _grow(t: Tree, root: int, rng: random.Random, extra: int) -> tuple[Tree, int]:
    """Add ``extra`` pendant vertices at random spots, keeping the root."""
    edges = list(t.edges)
    n = t.n
    for _ in range(extra):
        edges.append((rng.randrange(n), n))
        n += 1
    return Tree(n, edges), root


def _anchored_leaf_count(t: Tree, v: int) -> int:
    """f*-style anchored count, taken as 0 on a one-vertex component."""
    return counting.count_leaf_subtrees_at(t, v) if t.n >= 2 else 0


def _comparison_instance(rng: random.Random):
    """A tree W built around an x..y path whose x-side components dominate the
    matching y-side ones in both anchored counts (each X grows out of its Y by
    adding leaves, which can only raise both counts at the root)."""
    m = rng.randint(0, 3)
    even = m == 0 or rng.random() < 0.5  # m = 0 keeps d(x, y) >= 2 via Z
    sides: list[tuple[Tree, int, Tree, int]] = []
    for _ in range(m):
        yt, yroot = _random_rooted(rng)
        xt, xroot = _grow(yt, yroot, rng, rng.randint(0, 3))
        sides.append((xt, xroot, yt, yroot))
    # W is one chain of rooted pieces, labelled in chain order, each root
    # joined to the next: x, the X sides, Z, the Y sides reversed, then y
    point = (Tree(1, []), 0)
    chain = [point, *((xt, xroot) for xt, xroot, _, _ in sides)]
    if even:
        chain.append(_random_rooted(rng))
    chain += [(yt, yroot) for _, _, yt, yroot in reversed(sides)]
    chain.append(point)
    edges: list[tuple[int, int]] = []
    n = 0
    for piece, root in chain:
        if n:
            edges.append((prev, n + root))
        edges.extend((n + a, n + b) for a, b in piece.edges)
        prev, n = n + root, n + piece.n
    return Tree(n, edges), 0, n - 1, sides


def _suite_path_comparison(rng: random.Random) -> _Instances:
    """The tally counts instances with a strictly dominating side."""
    while True:
        w, x, y, sides = _comparison_instance(rng)
        any_strict = False
        for xt, xroot, yt, yroot in sides:
            fx = counting.count_subtrees_at(xt, xroot)
            fy = counting.count_subtrees_at(yt, yroot)
            if not (fx >= fy and _anchored_leaf_count(xt, xroot)
                    >= _anchored_leaf_count(yt, yroot)):
                raise RuntimeError("the instance generator broke the "
                                   "side-domination hypothesis")
            if fx > fy:
                any_strict = True
        f, fs = counting.anchored_counts(w)
        fwx, fwy, swx, swy = f[x], f[y], fs[x], fs[y]
        ok = fwx >= fwy and swx >= swy and (not any_strict or fwx > fwy)
        # structural cross-check against the decomposition machinery
        dec = path_decomposition(w, x, y)
        ok = ok and [len(c.original_vertices) for c in dec.x_components] == \
            [xt.n for xt, _, _, _ in sides]
        ok = ok and [len(c.original_vertices) for c in dec.y_components] == \
            [yt.n for _, _, yt, _ in sides]
        yield w, ok, any_strict


_SUITES = {
    "L3.1": (_suite_a_transform, "{t} equality instances (branch already a pendant path)"),
    "L3.2": (_suite_b_transform, ""),
    "L3.3": (_suite_c_transform, "{t} plain instances, {r} bicenter instances"),
    "leaf-deletion": (_suite_leaf_deletion,
                      "{t} anchored equality cases (path, opposite leaf)"),
    "pendant-edge": (_suite_pendant_edge, "equality only on the two-vertex tree (checked)"),
    "path-attachment": (_suite_path_attachment, ""),
    "path-comparison": (_suite_path_comparison,
                        "{t} instances with a strictly dominating side"),
}
LEMMA_TAGS = tuple(_SUITES)


def run_lemma_suite(tag: str, samples: int = 300, seed: int = 0) -> list[VerificationResult]:
    """Run one sampled lemma suite; every instance must satisfy the lemma.
    The notes fill the suite's template with t, the summed tally, and r =
    samples - t.  A RuntimeError the suite raises gains its tag and seed."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if tag not in _SUITES:
        raise UnknownTagError(f"unknown lemma tag {tag!r}")
    suite, note = _SUITES[tag]
    first, tally = None, 0
    try:
        for tree, holds, count in islice(suite(random.Random(seed)), samples):
            tally += count
            if not holds and first is None:
                first = tree
    except RuntimeError as err:
        raise RuntimeError(f"{tag} seed {seed}: {err}") from err
    return [VerificationResult(
        theorem=tag, n=None, constraint={"samples": samples, "seed": seed},
        claimed=None, achieved=None, extremizers=(), expected=None,
        passed=first is None, counterexample=first,
        notes=note.format(t=tally, r=samples - tally))]
