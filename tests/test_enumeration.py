import hashlib
import os
import random
import time

import pytest

from bruteforce import class_count_by_formula, prufer_class_count
from conftest import make_path, make_star
from treecount.enumeration import (MAX_ORDER, TooLargeError, TreeConstraint, _runs,
                                   all_level_sequences, all_trees, map_shards,
                                   merge_runs, random_labeled_tree, tree_from_prufer,
                                   trees_matching)
from treecount.families import FamilySpec, construct
from treecount.invariants import (diameter, domination_number, has_perfect_matching,
                                  matching_number)
from treecount.tree import canonical_form, is_isomorphic


class TestGenerator:
    def test_smallest_orders(self):
        assert [t.n for t in all_trees(1)] == [1]
        got = list(all_trees(4))
        assert len(got) == 2
        assert any(is_isomorphic(t, make_path(4)) for t in got)
        assert any(is_isomorphic(t, make_star(4)) for t in got)

    def test_counts_match_prufer_dedup(self):
        for n in range(1, 9):
            assert sum(1 for _ in all_trees(n)) == prufer_class_count(n)

    def test_counts_match_formula(self):
        # third route: Euler-transform count (itself validated against the
        # Pruefer dedup above)
        for n in range(1, 9):
            assert class_count_by_formula(n) == prufer_class_count(n)
        for n in range(1, 15):
            assert sum(1 for _ in all_trees(n)) == class_count_by_formula(n)

    def test_no_duplicate_classes(self):
        for n in range(1, 13):
            forms = [canonical_form(t) for t in all_trees(n)]
            assert len(set(forms)) == len(forms)

    def test_deterministic_order(self):
        assert list(all_level_sequences(9)) == list(all_level_sequences(9))

    def test_every_emission_is_a_tree(self):
        for n in range(2, 13):
            for t in all_trees(n):
                assert t.n == n and len(t.edges) == n - 1

    def test_order_bounds(self):
        with pytest.raises(TooLargeError):
            list(all_trees(MAX_ORDER + 1))
        with pytest.raises(TooLargeError):
            list(all_trees(0))
        assert next(all_level_sequences(MAX_ORDER))


def _listed(_, runs):
    return [list(run) for run in runs]


def _first_subtree(seq):
    """seq[1:m], with m the position of the root's second child (or the end)."""
    m = seq.index(1, 2) if 1 in seq[2:] else len(seq)
    return seq[1:m]


# sha256 of b"".join(bytes(seq) + b"\n" for seq in all_level_sequences(n)), taken
# from the walk as it was before shards were dealt whole runs
_STREAM_SHA256 = {
    1: "67ebbd370daa02ba9aadd05d8e091e862d0d8bcadafdf2a22360240a42fe922e",
    2: "f3a958cc1b9248073cfc790ee66d3bb4ab2781096978ebcb1ae95cdfb6264908",
    3: "863e01e47e36ddd87dca2528d899278dcf072ed77abdc233e3b6fb316872df1f",
    4: "ab93bd5591004e26028bbb5d9c69b21588c60209f2972138de8cce6c65e27f9d",
    5: "2151fd8c46bb17abe4353181cfb696324860f83966c4b92378f844c21f2cecd0",
    6: "00c71d2d4830b1d09bd833e627335f3244d36130adfd9ac2d9077e03f82ea823",
    7: "2c087e6e710862eec28054521cc1c20768bb0f9ca7d634aea986d5f840a2d67d",
    8: "ed53750f1306a4a55cb5b18d635b4dcd3a5e35b5c758ec36dee3d2c6f702414a",
    9: "3249f522870cfc9ebf1d9c11e4f5ffeb0c30fcfdc35943a45baa0f381b208d14",
    10: "a71b9f0c606f50f96fd674050f71042257769d7a54daf1c0860f39246c4d49ff",
    11: "33ba958fc668418d580d594f3e5762b3ceef18bf601637da49af7b7a07508b68",
    12: "95053cafc23e53d1991abe993e4ffdb514a71cfc37cdd982c331c9013bb346fc",
    13: "3751ea13b162d37207ac2895e60fa1810cee6d433cb7c81a203aa7302855c5a1",
    14: "dce77b86812e68267a9d2b1f4c69d524b9871a6a09220e4fd1d3a0b7df25ebee",
    15: "ae811176b3974f5dd1bc3b988123d66488bd143edb0e1bbf000fbfc0ba831ff1",
    16: "de00ef3d1b38d047bf88aa00bd97cf28dade365b8bace7a466bb6f51e155aa0a",
    17: "10786bf2824d035db6ab86db74ab47949d30a191490caf27ea3b6ff2fd006936",
    18: "3cc6b718942008d58b561c3999b049a40e45ce7c27be85fa8ff00133340e0fad",
}


class TestSharding:
    def test_stream_is_unchanged(self):
        for n, digest in _STREAM_SHA256.items():
            h = hashlib.sha256()
            for seq in all_level_sequences(n):
                h.update(bytes(seq) + b"\n")
            assert h.hexdigest() == digest, n

    def test_partition_is_exact(self):
        # run r is item r // w of shard r % w; merged, the runs are the stream
        for n in range(1, 17):
            stream = list(all_level_sequences(n))
            for w in range(1, 9):
                parts = [_listed(None, _runs(n, s, w)) for s in range(w)]
                assert [seq for run in merge_runs(parts) for seq in run] == stream, (n, w)

    def test_runs_are_maximal_blocks_of_one_first_subtree(self):
        for n in range(2, 17):
            subtrees = []
            for run in _runs(n):
                run = list(run)
                assert run and len({_first_subtree(seq) for seq in run}) == 1, n
                subtrees.append(_first_subtree(run[0]))
            assert all(a != b for a, b in zip(subtrees, subtrees[1:])), n

    def test_shard_count_follows_the_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        orders = [7, 12]
        got = map_shards(_listed, None, orders, 64)
        assert [len(parts) for parts in got] == [2, 2]
        for n, parts in zip(orders, got):
            assert [seq for run in merge_runs(parts) for seq in run] == \
                list(all_level_sequences(n))

    def test_bad_shard(self):
        for jobs in (0, -1):
            with pytest.raises(ValueError):
                map_shards(_listed, None, [5], jobs)


def _fail_in_child(parent, runs):
    if os.getpid() != parent:
        raise ArithmeticError(f"shard of {parent} failed")
    return _listed(None, runs)


def _vanish_in_child(parent, runs):
    if os.getpid() != parent:
        os._exit(3)
    return _listed(None, runs)


def _fail_here_and_stall_in_child(parent, runs):
    if os.getpid() == parent:
        raise ArithmeticError("shard 0 failed")
    time.sleep(60)
    return _listed(None, runs)


class TestForkJoin:
    """Shard 0 runs in the caller and every other shard in one forked child;
    an error anywhere leaves no child behind."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)

    def assert_reaped(self, pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_one_child_per_extra_shard(self, forks):
        orders = [3, 9, 12]
        got = map_shards(_listed, None, orders, 3)
        assert len(forks) == 2
        self.assert_reaped(forks)
        for n, parts in zip(orders, got):
            assert parts == [_listed(None, _runs(n, s, 3)) for s in range(3)]

    def test_error_in_a_child_reaches_the_caller(self, forks):
        with pytest.raises(ArithmeticError, match=f"^shard of {os.getpid()} failed$"):
            map_shards(_fail_in_child, os.getpid(), [8, 10], 3)
        assert len(forks) == 2
        self.assert_reaped(forks)

    def test_child_without_a_result(self, forks):
        with pytest.raises(RuntimeError, match="ended with no result"):
            map_shards(_vanish_in_child, os.getpid(), [8], 2)
        assert len(forks) == 1
        self.assert_reaped(forks)

    def test_error_in_shard_0_kills_the_children(self, forks):
        start = time.monotonic()
        with pytest.raises(ArithmeticError, match="^shard 0 failed$"):
            map_shards(_fail_here_and_stall_in_child, os.getpid(), [8], 3)
        assert time.monotonic() - start < 30  # the children sleep for 60 s
        assert len(forks) == 2
        self.assert_reaped(forks)


class TestConstraints:
    def test_matching_class(self):
        members = list(trees_matching(6, TreeConstraint(matching=2)))
        assert all(matching_number(t) == 2 for t in members)
        target = canonical_form(construct(FamilySpec("a_nq", n=6, q=2)))
        assert target in {canonical_form(t) for t in members}

    def test_domination_class_is_coronas(self):
        members = {canonical_form(t)
                   for t in trees_matching(8, TreeConstraint(domination=4))}
        coronas = set()
        for h in all_trees(4):
            edges = list(h.edges) + [(v, 4 + v) for v in range(4)]
            from treecount.tree import Tree
            coronas.add(canonical_form(Tree(8, edges)))
        assert members == coronas

    def test_diameter_class_contains_hat(self):
        members = {canonical_form(t)
                   for t in trees_matching(10, TreeConstraint(diameter=4))}
        assert canonical_form(construct(FamilySpec("hat", n=10, d=4, k=3))) in members

    def test_perfect_matching_filter(self):
        members = list(trees_matching(8, TreeConstraint(perfect_matching=True,
                                                        min_max_degree=3)))
        assert members
        assert all(matching_number(t) == 4 for t in members)
        assert all(max(t.degree(v) for v in range(8)) >= 3 for t in members)


def reference_fields(t):
    """The constrained fields of t from the Tree-based routes."""
    return {"matching": matching_number(t), "domination": domination_number(t),
            "diameter": diameter(t), "leaves": len(t.leaves()),
            "min_max_degree": max(t.degree(v) for v in range(t.n)),
            "perfect_matching": has_perfect_matching(t)}


def reference_admits(fields, constraint):
    for name, want in constraint._asdict().items():
        if want is None:
            continue
        have = fields[name]
        if not (have >= want if name == "min_max_degree" else have == want):
            return False
    return True


class TestRecordFilter:
    """trees_matching filters on tree_record; the Tree-based invariants are
    its reference, on every tree with n <= 12."""

    def test_every_field_and_value(self):
        for n in range(1, 13):
            trees = list(all_trees(n))
            fields = [reference_fields(t) for t in trees]
            constraints = [TreeConstraint(), TreeConstraint(perfect_matching=True),
                           TreeConstraint(perfect_matching=False)]
            for name in ("matching", "domination", "diameter", "leaves", "min_max_degree"):
                seen = {f[name] for f in fields}
                for value in sorted(seen | {0, max(seen) + 1}):
                    constraints.append(TreeConstraint(**{name: value}))
            for degree in sorted({f["min_max_degree"] for f in fields}):
                constraints.append(TreeConstraint(perfect_matching=True, min_max_degree=degree))
            for q in sorted({f["matching"] for f in fields}):
                for k in sorted({f["leaves"] for f in fields}):
                    constraints.append(TreeConstraint(matching=q, leaves=k))
            for c in constraints:
                want = [t for t, f in zip(trees, fields) if reference_admits(f, c)]
                assert list(trees_matching(n, c)) == want, (n, c)


class TestPrufer:
    def test_decode_examples(self):
        assert is_isomorphic(tree_from_prufer([1, 1]), make_star(4))
        assert is_isomorphic(tree_from_prufer([1, 2]), make_path(4))
        with pytest.raises(ValueError):
            tree_from_prufer([5, 0])

    def test_decode_covers_all_classes(self):
        import itertools
        seen = set()
        for seq in itertools.product(range(6), repeat=4):
            seen.add(canonical_form(tree_from_prufer(seq)))
        assert len(seen) == 6

    def test_random_tree_reproducible(self):
        a = random_labeled_tree(12, random.Random(3))
        b = random_labeled_tree(12, random.Random(3))
        assert a == b
        assert random_labeled_tree(1, random.Random(0)).n == 1
        assert random_labeled_tree(2, random.Random(0)).edges == ((0, 1),)
