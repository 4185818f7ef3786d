
import random

import pytest

from conftest import make_path, make_star
from treecount.counting import (anchored_counts, count_leaf_subtrees,
                                count_leaf_subtrees_at, count_report, count_subtrees,
                                count_subtrees_at, count_subtrees_at_pair,
                                subtree_totals, wiener_index)
from treecount.enumeration import all_trees, random_labeled_tree
from treecount.families import FamilySpec, construct
from treecount.oracle import TooLargeError, oracle_counts, oracle_pair_count
from treecount.tree import (LabelOutOfRangeError, Tree, induced_subtree,
                            path_between, strip_leaves)


class TestTotals:
    def test_paths_and_stars(self):
        assert count_subtrees(make_path(3)) == 6
        assert count_subtrees(make_star(4)) == 11
        assert count_subtrees(make_star(6)) == 37
        assert count_subtrees(Tree(1, [])) == 1

    def test_matching_extremal_instance(self):
        t = construct(FamilySpec("a_nq", n=6, q=2))
        assert count_subtrees(t) == 30
        assert count_leaf_subtrees(t) == 27
        assert oracle_counts(t).F == 30

    def test_leaf_subtrees(self):
        assert count_leaf_subtrees(make_path(5)) == 9
        assert count_leaf_subtrees(make_star(5)) == 19
        assert count_leaf_subtrees(make_path(6)) == 11
        assert count_leaf_subtrees(make_star(6)) == 36

    def test_small_order_conventions(self):
        # the stem of a 1- or 2-vertex tree is empty, so F* = F there
        assert count_leaf_subtrees(Tree(1, [])) == 1
        assert count_leaf_subtrees(Tree(2, [(0, 1)])) == 3


class TestAnchored:
    def test_path_position_product(self):
        assert count_subtrees_at(make_path(5), 1) == 8
        for n in range(1, 31):
            p = make_path(n)
            for k in range(n):
                assert count_subtrees_at(p, k) == (k + 1) * (n - k)

    def test_star_center(self):
        assert count_subtrees_at(make_star(4), 0) == 8
        assert count_subtrees_at(Tree(1, []), 0) == 1

    def test_leaf_anchored_path_values(self):
        assert count_leaf_subtrees_at(Tree(2, [(0, 1)]), 0) == 1
        assert count_leaf_subtrees_at(make_path(5), 2) == 5
        for n in range(2, 31):
            p = make_path(n)
            assert count_leaf_subtrees_at(p, 0) == 1
            assert count_leaf_subtrees_at(p, n - 1) == 1
            for k in range(1, n - 1):
                assert count_leaf_subtrees_at(p, k) == n

    def test_leaf_anchored_star_center(self):
        assert count_leaf_subtrees_at(make_star(4), 0) == 7

    @pytest.mark.parametrize("v", [-1, 5])
    def test_anchor_out_of_range(self, v):
        p5 = make_path(5)
        for call in (lambda: count_subtrees_at(p5, v),
                     lambda: count_leaf_subtrees_at(p5, v),
                     lambda: count_subtrees_at_pair(p5, v, 2),
                     lambda: count_subtrees_at_pair(p5, 2, v)):
            with pytest.raises(LabelOutOfRangeError):
                call()

    def test_leaf_anchored_refused_on_singleton(self):
        with pytest.raises(ValueError):
            count_leaf_subtrees_at(Tree(1, []), 0)

    def test_pair_counts(self):
        assert count_subtrees_at_pair(make_path(4), 0, 3) == 1
        assert count_subtrees_at_pair(make_path(3), 0, 1) == 2
        assert count_subtrees_at_pair(make_star(4), 1, 2) == 2
        with pytest.raises(ValueError):
            count_subtrees_at_pair(make_path(3), 1, 1)

    def test_pair_counts_vs_oracle(self, rng):
        for _ in range(40):
            t = random_labeled_tree(rng.randint(2, 12), rng)
            u = rng.randrange(t.n)
            v = rng.choice([w for w in range(t.n) if w != u]) if t.n > 1 else None
            if v is None:
                continue
            assert count_subtrees_at_pair(t, u, v) == oracle_pair_count(t, u, v)


def _differential_trees():
    """Every tree with n <= 10, then seeded random trees up to n = 200."""
    for n in range(1, 11):
        yield from all_trees(n)
    rng = random.Random(200)
    for n in [11, 17, 40, 99, 200] + [rng.randint(2, 200) for _ in range(25)]:
        yield random_labeled_tree(n, rng)


class TestOneRooting:
    """The one-rooting helpers against a rooting per vertex (anchored counts)
    and against the stem built as a Tree (totals)."""

    def test_anchored_counts_match_per_vertex_rootings(self):
        for t in _differential_trees():
            f, fstar = anchored_counts(t)
            assert f == [count_subtrees_at(t, v) for v in range(t.n)]
            if t.n == 1:
                assert fstar is None
            else:
                assert fstar == [count_leaf_subtrees_at(t, v) for v in range(t.n)]

    def test_subtree_totals_match_stem_tree(self):
        for t in _differential_trees():
            F = count_subtrees(t)
            stem = count_subtrees(strip_leaves(t)[0]) if t.n > 2 else 0
            assert subtree_totals(t) == (F, count_leaf_subtrees(t)) == (F, F - stem)


class TestWiener:
    def test_examples(self):
        assert wiener_index(make_path(4)) == 10
        assert wiener_index(make_star(4)) == 9
        assert wiener_index(Tree(1, [])) == 0
        assert wiener_index(make_path(5)) == 20

    def test_path_identity(self):
        for n in range(1, 31):
            assert wiener_index(make_path(n)) == (n ** 3 - n) // 6


class TestOracleAgreement:
    def test_exhaustive_small(self):
        for n in range(1, 10):
            for t in all_trees(n):
                assert oracle_counts(t) == count_report(t)

    def test_oracle_bound(self):
        with pytest.raises(TooLargeError):
            oracle_counts(make_path(21))

    def test_report_json_shape(self):
        d = count_report(make_path(5)).to_json_dict()
        assert d == {
            "n": 5, "F": "15", "Fstar": "9", "W": "20",
            "f": {"0": "5", "1": "8", "2": "9", "3": "8", "4": "5"},
            "fstar": {"0": "1", "1": "5", "2": "5", "3": "5", "4": "1"},
        }
        assert count_report(Tree(1, [])).to_json_dict()["fstar"] == {}


class TestMonotonicity:
    def test_leaf_deletion_exhaustive(self):
        # deleting any leaf strictly drops F, F* and every anchored count;
        # the leaf-anchored count stays equal only on a path at the far leaf
        for n in range(3, 11):
            for t in all_trees(n):
                is_path = max(len(a) for a in t.adj) <= 2
                for u in t.leaves():
                    sub, old_to_new = induced_subtree(
                        t, (v for v in range(t.n) if v != u))
                    assert count_subtrees(sub) < count_subtrees(t)
                    assert count_leaf_subtrees(sub) < count_leaf_subtrees(t)
                    for v, nv in old_to_new.items():
                        assert count_subtrees_at(sub, nv) < count_subtrees_at(t, v)
                        before = count_leaf_subtrees_at(t, v)
                        after = count_leaf_subtrees_at(sub, nv)
                        assert after <= before
                        expect_equal = is_path and t.is_leaf(v) and v != u
                        assert (after == before) == expect_equal

    def test_pendant_edge_dominance(self):
        k2 = Tree(2, [(0, 1)])
        assert count_subtrees_at(k2, 0) == count_subtrees_at(k2, 1)
        assert count_leaf_subtrees_at(k2, 0) == count_leaf_subtrees_at(k2, 1) == 1
        for n in range(3, 11):
            for t in all_trees(n):
                for u in t.leaves():
                    v = t.adj[u][0]
                    assert count_subtrees_at(t, u) < count_subtrees_at(t, v)
                    assert count_leaf_subtrees_at(t, u) < count_leaf_subtrees_at(t, v)


def test_big_counts_stay_exact():
    # 2^64 overflow territory: the star on 70 vertices
    t = make_star(70)
    assert count_subtrees(t) == 2 ** 69 + 69
    assert count_leaf_subtrees(t) == 2 ** 69 + 68


def test_report_invariants_small_orders():
    # F >= Fstar, F >= n, every anchored count >= 1, and the stem identity
    from treecount.tree import strip_leaves
    for n in range(1, 10):
        for t in all_trees(n):
            rep = count_report(t)
            assert rep.F >= rep.Fstar and rep.F >= t.n
            assert all(c >= 1 for c in rep.f_vertex.values())
            stem_count = count_subtrees(strip_leaves(t)[0]) if t.n > 2 else 0
            assert rep.Fstar == rep.F - stem_count


def _pair_by_branches(t: Tree, u: int, v: int) -> int:
    """Subtrees through u and v: the product, over the u-v path, of the
    anchored count of the branch hanging at each path vertex."""
    path = path_between(t, u, v)
    on_path = set(path)
    total = 1
    for w in path:
        branch = {w}
        stack = [w]
        while stack:
            for y in t.adj[stack.pop()]:
                if y not in on_path and y not in branch:
                    branch.add(y)
                    stack.append(y)
        sub, old_to_new = induced_subtree(t, branch)
        total *= count_subtrees_at(sub, old_to_new[w])
    return total


class TestLargeTrees:
    N = 1000

    @pytest.fixture(params=["path", "star", "random"])
    def big(self, request):
        if request.param == "path":
            return make_path(self.N)
        if request.param == "star":
            return make_star(self.N)
        return random_labeled_tree(self.N, random.Random(1000))

    def test_report_against_single_counters(self, big):
        rep = count_report(big)
        assert rep.f_vertex == {v: count_subtrees_at(big, v) for v in range(big.n)}
        assert rep.F == count_subtrees(big)
        assert rep.Fstar == count_subtrees(big) - count_subtrees(strip_leaves(big)[0])
        assert rep.Fstar == count_leaf_subtrees(big)
        for v in range(0, big.n, 37):
            assert rep.fstar_vertex[v] == count_leaf_subtrees_at(big, v)

    def test_path_report_closed_forms(self):
        n = self.N
        rep = count_report(make_path(n))
        assert rep.f_vertex == {k: (k + 1) * (n - k) for k in range(n)}
        assert rep.fstar_vertex == {k: 1 if k in (0, n - 1) else n for k in range(n)}
        assert rep.F == n * (n + 1) // 2 and rep.wiener == (n ** 3 - n) // 6

    def test_pair_counts(self, big):
        rng = random.Random(7)
        for _ in range(12):
            u, v = rng.sample(range(big.n), 2)
            assert count_subtrees_at_pair(big, u, v) == _pair_by_branches(big, u, v)

    def test_pair_counts_closed_forms(self):
        n = self.N
        p = make_path(n)
        for u, v in [(0, n - 1), (3, 500), (998, 1), (400, 401)]:
            lo, hi = min(u, v), max(u, v)
            assert count_subtrees_at_pair(p, u, v) == (lo + 1) * (n - hi)
        s = make_star(n)
        assert count_subtrees_at_pair(s, 0, 17) == 2 ** (n - 2)
        assert count_subtrees_at_pair(s, 17, 999) == 2 ** (n - 3)
