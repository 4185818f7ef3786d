
import random

import pytest

from conftest import (LARGE_SHAPES, dfs_rooted, large_shape, make_path, make_star,
                      rooting_trees)
from treecount.counting import (anchored_counts, count_leaf_subtrees,
                                count_leaf_subtrees_at, count_report, count_subtrees,
                                count_subtrees_at, count_subtrees_at_pair,
                                subtree_totals, wiener_index)
from treecount.enumeration import all_trees, random_labeled_tree
from treecount.families import FamilySpec, closed_form, construct
from bruteforce import TooLargeError, oracle_counts, oracle_pair_count, strip_leaves
from treecount.tree import LabelOutOfRangeError, Tree, induced_subtree, path_between


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


def _rooted_counts(t: Tree) -> tuple:
    return (subtree_totals(t), count_subtrees(t), count_leaf_subtrees(t), wiener_index(t))


class TestStoredRooting:
    """Each count that reads the tree's breadth-first rooting against the same
    code fed the depth-first ``preorder(t, 0)``."""

    def test_small_and_random(self):
        for t in rooting_trees():
            d = dfs_rooted(t)
            assert _rooted_counts(t) == _rooted_counts(d)
            assert anchored_counts(t) == anchored_counts(d)

    @pytest.mark.parametrize("shape", LARGE_SHAPES)
    def test_large_shapes(self, shape):
        # no anchored counts here: on the star they hold Θ(n²) bits
        t = large_shape(shape)
        assert _rooted_counts(t) == _rooted_counts(dfs_rooted(t))


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


# Counts past one machine word.  The product pass holds a vertex's child
# factors back once its count reaches 2^64 and sums big totals in ascending
# order; the references below are plain left folds, one child at a time, on
# a breadth-first rooting written here.

def _bfs(t: Tree, root: int) -> tuple[list[int], list[int]]:
    parent = [-1] * t.n
    order = [root]
    seen = {root}
    for v in order:
        for w in t.adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    return order, parent


def _fold(t: Tree, root: int, counted: list[int]) -> list[int]:
    """Subtrees of counted vertices topped at each vertex, rooted at root."""
    order, parent = _bfs(t, root)
    g = list(counted)
    for v in reversed(order[1:]):
        g[parent[v]] = g[parent[v]] * (g[v] + 1)
    return g


def _stem_seed(t: Tree) -> list[int]:
    return [int(len(a) > 1) for a in t.adj]


def _fold_totals(t: Tree) -> tuple[int, int]:
    F = sum(_fold(t, 0, [1] * t.n))
    return F, F - sum(_fold(t, 0, _stem_seed(t)))


def _fold_leaf_at(t: Tree, v: int) -> int:
    avoiding = _stem_seed(t)
    avoiding[v] = 1
    return _fold(t, v, [1] * t.n)[v] - _fold(t, v, avoiding)[v]


def _fold_pair(t: Tree, u: int, v: int) -> int:
    """Rooted at u: the count topped at v, times, at each vertex above v on
    the path, the product of (count + 1) over its children off the path."""
    order, parent = _bfs(t, u)
    g = _fold(t, u, [1] * t.n)
    count, below = g[v], v
    while below != u:
        p = parent[below]
        for c in t.adj[p]:
            if c != parent[p] and c != below:
                count *= g[c] + 1
        below = p
    return count


def _hub_tree(k: int, legs: int, depth: int) -> Tree:
    """A hub at the end of a path 0..depth (the hub is vertex 0 when depth is
    0) with k leaf children and ``legs`` children that carry one leaf each.

    Rooted at 0, the hub's count is 2^k * 3^legs with every vertex counted,
    and 2^legs over the stem."""
    edges = [(i, i + 1) for i in range(depth)]
    m = depth + 1
    for _ in range(k):
        edges.append((depth, m))
        m += 1
    for _ in range(legs):
        edges += [(depth, m), (m, m + 1)]
        m += 2
    return Tree(m, edges)


def _hub_trees():
    for k in range(62, 67):
        for depth in (0, 3):
            yield _hub_tree(k, 0, depth)      # crosses the word with 1 everywhere
            yield _hub_tree(0, k, depth)      # crosses it over the stem too
            yield _hub_tree(k, k, depth)


def _grafted(t: Tree, rng: random.Random, hubs: int) -> Tree:
    """t with ``hubs`` random vertices given 60-140 new leaves and 60-70 new
    legs of two vertices each."""
    edges, m = list(t.edges), t.n
    for _ in range(hubs):
        h = rng.randrange(m)
        for _ in range(rng.randint(60, 140)):
            edges.append((h, m))
            m += 1
        for _ in range(rng.randint(60, 70)):
            edges += [(h, m), (m, m + 1)]
            m += 2
    return Tree(m, edges)


class TestWordThreshold:
    def test_hub_totals(self):
        for t in _hub_trees():
            totals = _fold_totals(t)
            assert subtree_totals(t) == totals
            assert (count_subtrees(t), count_leaf_subtrees(t)) == totals

    def test_hub_values(self):
        # the hub's count under each seed, from its closed value
        for k in range(62, 67):
            for depth in (0, 3):
                t = _hub_tree(k, k, depth)
                assert _fold(t, 0, [1] * t.n)[depth] == 2 ** k * 3 ** k
                assert _fold(t, 0, _stem_seed(t))[depth] == 2 ** k
                assert count_subtrees_at(t, depth) == (2 ** k * 3 ** k) * (depth + 1)

    def test_hub_anchored(self):
        for t in _hub_trees():
            f, fstar = anchored_counts(t)
            assert f == [_fold(t, v, [1] * t.n)[v] for v in range(t.n)]
            assert fstar == [_fold_leaf_at(t, v) for v in range(t.n)]
            assert f == [count_subtrees_at(t, v) for v in range(t.n)]
            assert fstar == [count_leaf_subtrees_at(t, v) for v in range(t.n)]

    def test_hub_pairs(self):
        rng = random.Random(64)
        for t in _hub_trees():
            pairs = [(0, t.n - 1), (t.n - 1, 0)] + [tuple(rng.sample(range(t.n), 2))
                                                    for _ in range(15)]
            for u, v in pairs:
                assert count_subtrees_at_pair(t, u, v) == _fold_pair(t, u, v)

    def test_grafted_anchored(self):
        rng = random.Random(66)
        for n in (2, 30, 120):
            t = _grafted(random_labeled_tree(n, rng), rng, 2)
            f, fstar = anchored_counts(t)
            assert f == [_fold(t, v, [1] * t.n)[v] for v in range(t.n)]
            for v in range(0, t.n, 7):
                assert fstar[v] == _fold_leaf_at(t, v)
            for u, v in [tuple(rng.sample(range(t.n), 2)) for _ in range(10)]:
                assert count_subtrees_at_pair(t, u, v) == _fold_pair(t, u, v)

    def test_grafted_totals(self):
        rng = random.Random(65)
        for n in (1, 50, 2000, 5000):
            t = _grafted(random_labeled_tree(n, rng), rng, 4)
            assert subtree_totals(t) == _fold_totals(t)

    def test_random_100000(self):
        t = random_labeled_tree(100_000, random.Random(100_000))
        totals = _fold_totals(t)
        assert totals[0] >= 2 ** 64
        assert subtree_totals(t) == totals
        assert (count_subtrees(t), count_leaf_subtrees(t)) == totals

    @pytest.mark.parametrize("spec", [FamilySpec("star", n=100_000),
                                      FamilySpec("t_ndelta", n=100_000, delta=50_000)],
                             ids=["star", "broom"])
    def test_closed_forms_100000(self, spec):
        t = construct(spec)
        F, Fstar = (closed_form(spec, q).value for q in ("F", "Fstar"))
        assert subtree_totals(t) == (F, Fstar)
        assert (count_subtrees(t), count_leaf_subtrees(t)) == (F, Fstar)
