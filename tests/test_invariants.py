import pytest

import treecount
from bruteforce import brute_domination, brute_matching
from conftest import (LARGE_SHAPES, dfs_rooted, large_shape, make_path, make_star,
                      relabeled, rooting_trees)
from treecount import invariants
from treecount.enumeration import all_trees, random_labeled_tree
from treecount.families import FamilySpec, construct
from treecount.invariants import (InvariantProfile, diameter, domination_number,
                                  has_perfect_matching, invariant_profile, matching_number)
from treecount.tree import Tree, centers, preorder


class TestMatching:
    def test_examples(self):
        assert matching_number(make_path(6)) == 3
        assert matching_number(make_star(6)) == 1
        assert matching_number(Tree(1, [])) == 0
        for n, q in [(8, 3), (10, 4), (9, 3)]:
            assert matching_number(construct(FamilySpec("a_nq", n=n, q=q))) == q

    def test_against_subset_oracle(self):
        for n in range(1, 12):
            for t in all_trees(n):
                assert matching_number(t) == brute_matching(t)


class TestPerfectMatching:
    def test_examples(self):
        assert has_perfect_matching(make_path(4))
        assert not has_perfect_matching(make_star(4))
        assert has_perfect_matching(construct(FamilySpec("tprime_ndelta", n=12, delta=4)))

    def test_flag_iff_matching_number(self):
        for n in range(1, 13):
            for t in all_trees(n):
                expect = t.n % 2 == 0 and matching_number(t) == t.n // 2
                assert has_perfect_matching(t) == expect
                if n <= 11:  # the range the subset oracle covers above
                    assert has_perfect_matching(t) == (2 * brute_matching(t) == t.n)


class TestDomination:
    def test_examples(self):
        assert domination_number(make_star(6)) == 1
        assert domination_number(make_path(6)) == 2
        assert domination_number(construct(FamilySpec("corona_path", m=4))) == 4

    def test_against_subset_oracle(self):
        for n in range(1, 12):
            for t in all_trees(n):
                assert domination_number(t) == brute_domination(t)


class TestBounds:
    def test_domination_below_matching(self):
        for n in range(2, 11):
            for t in all_trees(n):
                assert domination_number(t) <= matching_number(t)

    def test_ore_bound(self):
        for n in range(2, 11):
            for t in all_trees(n):
                assert domination_number(t) <= n // 2


class TestProfile:
    def test_path7(self):
        p = invariant_profile(make_path(7))
        assert (p.diameter, p.leaf_count, p.max_degree, p.domination, p.matching) \
            == (6, 2, 2, 3, 3)
        assert p.centers == (3,) and not p.has_perfect_matching

    def test_broom(self):
        p = invariant_profile(construct(FamilySpec("t_ndelta", n=9, delta=4)))
        assert (p.diameter, p.leaf_count, p.max_degree) == (6, 4, 4)

    def test_hat(self):
        p = invariant_profile(construct(FamilySpec("hat", n=8, d=4, k=3)))
        assert (p.diameter, p.leaf_count) == (4, 5)

    def test_json_shape(self):
        d = invariant_profile(make_path(4)).to_json_dict()
        assert d == {"matching": 2, "domination": 2, "diameter": 3,
                     "leafCount": 2, "maxDegree": 2, "centers": [1, 2],
                     "hasPerfectMatching": True}


def _eccentricity_diameter(t: Tree) -> int:
    """Largest depth over a rooting at every vertex."""
    best = 0
    for root in range(t.n):
        order, parent = preorder(t, root)
        depth = [0] * t.n
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        best = max(best, max(depth))
    return best


class TestDiameter:
    def test_against_every_rooting(self, rng):
        trees = [t for n in range(1, 11) for t in all_trees(n)]
        trees += [random_labeled_tree(rng.randint(2, 150), rng) for _ in range(60)]
        for t in trees:
            assert diameter(t) == _eccentricity_diameter(t)


def _separate_profile(t: Tree) -> InvariantProfile:
    q = matching_number(t)
    return InvariantProfile(
        matching=q, domination=domination_number(t), diameter=diameter(t),
        leaf_count=sum(t.degree(v) <= 1 for v in range(t.n)),
        max_degree=max(t.degree(v) for v in range(t.n)), centers=centers(t),
        has_perfect_matching=has_perfect_matching(t))


class TestProfileFromOneRooting:
    """The profile shares one rooting; each field against its own entry point."""

    def test_every_small_tree(self):
        for n in range(1, 11):
            for t in all_trees(n):
                assert invariant_profile(t) == _separate_profile(t)

    @pytest.mark.parametrize("shape", LARGE_SHAPES)
    def test_large_shapes(self, shape):
        t = large_shape(shape)
        assert invariant_profile(t) == _separate_profile(t)


def _rooted_invariants(t: Tree) -> tuple:
    return (matching_number(t), has_perfect_matching(t), domination_number(t),
            diameter(t), centers(t), invariant_profile(t))


class TestStoredRooting:
    """Each invariant that reads the tree's breadth-first rooting against the
    same code fed the depth-first ``preorder(t, 0)``."""

    def test_small_and_random(self):
        for t in rooting_trees():
            d = dfs_rooted(t)
            assert _rooted_invariants(t) == _rooted_invariants(d)

    @pytest.mark.parametrize("shape", LARGE_SHAPES)
    def test_large_shapes(self, shape):
        t = large_shape(shape)
        assert _rooted_invariants(t) == _rooted_invariants(dfs_rooted(t))


class TestLargeTrees:
    # (tree, matching, domination, has perfect matching, diameter) at n=2000;
    # the broom is a path on 1001 vertices with 999 pendants at vertex 0
    CASES = {
        "path": (make_path(2000), 1000, 667, True, 1999),
        "star": (make_star(2000), 1, 1, False, 2),
        "broom": (construct(FamilySpec("t_ndelta", n=2000, delta=1000)),
                  1 + 1000 // 2, 1 + 333, False, 1001),
    }

    @pytest.mark.parametrize("shape", sorted(CASES))
    def test_closed_values(self, shape, rng):
        t, q, gamma, perfect, diam = self.CASES[shape]
        for tree in (t, relabeled(t, rng)):
            assert matching_number(tree) == q
            assert domination_number(tree) == gamma
            assert has_perfect_matching(tree) == perfect
            assert diameter(tree) == diam


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        # oracle_counts and oracle_pair_count load lazily, on first access
        for name in treecount.__all__:
            assert getattr(treecount, name) is not None, name

    @pytest.mark.parametrize("name", ["maximum_matching", "minimum_dominating_set",
                                      "perfect_matching_edges"])
    def test_witness_searches_are_gone(self, name):
        # classes are cut by counts alone, so no witness set is exported
        assert name not in treecount.__all__
        for module in (treecount, invariants):
            with pytest.raises(AttributeError):
                getattr(module, name)
