import random

import pytest

from bruteforce import class_count_by_formula, prufer_class_count
from conftest import make_path, make_star
from treecount.enumeration import (MAX_ORDER, TooLargeError, TreeConstraint,
                                   all_level_sequences, all_trees, map_shards,
                                   random_labeled_tree, tree_from_prufer,
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


def _listed(_, seqs):
    return list(seqs)


class TestSharding:
    def test_partition_is_exact(self):
        # sequence i of shard s is sequence i * jobs + s of the whole order
        orders = range(1, 15)
        for jobs in (1, 2, 3, 4, 8):
            for n, parts in zip(orders, map_shards(_listed, None, orders, jobs)):
                assert len(parts) == jobs
                merged = [None] * sum(map(len, parts))
                for s, part in enumerate(parts):
                    for i, seq in enumerate(part):
                        merged[i * jobs + s] = seq
                assert merged == list(all_level_sequences(n)), (n, jobs)

    def test_bad_shard(self):
        for jobs in (0, -1):
            with pytest.raises(ValueError):
                map_shards(_listed, None, [5], jobs)


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
    for name, want in vars(constraint).items():
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
