"""The theorem scan's per-tree record, held to the reference routes: every
tree up to n=16, from a cleared branch table and through the warm one,
seeded random trees up to n=300, deep and wide trees of about 5,000
vertices, branches on both sides of the table's size cap, and random
Pruefer trees from hypothesis.  The table itself holds exactly the small
branches the scan and the constrained listing have read, and no report
depends on what it holds."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from conftest import make_path, make_star
from treecount import counting, enumeration, invariants
from treecount.enumeration import (_CACHED_BRANCH, TreeConstraint, TreeRecord,
                                   all_level_sequences, random_labeled_tree,
                                   tree_from_prufer, tree_record)
from treecount.families import FamilySpec, construct
from treecount.tree import Tree, canonical_form, preorder, tree_from_level_sequence
from treecount.verify import THEOREM_TAGS, _scan_shard, verify_theorem


def reference(t: Tree) -> TreeRecord:
    return TreeRecord(
        n=t.n, F=counting.count_subtrees(t), Fstar=counting.count_leaf_subtrees(t),
        matching=invariants.matching_number(t), domination=invariants.domination_number(t),
        diameter=invariants.diameter(t), leaves=len(t.leaves()),
        max_degree=max(len(a) for a in t.adj))


def rooted_level_seq(t: Tree, root: int) -> tuple[int, ...]:
    """Depths in the DFS preorder from root: a level sequence rooted anywhere,
    a leaf included."""
    order, parent = preorder(t, root)
    depth = {root: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    return tuple(depth[v] for v in order)


@pytest.mark.parametrize("n", range(1, 17))
def test_every_tree_up_to_16(n):
    for seq in all_level_sequences(n):
        assert tree_record(seq) == reference(tree_from_level_sequence(seq)), seq


@pytest.mark.parametrize("n", range(1, 17))
def test_every_tree_up_to_16_through_one_cache(n):
    """Every tree of order n from a cleared branch table, then every tree
    again through the table the first pass filled."""
    enumeration._BRANCHES.clear()
    for _ in range(2):
        for seq in all_level_sequences(n):
            assert tree_record(seq) == reference(tree_from_level_sequence(seq)), seq


def test_seeded_random_trees():
    rng = random.Random(20240331)
    for _ in range(200):
        t = random_labeled_tree(rng.randint(1, 300), rng)
        want = reference(t)
        assert tree_record(canonical_form(t).level_seq) == want
        assert tree_record(rooted_level_seq(t, rng.randrange(t.n))) == want


def test_leaf_rooted_path_and_star():
    path = Tree(7, [(i, i + 1) for i in range(6)])
    star = Tree(7, [(0, i) for i in range(1, 7)])
    for t in (path, star):
        for root in range(t.n):
            assert tree_record(rooted_level_seq(t, root)) == reference(t)


# (tree, root): a deep branch of 4,999 vertices, two of about 2,500, one
# 5,000-vertex hub, and a broom (t_ndelta: hub 0 with 2,499 bristles and a
# handle ending at vertex 2500) from the end of its handle and from its hub
PATH, STAR = make_path(5000), make_star(5001)
BROOM = construct(FamilySpec("t_ndelta", n=5000, delta=2500))
DEEP_AND_WIDE = [(PATH, 0), (PATH, 2500), (STAR, 1), (STAR, 0), (BROOM, 2500), (BROOM, 0)]


@pytest.mark.parametrize("t, root", DEEP_AND_WIDE,
                         ids=["path-leaf", "path-middle", "star-leaf", "star-centre",
                              "broom-handle", "broom-hub"])
def test_deep_and_wide_trees(t, root):
    assert tree_record(rooted_level_seq(t, root)) == reference(t)


def test_branches_either_side_of_the_cache_cap():
    """Roots joining principal branches of 12 and 13 vertices, each twice,
    from a cleared branch table: the record equals the reference, cold and
    warm, and the table holds exactly the branches of at most 12 vertices it
    has seen."""
    assert _CACHED_BRANCH == 12
    rng = random.Random(12)
    enumeration._BRANCHES.clear()
    seen = set()
    for _ in range(30):
        branches = []
        for size in (12, 13, rng.randint(1, 13)):
            b = random_labeled_tree(size, rng)
            branches.append(tuple(d + 1 for d in rooted_level_seq(b, rng.randrange(size))))
        branches += branches[:2]
        seq = (0,) + sum(branches, ())
        seen.update(b for b in branches if len(b) <= 12)
        want = reference(tree_from_level_sequence(seq))
        assert tree_record(seq) == want
        assert tree_record(seq) == want
    assert set(enumeration._BRANCHES) == seen


def principal_branches(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    cuts = [i for i, d in enumerate(seq) if d == 1] + [len(seq)]
    return [seq[a:b] for a, b in zip(cuts, cuts[1:])]


def test_table_holds_the_small_branches_read():
    """From a cleared table, the scan of every tag over every order up to 16,
    and apart from it the constrained listing over the same orders, each
    leave exactly the distinct principal branches of at most 12 vertices in
    those sequences, within the bound stated at _CACHED_BRANCH."""
    orders = [list(all_level_sequences(n)) for n in range(1, 17)]
    want = {b for seqs in orders for seq in seqs for b in principal_branches(seq)
            if len(b) <= 12}
    assert len(want) <= 7813
    enumeration._BRANCHES.clear()
    for seqs in orders:
        for tag in THEOREM_TAGS:
            _scan_shard(tag, seqs)
    assert set(enumeration._BRANCHES) == want
    enumeration._BRANCHES.clear()
    for seqs in orders:
        list(TreeConstraint(matching=2).select(seqs))
    assert set(enumeration._BRANCHES) == want


@pytest.mark.parametrize("jobs", [1, 2])
def test_reports_do_not_depend_on_the_table(jobs):
    """Every tag's default-range rows from a cleared table equal its rows
    once every other tag has run in this process."""
    def rows(tag):
        return [r.to_json_dict() for r in verify_theorem(tag, jobs=jobs)]

    cold = {}
    for tag in THEOREM_TAGS:
        enumeration._BRANCHES.clear()
        cold[tag] = rows(tag)
    for tag in THEOREM_TAGS:   # now every tag has run before the next pass
        rows(tag)
    for tag in THEOREM_TAGS:
        assert rows(tag) == cold[tag], tag


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=120).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2),
                        st.integers(0, n - 1))))
def test_random_pruefer_trees(case):
    prufer, root = case
    t = tree_from_prufer(prufer)
    want = reference(t)
    assert tree_record(canonical_form(t).level_seq) == want
    assert tree_record(rooted_level_seq(t, root)) == want
