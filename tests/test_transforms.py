import hashlib
import random

import pytest

from conftest import make_path, make_star, relabeled
from treecount.counting import count_leaf_subtrees, count_subtrees
from treecount.enumeration import all_trees, random_labeled_tree
from treecount.families import FamilySpec, construct
from treecount.invariants import diameter
from bruteforce import oracle_counts
from treecount.transforms import (BadAnchorError, CenterViolationError,
                                  NoPathChildError, SideTooSmallError,
                                  TransformSpec, a_transform, apply_transform,
                                  b_transform, c_anchors, c_transform,
                                  classify_c_anchor,
                                  is_pendant_path_component)
from treecount.tree import Tree, is_isomorphic, path_decomposition, serialize_tree


class TestATransform:
    def test_star_becomes_path(self):
        # removing a leaf of K_{1,4} leaves one 4-vertex branch; straightening
        # it yields P_5
        t = make_star(5)
        out, label_map = a_transform(t, 1, 0)
        assert is_isomorphic(out, make_path(5))
        assert count_subtrees(t) == 20 and count_subtrees(out) == 15
        assert count_leaf_subtrees(t) == 19 and count_leaf_subtrees(out) == 9
        assert label_map == {1: 0}

    def test_pendant_path_is_fixed_point(self):
        t = construct(FamilySpec("t_ndelta", n=7, delta=3))  # broom, hub 0
        out, _ = a_transform(t, 0, 1)  # the handle is already a pendant path
        assert is_isomorphic(out, t)
        assert count_subtrees(out) == count_subtrees(t)

    def test_never_increases_counts(self, rng):
        for _ in range(150):
            t = random_labeled_tree(rng.randint(4, 14), rng)
            u = rng.randrange(t.n)
            root = rng.choice(t.adj[u])
            out, _ = a_transform(t, u, root)
            assert out.n == t.n
            assert count_subtrees(out) <= count_subtrees(t)
            assert count_leaf_subtrees(out) <= count_leaf_subtrees(t)
            pend = is_pendant_path_component(t, u, root)
            assert (count_subtrees(out) == count_subtrees(t)) == pend

    def test_bad_anchor(self):
        with pytest.raises(BadAnchorError):
            a_transform(make_path(4), 2, 2)

    def test_pendant_path_test_is_the_definition(self):
        # every cut vertex u and every other vertex r of every tree with
        # n <= 9: the branch of t - u holding r, with u, induces a path ending at u
        for n in range(2, 10):
            for t in all_trees(n):
                for u in range(n):
                    for r in range(n):
                        if r != u:
                            want = _pendant_path_by_search(t, u, r)
                            assert is_pendant_path_component(t, u, r) == want, (t, u, r)

    @pytest.mark.parametrize("u, root", [(-1, 0), (3, -2), (0, 0), (9, 0), (4, 0), (0, 4)])
    def test_pendant_path_test_refuses_bad_anchors(self, u, root):
        # the same refusal as a_transform, not a wrapped index or an IndexError
        message = f"^bad anchors u={u}, component_root={root}$"
        for call in (a_transform, is_pendant_path_component):
            with pytest.raises(BadAnchorError, match=message):
                call(make_path(4), u, root)


def _pendant_path_by_search(t: Tree, u: int, r: int) -> bool:
    """The definition, by search: the vertices reached from r without
    passing u, together with u, induce a path whose one end is u."""
    seen = {u, r}
    stack = [r]
    while stack:
        for w in t.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    degree = {v: sum(w in seen for w in t.adj[v]) for v in seen}
    return degree[u] == 1 and max(degree.values()) <= 2


class TestBTransform:
    def test_path_to_star(self):
        t = make_path(4)
        out, label_map = b_transform(t, 1, 2)
        assert is_isomorphic(out, make_star(4))
        assert count_subtrees(t) == 10 and count_subtrees(out) == 11
        assert count_leaf_subtrees(t) == 7 and count_leaf_subtrees(out) == 10
        # merged vertex keeps u's (compacted) label, pendant gets n-1
        assert label_map[2] == label_map[1] == 1
        assert (label_map[1], t.n - 1) in out.edges

    def test_p6_middle_edge(self):
        out, _ = b_transform(make_path(6), 2, 3)
        assert is_isomorphic(out, construct(FamilySpec("spider", n=6, k=3)))
        assert count_subtrees(out) > count_subtrees(make_path(6))

    def test_strict_increase(self, rng):
        for _ in range(150):
            t = random_labeled_tree(rng.randint(4, 14), rng)
            internal = [e for e in t.edges
                        if t.degree(e[0]) >= 2 and t.degree(e[1]) >= 2]
            if not internal:
                continue
            u, v = rng.choice(internal)
            out, _ = b_transform(t, u, v)
            assert out.n == t.n
            assert count_subtrees(out) > count_subtrees(t)
            assert count_leaf_subtrees(out) > count_leaf_subtrees(t)

    def test_errors(self):
        with pytest.raises(BadAnchorError):
            b_transform(make_path(4), 0, 2)
        with pytest.raises(BadAnchorError, match=r"^\(4, 3\) is not an edge$"):
            b_transform(make_path(4), 4, 3)    # u one past the last vertex
        with pytest.raises(SideTooSmallError):
            b_transform(make_path(4), 0, 1)


class TestCTransform:
    def test_worked_example(self):
        # path z-u-w-v plus two pendants at v; moving one pendant up to the
        # center w gives the 2-2-1 spider
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
        assert classify_c_anchor(t, 3) == ("C", 2)
        out, label_map = c_transform(t, 3)
        assert label_map == {i: i for i in range(6)}
        before, after = oracle_counts(t), oracle_counts(out)
        assert (before.F, after.F) == (24, 25)
        assert after.Fstar > before.Fstar
        assert count_subtrees(t) == 24 and count_subtrees(out) == 25

    def test_bicentral_variant(self):
        # two adjacent hubs with two pendants each: both are centers
        t = Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        kind, w = classify_c_anchor(t, 0)
        assert kind == "Cprime" and w == 1
        out, _ = c_transform(t, 0)
        assert count_subtrees(out) > count_subtrees(t)
        assert len(out.leaves()) == len(t.leaves())

    def test_preserves_leaves_and_diameter(self, rng):
        done = 0
        while done < 100:
            t = random_labeled_tree(rng.randint(5, 14), rng)
            anchors = []
            for v in range(t.n):
                try:
                    c_transform(t, v)
                    anchors.append(v)
                except ValueError:
                    continue
            if not anchors:
                continue
            v = rng.choice(anchors)
            out, _ = c_transform(t, v)
            assert len(out.leaves()) == len(t.leaves())
            assert diameter(out) <= diameter(t)
            assert count_subtrees(out) > count_subtrees(t)
            assert count_leaf_subtrees(out) > count_leaf_subtrees(t)
            done += 1

    def test_errors(self):
        with pytest.raises(CenterViolationError):
            c_transform(make_star(5), 0)       # unique center, no C' form
        with pytest.raises(BadAnchorError):
            c_transform(make_path(6), 1)       # degree 2 anchor
        with pytest.raises(BadAnchorError, match="^vertex 5 out of range$"):
            c_transform(make_star(5), 5)       # one past the last vertex
        # anchor whose child subtrees are all mid-attached (never pendant paths)
        t = Tree(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7),
                      (4, 8), (8, 9), (8, 10)])
        with pytest.raises(NoPathChildError):
            c_transform(t, 4)

    def test_large_degree_anchor(self):
        # a path on 150,000 vertices with 50,000 leaves on vertex 1: the
        # rewrite keeps leg 0 and hands every leaf to vertex 2, in O(n)
        n_path, n_leaves = 150_000, 50_000
        t = Tree(n_path + n_leaves, [(i, i + 1) for i in range(n_path - 1)]
                 + [(1, n_path + j) for j in range(n_leaves)])
        out, _ = c_transform(t, 1)
        assert out.adj[1] == (0, 2)
        assert out.degree(2) == n_leaves + 2
        assert out.adj[2] == (1, 3, *range(n_path, n_path + n_leaves))


def _c_anchors_by_trial(t: Tree) -> list[int]:
    anchors = []
    for v in range(t.n):
        try:
            c_transform(t, v)
        except ValueError:
            continue
        anchors.append(v)
    return anchors


class TestCAnchors:
    def test_every_small_tree(self):
        for n in range(1, 12):
            for t in all_trees(n):
                assert c_anchors(t) == _c_anchors_by_trial(t)

    def test_random_trees(self):
        rng = random.Random(40)
        for _ in range(2000):
            t = random_labeled_tree(rng.randint(1, 40), rng)
            assert c_anchors(t) == _c_anchors_by_trial(t)

    def test_bicentral_partner_rule(self):
        # two hubs of degree 3 joined by an edge: both are C' anchors; with
        # one hub cut down to degree 2 neither is (the partner needs degree > 2)
        t = Tree(8, [(0, 1), (0, 2), (2, 3), (0, 4), (1, 5), (5, 6), (1, 7)])
        assert c_anchors(t) == [0, 1] == _c_anchors_by_trial(t)
        u = Tree(7, [(0, 1), (0, 2), (2, 3), (0, 4), (1, 5), (5, 6)])
        assert c_anchors(u) == [] == _c_anchors_by_trial(u)


class TestDispatch:
    def test_apply_enforces_declared_kind(self):
        t = Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        out, _ = apply_transform(t, TransformSpec(kind="Cprime", v=0))
        assert count_subtrees(out) > count_subtrees(t)
        with pytest.raises(CenterViolationError):
            apply_transform(t, TransformSpec(kind="C", v=0))
        with pytest.raises(BadAnchorError):
            apply_transform(t, TransformSpec(kind="Z", v=0))

    def test_apply_refuses_cprime_off_the_centers(self):
        # 3 is a plain C anchor of this path-like tree, whose center is 2
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
        with pytest.raises(CenterViolationError,
                           match="^anchor is not a center vertex; use C$"):
            apply_transform(t, TransformSpec(kind="Cprime", v=3))

    def test_apply_is_the_rewrite(self):
        # the worked example of TestCTransform: 3 is a C anchor, 1-2 an
        # inner edge, and 0 cuts off the branch at 1
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
        for spec, want in ((TransformSpec("A", u=0, component_root=1), a_transform(t, 0, 1)),
                           (TransformSpec("a", u=0, component_root=1), a_transform(t, 0, 1)),
                           (TransformSpec("B", u=1, v=2), b_transform(t, 1, 2)),
                           (TransformSpec("C", v=3), c_transform(t, 3))):
            assert apply_transform(t, spec) == want, spec

    @pytest.mark.parametrize("spec, message", [
        (TransformSpec("A", component_root=1), "A needs u and component_root"),
        (TransformSpec("A", u=0), "A needs u and component_root"),
        (TransformSpec("B", v=2), "B needs u and v"),
        (TransformSpec("B", u=1), "B needs u and v"),
        (TransformSpec("C"), "C needs v"),
        (TransformSpec("Cprime"), "C needs v"),
    ])
    def test_apply_names_the_missing_anchor(self, spec, message):
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
        with pytest.raises(BadAnchorError, match=f"^{message}$"):
            apply_transform(t, spec)


def _outcome(call, *args) -> str:
    """The serialized result of one rewrite or cut, or its refusal's class
    and message."""
    try:
        out = call(*args)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    if isinstance(out, bool):
        return str(out)
    if isinstance(out, tuple) and isinstance(out[0], Tree):
        return serialize_tree(out[0]) + repr(sorted(out[1].items()))
    parts = [repr(out.path)]
    for comp in (*out.x_components, *out.y_components, out.z_component):
        if comp is not None:
            parts.append(f"{serialize_tree(comp.tree)}{comp.root} {comp.original_vertices!r}")
    return "|".join(parts)


class TestSurgeryPinned:
    """Every cut and join on every tree with n <= 10 (as enumerated and
    relabeled), at every admissible anchor, pinned as recorded before the
    rewrites and the path decomposition shared one component search."""

    @staticmethod
    def _trees():
        rng = random.Random(18)
        for n in range(1, 11):
            for t in all_trees(n):
                yield t
                yield relabeled(t, rng)

    def _digest(self, lines) -> str:
        h = hashlib.sha256()
        for line in lines:
            h.update(line.encode() + b"\n")
        return h.hexdigest()

    def test_a_transform_and_pendant_test(self):
        lines = (_outcome(call, t, u, r) for t in self._trees()
                 for u in range(t.n) for r in range(t.n) if r != u
                 for call in (a_transform, is_pendant_path_component))
        assert self._digest(lines) == (
            "345931607771d67f62a7b70a502faf3c7740f67c91134862f4ba6ed6540ea8b4")

    def test_c_transform(self):
        lines = (_outcome(c_transform, t, v) for t in self._trees() for v in range(t.n))
        assert self._digest(lines) == (
            "f9ad3ed136c2bd28c01872689dc7042d210b33993dfa8b2db0472c28b77dad06")

    def test_path_decomposition(self):
        lines = (_outcome(path_decomposition, t, x, y) for t in self._trees()
                 for x in t.leaves() for y in t.leaves() if x != y)
        assert self._digest(lines) == (
            "568dbe0835472059469b4ae08bb736ad841c2269fc1b03891e003301e022cb76")
