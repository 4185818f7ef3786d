import itertools
import math
import random
import re
import sys
import tracemalloc
from typing import NamedTuple

import pytest

from bruteforce import DegenerateTreeError, reference_tree, strip_leaves
from conftest import LARGE_SHAPES, large_shape, make_path, make_star, relabeled, rooting_trees
from treecount import families
from treecount.enumeration import all_trees, random_labeled_tree
from treecount.families import FAMILIES, BadParamsError, FamilySpec, construct
from treecount.tree import (LabelOutOfRangeError, MalformedInputError, NotALeafError,
                            NotATreeError, TooCloseError, Tree, canonical_form, centers,
                            diameter_and_centers, is_isomorphic, parse_tree,
                            path_between, path_decomposition, serialize_tree)


class TestParse:
    def test_edgelist_p3(self):
        t = parse_tree("3\n0 1\n1 2")
        assert t.n == 3 and t.edges == ((0, 1), (1, 2))
        assert centers(t) == (1,)

    def test_levelseq_star(self):
        t = parse_tree("0 1 1 1", fmt="levelseq")
        assert is_isomorphic(t, make_star(4))

    def test_cycle_rejected(self):
        with pytest.raises(NotATreeError):
            parse_tree("4\n0 1\n1 2\n2 0")

    def test_disconnected_rejected(self):
        with pytest.raises(NotATreeError):
            parse_tree("4\n0 1\n0 1\n2 3")

    def test_wrong_edge_count(self):
        with pytest.raises(NotATreeError):
            parse_tree("4\n0 1\n1 2")

    def test_bad_tokens(self):
        with pytest.raises(MalformedInputError):
            parse_tree("3\n0 x\n1 2")
        with pytest.raises(MalformedInputError):
            parse_tree("three\n0 1\n1 2")
        with pytest.raises(MalformedInputError):
            parse_tree("0 2 1", fmt="levelseq")

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            parse_tree("3\n0 1\n1 5")

    @pytest.mark.parametrize("text, error, message", [
        ("4\n0 9\n1 2\nx y\n", LabelOutOfRangeError, "edge (0, 9) outside 0..3"),
        ("4\nx y\n1 2\n0 9\n", MalformedInputError, "bad edge line: 'x y'"),
        ("4\n1 1\n1 2\nq\n", NotATreeError, "self-loop at vertex 1"),
        ("4\n0 1\nq\n2 2\n", MalformedInputError, "bad edge line: 'q'"),
        ("4\n0 1\n0 1\n2 3 4\n", MalformedInputError, "bad edge line: '2 3 4'"),
        ("4\n0 1\n0 1\n2 3\n", NotATreeError, "duplicate edge"),
        ("4\n0 1\n2 3\n9 1\n", LabelOutOfRangeError, "edge (9, 1) outside 0..3"),
        ("4\n0 9\n1 2\n", NotATreeError, "2 edge lines for n=4, expected 3"),
    ])
    def test_first_fault_in_file_order(self, text, error, message):
        # the count lines are checked first, then each edge line in file
        # order; a duplicate edge or a disconnection shows after the last line
        with pytest.raises(error) as exc:
            parse_tree(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, fmt, error, message", [
        ("", "edgelist", MalformedInputError, "empty input"),
        ("\n\n", "edgelist", MalformedInputError, "empty input"),
        (" \n", "levelseq", MalformedInputError, "empty input"),
        ("0\n", "edgelist", NotATreeError, "vertex count must be positive"),
        ("1 2 2\n", "levelseq", MalformedInputError, "level sequence must start at depth 0"),
        ("0 1 x\n", "levelseq", MalformedInputError,
         "level sequence entries must be integers"),
        ("0 1 1.5\n", "levelseq", MalformedInputError,
         "level sequence entries must be integers"),
        ("0 0\n", "levelseq", MalformedInputError, "invalid depth 0 at position 1"),
        ("0 1 0\n", "levelseq", MalformedInputError, "invalid depth 0 at position 2"),
        ("1\n", "dot", ValueError, "unknown format 'dot'"),
    ])
    def test_input_errors(self, text, fmt, error, message):
        with pytest.raises(error) as exc:
            parse_tree(text, fmt)
        assert type(exc.value) is error and str(exc.value) == message


class Edge(NamedTuple):
    u: int
    v: int


class TestConstruction:
    def test_edge_order_and_orientation_do_not_matter(self):
        # edges as tuples, lists or named tuples are stored as plain tuples
        rng = random.Random(14)
        for _ in range(300):
            t = random_labeled_tree(rng.randint(1, 60), rng)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
            rng.shuffle(edges)
            for given in (edges, [list(e) for e in edges], [Edge(*e) for e in edges]):
                s = Tree(t.n, given)
                assert s.edges == t.edges == tuple(sorted(t.edges))
                assert all(type(e) is tuple for e in s.edges)
                assert s.adj == t.adj
            assert s.adj == tuple(tuple(sorted(w for e in t.edges for w in e
                                               if v in e and w != v))
                                  for v in range(t.n))

    def test_input_edges_are_not_kept(self):
        # no edge given is referenced by the tree, whatever its type or order
        rng = random.Random(19)
        for _ in range(50):
            t = random_labeled_tree(rng.randint(2, 60), rng)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
            for given in (edges, [list(e) for e in edges], [Edge(*e) for e in edges]):
                before = [sys.getrefcount(e) for e in given]
                s = Tree(t.n, given)
                assert [sys.getrefcount(e) for e in given] == before
                assert s == t

    @pytest.mark.parametrize("shape", ["path", "random"])
    def test_build_memory(self, shape):
        # At n = 10^5 a tree keeps 80.0-80.1 bytes per vertex (adjacency
        # tuples and rooting) and its build peaks at 1.30-1.31 times that,
        # by tracemalloc on Python 3.11.  The bounds leave 12% and 15% over
        # those figures; a build that holds a second copy of the edges peaks
        # at 2.4 times what it keeps.
        n = 100_000
        edges = list(large_shape(shape, n).edges)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t = Tree(n, edges)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert t.n == n
        assert kept <= 90 * n
        assert peak <= 1.5 * kept

    @pytest.mark.parametrize("shape, per_vertex", [("star", 36), ("broom", 63)])
    def test_hub_memory(self, shape, per_vertex):
        # The leaves of a hub share one adjacency tuple: at n = 10^5 a star
        # keeps 32.0 and a broom (delta = n/2) 56.0 bytes per vertex, where a
        # tuple per leaf keeps 80.0, and either build peaks at 128 bytes per
        # vertex at most, by tracemalloc on Python 3.11.
        n = 100_000
        edges = list(large_shape(shape, n).edges)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t = Tree(n, edges)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert t.n == n
        assert kept <= per_vertex * n
        assert peak <= 140 * n

    def test_leaves_of_a_vertex_share_one_tuple(self):
        # every tree of rooting_trees() and every family member with each
        # parameter it reads in None, 0..13
        members = []
        for fam in FAMILIES:
            fields = families._SHAPES[fam][0]
            for values in itertools.product((None, *range(14)), repeat=len(fields)):
                try:
                    members.append(construct(FamilySpec(fam, **dict(zip(fields, values)))))
                except BadParamsError:
                    pass
        assert len(members) == 3065
        for t in itertools.chain(rooting_trees(), members):
            shared = {}
            for v in range(1, t.n):
                if len(t.adj[v]) == 1:
                    assert shared.setdefault(t.adj[v][0], t.adj[v]) is t.adj[v], (t, v)

    # (n, edges, exception, message): checks run in this order, so an input
    # with several faults reports the first
    MALFORMED = [
        (0, [], NotATreeError, "a tree has at least one vertex"),
        (3, [(0, 1), (2, 2)], NotATreeError, "self-loop at vertex 2"),
        (3, [(0, 1), (1, 3), (1, 1)], LabelOutOfRangeError, "edge (1, 3) outside 0..2"),
        (3, [(1, 1), (1, 3)], NotATreeError, "self-loop at vertex 1"),
        (3, [(-1, 0), (0, 1)], LabelOutOfRangeError, "edge (-1, 0) outside 0..2"),
        (4, [(0, 1), (1, 0)], NotATreeError, "2 edges for 4 vertices, expected 3"),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], NotATreeError,
         "4 edges for 4 vertices, expected 3"),
        (4, [(0, 1), (1, 0), (2, 3)], NotATreeError, "duplicate edge"),
        (4, [(2, 3), (0, 1), (3, 2)], NotATreeError, "duplicate edge"),
        (4, [(0, 1), (1, 2), (2, 0)], NotATreeError, "graph is not connected"),
        (5, [(3, 4), (0, 1), (1, 2), (2, 0)], NotATreeError, "graph is not connected"),
    ]

    @pytest.mark.parametrize("n, edges, exc, message", MALFORMED)
    def test_malformed_input_class_and_message(self, n, edges, exc, message):
        with pytest.raises(exc) as info:
            Tree(n, edges)
        assert type(info.value) is exc and str(info.value) == message


def _presentations(t: Tree, rng: random.Random):
    """t's edges shuffled and randomly reoriented, as tuples, lists and named
    tuples."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
    rng.shuffle(edges)
    return edges, [list(e) for e in edges], [Edge(*e) for e in edges]


def _built(n, edges):
    t = Tree(n, edges)
    return t.edges, t.adj, t.rooting


def _outcome(build, n, edges):
    """build(n, edges), or the class and text of the error it raises."""
    try:
        return build(n, edges)
    except ValueError as exc:
        return type(exc), str(exc)


def _malformed(rng: random.Random) -> tuple[int, list]:
    """A random tree's edge list with one to three faults: a self-loop, a
    repeated edge, a label out of range, a missing or an extra edge, or a
    cycle plus an isolated vertex."""
    n = rng.randint(1, 12)
    edges = list(random_labeled_tree(n, rng).edges)
    for _ in range(rng.randint(1, 3)):
        fault = rng.randrange(6)
        at = rng.randint(0, len(edges))
        if fault == 0:
            v = rng.randrange(n)
            edges.insert(at, (v, v))
        elif fault == 1 and edges:
            u, v = rng.choice(edges)
            edges.insert(at, (v, u) if rng.random() < 0.5 else (u, v))
        elif fault == 2:
            bad = rng.choice((-1, -rng.randint(2, 5), n, n + rng.randint(1, 5)))
            edges.insert(at, (rng.randrange(n), bad) if rng.random() < 0.5
                         else (bad, rng.randrange(n)))
        elif fault == 3 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif fault == 4:
            edges.insert(at, (rng.randrange(n), rng.randrange(n)))
        elif n >= 3:
            # close a cycle, then add a vertex no edge reaches and shuffle
            # the labels, so the edge count is right but the graph is split
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
            n += 1
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[a] if 0 <= a < n else a, perm[b] if 0 <= b < n else b)
                     for a, b in edges]
    rng.shuffle(edges)
    return n, edges


class TestConstructionReference:
    """Tree construction against the normalise-sort-scan reference route."""

    def test_every_small_tree(self):
        rng = random.Random(20)
        seen: dict = {}  # (n, reference edges) -> the first Tree built on them
        for n in range(1, 11):
            for t in all_trees(n):
                for _ in range(2):
                    t = relabeled(t, rng)
                    for given in _presentations(t, rng):
                        ref = reference_tree(n, given)
                        s = Tree(n, given)
                        assert (s.edges, s.adj, s.rooting) == ref
                        first = seen.setdefault((n, ref[0]), s)
                        assert s == first and hash(s) == hash(first)
                        assert s == Tree(n, ref[0])
        # trees on different edge sets are unequal
        assert len(set(seen.values())) == len(seen)

    def test_random_trees(self):
        rng = random.Random(21)
        for _ in range(300):
            t = random_labeled_tree(rng.randint(1, 2000), rng)
            given = _presentations(t, rng)[rng.randrange(3)]
            ref = reference_tree(t.n, given)
            s = Tree(t.n, given)
            assert (s.edges, s.adj, s.rooting) == ref
            assert s == t and hash(s) == hash(t)

    def test_malformed_fuzz(self):
        rng = random.Random(22)
        messages = set()
        for _ in range(3000):
            n, edges = _malformed(rng)
            if rng.random() < 0.02:
                n = rng.randint(-2, 0)
            given = (edges, [list(e) for e in edges], [Edge(*e) for e in edges])[rng.randrange(3)]
            want = _outcome(reference_tree, n, given)
            assert _outcome(_built, n, given) == want
            if isinstance(want[0], type):
                messages.add(re.sub(r"-?\d+", "#", want[1]))
        # each check is the first to fail on some input
        assert messages == {"a tree has at least one vertex", "self-loop at vertex #",
                            "edge (#, #) outside #..#", "# edges for # vertices, expected #",
                            "duplicate edge", "graph is not connected"}


def _check_rooting(t: Tree) -> None:
    """t.rooting is a rooting at 0: a permutation with each vertex after its
    parent, which is a neighbour."""
    order, parent = t.rooting
    assert type(order) is tuple and type(parent) is tuple
    assert sorted(order) == list(range(t.n)) and len(parent) == t.n
    assert order[0] == 0 and parent[0] == -1
    position = {v: i for i, v in enumerate(order)}
    for v in order[1:]:
        assert parent[v] in t.adj[v]
        assert position[parent[v]] < position[v]


class TestRooting:
    def test_every_small_tree(self):
        rng = random.Random(16)
        for n in range(1, 11):
            for t in all_trees(n):
                t = relabeled(t, rng)
                edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
                rng.shuffle(edges)
                s = Tree(n, edges)
                _check_rooting(s)
                assert s.rooting == t.rooting

    def test_random_and_large(self):
        rng = random.Random(17)
        for _ in range(100):
            _check_rooting(random_labeled_tree(rng.randint(1, 2000), rng))
        for shape in LARGE_SHAPES:
            _check_rooting(large_shape(shape))


class TestSerialize:
    def test_edgelist_bytes(self):
        assert serialize_tree(make_path(3)) == "3\n0 1\n1 2\n"
        assert serialize_tree(Tree(1, [])) == "1\n"

    def test_levelseq_bytes(self):
        assert serialize_tree(make_star(4), "levelseq") == "0 1 1 1\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="^unknown format 'dot'$"):
            serialize_tree(make_star(4), "dot")

    def test_levelseq_deep_path(self):
        # far deeper than the interpreter's recursion limit; the 2500-vertex
        # arm comes after the 2499-vertex one, its prefix
        depths = [0, *range(1, 2500), *range(1, 2501)]
        assert serialize_tree(make_path(5000), "levelseq") == " ".join(map(str, depths)) + "\n"

    def test_roundtrip_all_small(self):
        for n in range(1, 11):
            for t in all_trees(n):
                assert parse_tree(serialize_tree(t)) == t
                back = parse_tree(serialize_tree(t, "levelseq"), fmt="levelseq")
                assert is_isomorphic(back, t)


class TestCanonicalForm:
    def test_pinned_sequences(self):
        assert canonical_form(make_path(4)).level_seq == (0, 1, 1, 2)
        assert canonical_form(make_star(4)).level_seq == (0, 1, 1, 1)

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(200):
            t = random_labeled_tree(rng.randint(2, 30), rng)
            want = canonical_form(t)
            for _ in range(100):
                assert canonical_form(relabeled(t, rng)) == want

    def test_isomorphism_examples(self):
        rng = random.Random(1)
        assert is_isomorphic(make_path(4), relabeled(make_path(4), rng))
        assert not is_isomorphic(make_path(4), make_star(4))
        pendant_pair = construct(FamilySpec("pk_ab", k=4, a=1, b=1))
        assert is_isomorphic(pendant_pair, make_path(6))


class TestCenters:
    def test_examples(self):
        assert centers(make_path(5)) == (2,)
        assert centers(make_path(6)) == (2, 3)
        assert centers(make_star(5)) == (0,)

    def test_center_eccentricity(self):
        # the centers are the vertices of least eccentricity, ceil(diam / 2),
        # from a breadth-first search at every vertex
        rng = random.Random(18)
        trees = [relabeled(t, rng) for n in range(1, 13) for t in all_trees(n)]
        trees += [random_labeled_tree(rng.randint(2, 300), rng) for _ in range(100)]
        for t in trees:
            ecc = []
            for src in range(t.n):
                dist = {src: 0}
                frontier = [src]
                while frontier:
                    nxt = []
                    for v in frontier:
                        for w in t.adj[v]:
                            if w not in dist:
                                dist[w] = dist[v] + 1
                                nxt.append(w)
                    frontier = nxt
                ecc.append(max(dist.values()))
            diam = max(ecc)
            cs = centers(t)
            assert diameter_and_centers(t) == (diam, cs)
            assert cs == tuple(v for v in range(t.n) if ecc[v] == min(ecc))
            assert len(cs) == 1 + diam % 2
            if len(cs) == 2:
                assert cs in t.edges
            for c in cs:
                assert ecc[c] == math.ceil(diam / 2)


class TestStripLeaves:
    def test_examples(self):
        stem, _ = strip_leaves(make_path(5))
        assert is_isomorphic(stem, make_path(3))
        stem, _ = strip_leaves(make_star(5))
        assert stem.n == 1

    def test_broom_stem(self):
        big, _ = strip_leaves(construct(FamilySpec("tprime_ndelta", n=12, delta=4)))
        assert is_isomorphic(big, construct(FamilySpec("t_ndelta", n=8, delta=3)))

    def test_degenerate(self):
        with pytest.raises(DegenerateTreeError):
            strip_leaves(Tree(2, [(0, 1)]))

    def test_stems_are_trees_exhaustive(self):
        for n in range(3, 13):
            for t in all_trees(n):
                stem, old_to_new = strip_leaves(t)  # Tree() validates shape
                assert stem.n == t.n - len(t.leaves())
                for old, new in old_to_new.items():
                    assert t.degree(old) > 1 and 0 <= new < stem.n


class TestPaths:
    def test_path_between(self):
        assert path_between(make_path(4), 0, 3) == (0, 1, 2, 3)
        assert path_between(make_path(4), 2, 2) == (2,)
        assert path_between(make_star(4), 1, 3) == (1, 0, 3)

    @pytest.mark.parametrize("u, v", [(4, 0), (0, 4), (-1, 0), (0, -1)])
    def test_path_between_out_of_range(self, u, v):
        with pytest.raises(LabelOutOfRangeError, match=f"^vertex out of range: {u}, {v}$"):
            path_between(make_path(4), u, v)

    def test_decomposition_endpoint_out_of_range(self):
        t = make_path(5)
        for x, y in ((5, 0), (0, 5), (-1, 0)):
            with pytest.raises(LabelOutOfRangeError):
                path_decomposition(t, x, y)

    def test_decomposition_p5(self):
        dec = path_decomposition(make_path(5), 0, 4)
        assert dec.path == (0, 1, 2, 3, 4)
        assert [c.original_vertices for c in dec.x_components] == [(1,)]
        assert [c.original_vertices for c in dec.y_components] == [(3,)]
        assert dec.z_component.original_vertices == (2,)

    def test_decomposition_p4_odd(self):
        dec = path_decomposition(make_path(4), 0, 3)
        assert dec.z_component is None
        assert [c.original_vertices for c in dec.x_components] == [(1,)]
        assert [c.original_vertices for c in dec.y_components] == [(2,)]

    def test_decomposition_hat(self):
        # pendants in the middle of a 5-path end up inside the Z component
        t = construct(FamilySpec("hat", n=7, d=4, k=3))
        dec = path_decomposition(t, 0, 4)
        assert set(dec.z_component.original_vertices) == {2, 5, 6}
        assert dec.z_component.tree.n == 3

    def test_decomposition_partitions(self, rng):
        for _ in range(60):
            t = random_labeled_tree(rng.randint(4, 18), rng)
            leaves = t.leaves()
            x = rng.choice(leaves)
            far = [y for y in leaves if len(path_between(t, x, y)) >= 3]
            if not far:
                continue
            y = rng.choice(far)
            dec = path_decomposition(t, x, y)
            pieces = list(dec.x_components) + list(dec.y_components)
            if dec.z_component is not None:
                pieces.append(dec.z_component)
            covered = [x, y]
            for c in pieces:
                covered.extend(c.original_vertices)
            assert sorted(covered) == list(range(t.n))

    @staticmethod
    def _check_component(t, comp, expected):
        """The component is the induced subtree on the expected vertices,
        relabeled in sorted order, rooted at its path vertex."""
        kept = sorted(expected)
        new = {v: i for i, v in enumerate(kept)}
        assert comp.original_vertices == tuple(kept)
        assert comp.tree == Tree(len(kept), [(new[u], new[v]) for u, v in t.edges
                                             if u in new and v in new])

    def test_decomposition_long_path(self):
        n = 4000
        t = make_path(n)
        dec = path_decomposition(t, 0, n - 1)
        assert dec.path == tuple(range(n)) and dec.z_component is None
        assert len(dec.x_components) == len(dec.y_components) == (n - 1) // 2
        for i, (cx, cy) in enumerate(zip(dec.x_components, dec.y_components), 1):
            assert (cx.original_vertices, cx.root, cx.tree.n) == ((i,), 0, 1)
            assert (cy.original_vertices, cy.root, cy.tree.n) == ((n - 1 - i,), 0, 1)
        dec = path_decomposition(make_path(n - 1), 0, n - 2)
        assert dec.z_component.original_vertices == ((n - 2) // 2,)

    def test_decomposition_caterpillars(self, rng):
        # spine 0..L-1, then pendants; x and y are pendants at spine
        # vertices i <= j, so the path is x, i, ..., j, y.  Interior spine
        # vertex s keeps its own pendants, and i and j also keep the spine
        # beyond them with its pendants.
        for _ in range(40):
            spine = rng.randint(1, 60)
            edges = [(s, s + 1) for s in range(spine - 1)]
            pendants = {s: [] for s in range(spine)}
            m = spine
            for s in range(spine):
                for _ in range(rng.randint(0, 3)):
                    edges.append((s, m))
                    pendants[s].append(m)
                    m += 1
            hosts = [s for s in range(spine) if pendants[s]]
            if not hosts:
                continue
            i, j = sorted(rng.choice(hosts) for _ in range(2))
            if i == j and len(pendants[i]) < 2:
                continue
            x, y = (rng.sample(pendants[i], 2) if i == j
                    else (rng.choice(pendants[i]), rng.choice(pendants[j])))
            t = Tree(m, edges)

            def expected(s):
                block = {s, *pendants[s]}
                if s == i:
                    block.update(w for r in range(i) for w in (r, *pendants[r]))
                if s == j:
                    block.update(w for r in range(j + 1, spine) for w in (r, *pendants[r]))
                return block - {x, y}

            dec = path_decomposition(t, x, y)
            path = (x, *range(i, j + 1), y)
            d = len(path) - 1
            assert dec.path == path
            side = (d - 1) // 2
            assert len(dec.x_components) == len(dec.y_components) == side
            for k in range(1, side + 1):
                for comp, s in ((dec.x_components[k - 1], path[k]),
                                (dec.y_components[k - 1], path[d - k])):
                    self._check_component(t, comp, expected(s))
                    assert comp.original_vertices[comp.root] == s
            if d % 2:
                assert dec.z_component is None
            else:
                self._check_component(t, dec.z_component, expected(path[d // 2]))

    def test_decomposition_errors(self):
        with pytest.raises(NotALeafError):
            path_decomposition(make_path(5), 1, 4)
        with pytest.raises(TooCloseError):
            path_decomposition(Tree(2, [(0, 1)]), 0, 1)


def test_tree_validation():
    with pytest.raises(NotATreeError):
        Tree(2, [(0, 0)])
    with pytest.raises(NotATreeError):
        Tree(3, [(0, 1), (0, 1)])
    with pytest.raises(LabelOutOfRangeError):
        Tree(3, [(0, 1), (1, 3)])
    with pytest.raises(NotATreeError):
        Tree(0, [])
