"""Immutable labeled trees: construction, text formats, canonical forms,
diameter and centers, and the leaf-to-leaf path decomposition.

Vertices are always the integers ``0..n-1``.  Two text formats are supported:

* ``edgelist`` -- first line is the vertex count ``n``, followed by ``n-1``
  lines ``"u v"``, LF-terminated.  Labels are preserved exactly.
* ``levelseq`` -- a single line of preorder depths starting with ``0``.
  Writing always emits the canonical level sequence, so the output is an
  isomorphism invariant.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, NamedTuple


class MalformedInputError(ValueError):
    """Text that cannot be tokenized into the expected tree format."""


class LabelOutOfRangeError(ValueError):
    """An edge endpoint lies outside 0..n-1."""


class NotATreeError(ValueError):
    """Edge set with a cycle, a disconnection, or the wrong edge count."""


class NotALeafError(ValueError):
    """A vertex that was required to be a leaf is not one."""


class TooCloseError(ValueError):
    """Path endpoints are closer together than the operation allows."""


class Tree:
    """Undirected tree on vertices 0..n-1, immutable after construction.

    Construction validates the edge count, label range, connectivity and
    absence of self-loops/duplicate edges (acyclicity follows from the edge
    count once connectivity holds).

    ``rooting = (order, parent)`` is the tree rooted at vertex 0: ``order``
    lists every vertex with each parent before its children (breadth-first),
    and ``parent[0] == -1``.  Every pass that needs children before their
    parent (reversed ``order``) or parents first reads it instead of
    rooting the tree again.  The leaves of one vertex share one adjacency
    tuple.
    """

    __slots__ = ("n", "adj", "rooting")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise NotATreeError("a tree has at least one vertex")
        adj: list = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise LabelOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise NotATreeError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
            m += 1
        if m != n - 1:
            raise NotATreeError(f"{m} edges for {n} vertices, expected {n - 1}")
        # connected + n-1 edges => acyclic.  The breadth-first search that
        # checks it is kept as the rooting at 0; its list grows as it is
        # read.  Each list is sorted and frozen when its vertex is visited,
        # so a connected graph leaves every list ascending.  A vertex other
        # than 0 with one neighbour is a leaf below that neighbour; the
        # search lists a vertex's children together, so each leaf takes the
        # previous leaf's tuple when they share the neighbour.
        parent = [-2] * n
        parent[0] = -1
        order = [0]
        leaf = (-1,)
        for v in order:
            nbrs = adj[v]
            if len(nbrs) == 1 and v:
                if nbrs[0] != leaf[0]:
                    leaf = (nbrs[0],)
                adj[v] = leaf
                continue
            nbrs.sort()
            adj[v] = tuple(nbrs)
            for w in nbrs:
                if parent[w] == -2:
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            # n-1 edges with a repeat cannot connect n vertices, so a
            # repeated edge shows only here, as two equal neighbours
            if any(len(set(nbrs)) != len(nbrs) for nbrs in adj):
                raise NotATreeError("duplicate edge")
            raise NotATreeError("graph is not connected")
        self.n = n
        self.adj = tuple(adj)
        self.rooting = (tuple(order), tuple(parent))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as (u, v), u < v, ascending: O(n) from ``adj`` per access."""
        return tuple((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if v > u)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_leaf(self, v: int) -> bool:
        # The single vertex of a one-vertex tree counts as a pendant vertex;
        # this keeps the leaf-subtree bookkeeping consistent at order 1.
        return len(self.adj[v]) <= 1

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.is_leaf(v))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={list(self.edges)})"


class CanonicalForm(NamedTuple):
    """Order-invariant encoding of a tree: equal iff the trees are isomorphic."""

    level_seq: tuple[int, ...]


class RootedComponent(NamedTuple):
    """A connected piece of a larger tree, relabeled to 0..k-1.

    ``original_vertices[i]`` is the label the new vertex ``i`` had in the host
    tree; ``root`` is the new label of the component's attachment vertex.
    """

    tree: Tree
    root: int
    original_vertices: tuple[int, ...]


class PathDecomposition(NamedTuple):
    """Components left after deleting the edges of a leaf-to-leaf path.

    ``path`` runs from x to y in host labels.  ``x_components[i-1]`` hangs at
    the i-th interior path vertex counted from x, ``y_components[i-1]`` at the
    i-th from y, and ``z_component`` (present iff the path length is even) at
    the middle vertex.
    """

    path: tuple[int, ...]
    x_components: tuple[RootedComponent, ...]
    y_components: tuple[RootedComponent, ...]
    z_component: RootedComponent | None


def preorder(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """DFS preorder and parent array (parent[root] = -1) of t rooted at root."""
    parent = [-2] * t.n
    parent[root] = -1
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in t.adj[v]:
            if parent[w] == -2:
                parent[w] = v
                stack.append(w)
    return order, parent


def diameter_and_centers(t: Tree) -> tuple[int, tuple[int, ...]]:
    """The diameter d and the one or two centers (sorted), from t's rooting.

    A longest path tops out where it joins a vertex's two highest child
    branches.  The centers are its middle (Jordan 1869), and they lie on
    the root's highest branch: the deepest vertex a below the root ends a
    longest path a..b, and a vertex of a..b off the root-a path is at least
    two steps farther from a than from b, so it is not the middle.  The walk
    down highest children from the root meets the centers ceil(d/2) and
    floor(d/2) above a.
    """
    order, parent = t.rooting
    height = [0] * t.n
    top = [0] * t.n  # the highest child, where height > 0
    d = 0
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            h = height[v] + 1
            if height[p] + h > d:
                d = height[p] + h
            if h > height[p]:
                height[p] = h
                top[p] = v
    c = order[0]
    for _ in range(height[c] - (d + 1) // 2):
        c = top[c]
    return d, ((c,) if d % 2 == 0 else tuple(sorted((c, top[c]))))


def centers(t: Tree) -> tuple[int, ...]:
    """The one or two vertices of minimum eccentricity, sorted."""
    return diameter_and_centers(t)[1]


def _rooted_level_seq(t: Tree, root: int) -> tuple[int, ...]:
    # Lexicographically smallest preorder depth sequence over all plane
    # embeddings: child blocks are sorted ascending, which minimizes the
    # concatenation because a block has exactly one entry at its top depth.
    # Blocks hold depths from the root, so sibling blocks compare as their
    # shifted copies would and none is shifted; children are done before
    # their parent in reverse preorder, so no recursion limit applies.
    order, parent = preorder(t, root)
    depth = [0] * t.n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    blocks: dict[int, list[int]] = {}
    for v in reversed(order):
        seq = [depth[v]]
        for block in sorted(blocks.pop(w) for w in t.adj[v] if w != parent[v]):
            seq.extend(block)
        blocks[v] = seq
    return tuple(blocks[root])


def canonical_form(t: Tree) -> CanonicalForm:
    """Canonical level sequence, rooted at the center.

    For bicentral trees the rooting giving the lexicographically smaller
    sequence wins, so the result does not depend on the center choice.
    """
    return CanonicalForm(min(_rooted_level_seq(t, c) for c in centers(t)))


def is_isomorphic(a: Tree, b: Tree) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)


def tree_from_level_sequence(seq: Iterable[int]) -> Tree:
    """Build a tree from a preorder depth sequence (first entry 0)."""
    depths = list(seq)
    if not depths:
        raise MalformedInputError("empty level sequence")
    if depths[0] != 0:
        raise MalformedInputError("level sequence must start at depth 0")
    last_at_depth = [0] * len(depths)
    edges = []
    for i, d in enumerate(depths[1:], start=1):
        if d < 1 or d > depths[i - 1] + 1:
            raise MalformedInputError(f"invalid depth {d} at position {i}")
        edges.append((last_at_depth[d - 1], i))
        last_at_depth[d] = i
    return Tree(len(depths), edges)


def _edge_lines(lines: list) -> Iterator[tuple[int, int]]:
    """Each line after the first as an edge (u, v), in file order; a line
    is dropped from the list once it has been read."""
    for i in range(1, len(lines)):
        line, lines[i] = lines[i], None
        parts = line.split()
        if len(parts) != 2:
            raise MalformedInputError(f"bad edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInputError(f"bad edge line: {line!r}") from None
        yield u, v


def parse_tree(text: str, fmt: str = "edgelist") -> Tree:
    """Parse a tree from text in the given format ("edgelist" or "levelseq")."""
    if fmt == "edgelist":
        lines = text.split("\n")
        while lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise MalformedInputError("empty input")
        head = lines[0].strip()
        try:
            n = int(head)
        except ValueError:
            raise MalformedInputError(f"bad vertex count line: {head!r}") from None
        if n < 1:
            raise NotATreeError("vertex count must be positive")
        if len(lines) - 1 != n - 1:
            raise NotATreeError(f"{len(lines) - 1} edge lines for n={n}, expected {n - 1}")
        # Tree checks each edge as it is parsed, so the first faulty line
        # in file order is the one reported
        return Tree(n, _edge_lines(lines))
    if fmt == "levelseq":
        tokens = text.split()
        if not tokens:
            raise MalformedInputError("empty input")
        try:
            depths = [int(tok) for tok in tokens]
        except ValueError:
            raise MalformedInputError("level sequence entries must be integers") from None
        del tokens
        return tree_from_level_sequence(depths)
    raise ValueError(f"unknown format {fmt!r}")


def serialize_tree(t: Tree, fmt: str = "edgelist") -> str:
    """Serialize a tree; byte-stable for a fixed Tree.

    The edgelist form preserves labels; the levelseq form is canonical, so
    isomorphic trees serialize identically.
    """
    if fmt == "edgelist":
        return f"{t.n}\n" + "".join(f"{u} {v}\n" for u, v in t.edges)
    if fmt == "levelseq":
        return " ".join(str(d) for d in canonical_form(t).level_seq) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def induced_subtree(t: Tree, keep: Iterable[int]) -> tuple[Tree, dict[int, int]]:
    """Induced subgraph on ``keep`` (must be connected), with an old->new map.

    New labels follow the sorted order of the kept old labels.
    """
    kept = sorted(set(keep))
    old_to_new = {v: i for i, v in enumerate(kept)}
    # Only the kept vertices' own edges are read, so a small piece of a large
    # tree costs its size, not the host's.
    edges = [
        (i, old_to_new[w])
        for i, v in enumerate(kept)
        for w in t.adj[v]
        if w > v and w in old_to_new
    ]
    return Tree(len(kept), edges), old_to_new


def path_between(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique u-v path as a vertex sequence (length = distance)."""
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise LabelOutOfRangeError(f"vertex out of range: {u}, {v}")
    _, parent = preorder(t, v)
    path = [u]
    while path[-1] != v:
        path.append(parent[path[-1]])
    return tuple(path)


def _component(t: Tree, start: int, banned: Container[int]) -> set[int]:
    """The vertices of the component of t minus ``banned`` that holds
    ``start``.  The search never steps onto a banned vertex, so it costs the
    component's size."""
    seen = {start}
    stack = [start]
    while stack:
        for w in t.adj[stack.pop()]:
            if w not in seen and w not in banned:
                seen.add(w)
                stack.append(w)
    return seen


def path_decomposition(t: Tree, x: int, y: int) -> PathDecomposition:
    """Split t along the x-y path (x, y leaves at distance >= 2).

    Deleting the path edges leaves one component per interior path vertex
    (plus the isolated endpoints x and y); components are reported indexed
    from both ends inward, with the middle one separated out when the
    distance is even.
    """
    if not (0 <= x < t.n and 0 <= y < t.n):
        raise LabelOutOfRangeError(f"vertex out of range: {x}, {y}")
    if not t.is_leaf(x) or not t.is_leaf(y):
        raise NotALeafError("both endpoints must be leaves")
    path = path_between(t, x, y)
    d = len(path) - 1
    if d < 2:
        raise TooCloseError(f"endpoint distance {d} < 2")
    on_path = set(path)

    def component_at(p: int) -> RootedComponent:
        sub, old_to_new = induced_subtree(t, _component(t, p, on_path))
        return RootedComponent(sub, old_to_new[p], tuple(old_to_new))

    side = (d - 1) // 2  # interior vertices on each side of the middle one
    xs = tuple(component_at(path[i]) for i in range(1, side + 1))
    ys = tuple(component_at(path[d - i]) for i in range(1, side + 1))
    z = component_at(path[d // 2]) if d % 2 == 0 else None
    return PathDecomposition(path, xs, ys, z)
