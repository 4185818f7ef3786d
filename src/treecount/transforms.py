"""Subtree-count-monotone tree rewrites.

Three rewrites, each preserving the vertex count:

* A: replace the branch hanging at a cut vertex by a pendant path of the
  same size (never increases either subtree count; ties exactly when the
  branch already was such a path).
* B: contract an internal edge and compensate with a new pendant at the
  merged vertex (strictly increases both counts).
* C / C': pick a vertex v of degree >= 3 that keeps one pendant-path child
  and hand all its other children to v's parent w (strictly increases both
  counts, preserves the number of leaves, never increases the diameter).
  The C form requires v to be a non-center vertex; the C' form applies when
  v and w are the two centers of a bicentral tree and w has degree > 2.
"""

from __future__ import annotations

from typing import NamedTuple

from .tree import Tree, _component, centers, induced_subtree, path_between, preorder


class BadAnchorError(ValueError):
    """Anchor vertices/edges do not exist or do not fit the rewrite."""


class SideTooSmallError(ValueError):
    """Both sides of the contracted edge must have at least two vertices."""


class NoPathChildError(ValueError):
    """The anchor vertex has no pendant-path child subtree to keep."""


class CenterViolationError(ValueError):
    """The anchor violates the center-position rules of the C/C' rewrite."""


class TransformSpec(NamedTuple):
    """CLI-facing description of one rewrite application."""

    kind: str               # "A", "B", "C" or "Cprime"
    u: int | None = None    # A: cut vertex; B: kept endpoint
    v: int | None = None    # B: removed endpoint; C/C': anchor vertex
    component_root: int | None = None  # A: vertex identifying the branch


def _branch(t: Tree, u: int, component_root: int) -> set[int]:
    """The vertices of the branch of t - u holding component_root."""
    if not (0 <= u < t.n and 0 <= component_root < t.n) or u == component_root:
        raise BadAnchorError(f"bad anchors u={u}, component_root={component_root}")
    return _component(t, component_root, (u,))


def is_pendant_path_component(t: Tree, u: int, component_root: int) -> bool:
    """Whether the branch of t - u holding component_root forms, with u, a
    path ending at u: it holds one neighbour of u, so its degrees decide."""
    return all(len(t.adj[c]) <= 2 for c in _branch(t, u, component_root))


def a_transform(t: Tree, u: int, component_root: int) -> tuple[Tree, dict[int, int]]:
    """Replace the branch of t - u containing component_root by a pendant path.

    Returns the rewritten tree and the old->new label map for the surviving
    vertices (the replacement path takes the highest labels).
    """
    comp = _branch(t, u, component_root)
    base, old_to_new = induced_subtree(t, (v for v in range(t.n) if v not in comp))
    edges = list(base.edges)
    prev = old_to_new[u]
    for i in range(len(comp)):
        edges.append((prev, base.n + i))
        prev = base.n + i
    return Tree(t.n, edges), old_to_new


def b_transform(t: Tree, u: int, v: int) -> tuple[Tree, dict[int, int]]:
    """Contract the edge uv into u and attach a new pendant at u.

    Both sides of uv must have at least two vertices.  The old->new map sends
    v to the merged vertex; the new pendant gets label n-1.
    """
    if not (0 <= u < t.n and v in t.adj[u]):
        raise BadAnchorError(f"({u}, {v}) is not an edge")
    if t.degree(u) < 2 or t.degree(v) < 2:
        raise SideTooSmallError("each side of the edge needs >= 2 vertices")
    old_to_new = {w: (w if w < v else w - 1) for w in range(t.n) if w != v}
    old_to_new[v] = old_to_new[u]
    key = (u, v) if u < v else (v, u)
    edges = [(old_to_new[a], old_to_new[b]) for a, b in t.edges if (a, b) != key]
    edges.append((old_to_new[u], t.n - 1))
    return Tree(t.n, edges), old_to_new


def classify_c_anchor(t: Tree, v: int) -> tuple[str, int]:
    """Return ("C" or "Cprime", parent w) for the anchor, or raise."""
    if not (0 <= v < t.n):
        raise BadAnchorError(f"vertex {v} out of range")
    cs = centers(t)
    if v in cs:
        if len(cs) == 1:
            raise CenterViolationError("anchor is the unique center; C' needs a bicenter")
        w = cs[0] if cs[1] == v else cs[1]
        if t.degree(w) <= 2:
            raise CenterViolationError("C' needs the partner center to have degree > 2")
        return "Cprime", w
    # the parent of a non-center vertex is its neighbor toward the center,
    # the same vertex for either choice of a bicenter
    return "C", path_between(t, v, cs[0])[1]


def c_transform(t: Tree, v: int) -> tuple[Tree, dict[int, int]]:
    """Move all but one pendant-path child of v up to v's parent.

    The kept child is the longest pendant-path child (smallest root label on
    ties).  Vertex labels are unchanged; the returned map is the identity.
    """
    kind, w = classify_c_anchor(t, v)
    if t.degree(v) < 3:
        raise BadAnchorError("anchor needs degree >= 3")
    keep = None
    keep_size = -1
    for c in t.adj[v]:
        if c != w:
            comp = _component(t, c, (v,))
            if len(comp) > keep_size and all(len(t.adj[x]) <= 2 for x in comp):
                keep, keep_size = c, len(comp)
    if keep is None:
        raise NoPathChildError("no child subtree of the anchor is a pendant path")
    moved = set(t.adj[v]) - {w, keep}
    edges = []
    for a, b in t.edges:
        if a == v and b in moved:
            a = w
        elif b == v and a in moved:
            b = w
        edges.append((a, b))
    return Tree(t.n, edges), {x: x for x in range(t.n)}


def c_anchors(t: Tree) -> list[int]:
    """Every v for which ``c_transform(t, v)`` succeeds, ascending, in O(n).

    One rooting at a center: a leaves-up pass flags each rooted branch that
    is a pendant path (every vertex of degree <= 2).  The rules are those of
    ``classify_c_anchor`` and ``c_transform``.  For an anchor v of degree
    >= 3, the parent w that the rewrite excludes (v's neighbour toward the
    center, or the partner center) is never flagged: w is an ancestor of v,
    whose branch holds v, or the partner center, of degree > 2.  So every
    flagged neighbour of v is a child that the rewrite may keep.
    """
    cs = centers(t)
    order, parent = preorder(t, cs[0])
    path = [len(a) <= 2 for a in t.adj]
    for v in reversed(order[1:]):
        if not path[v]:
            path[parent[v]] = False
    anchors = []
    for v in range(t.n):
        if len(t.adj[v]) < 3:
            continue
        if v in cs and (len(cs) == 1 or len(t.adj[cs[0] + cs[1] - v]) <= 2):
            continue  # a unique center, or a partner center of degree <= 2
        if any(path[c] for c in t.adj[v]):
            anchors.append(v)
    return anchors


def apply_transform(t: Tree, spec: TransformSpec) -> tuple[Tree, dict[int, int]]:
    """Dispatch a TransformSpec, enforcing the declared kind for C vs C'."""
    kind = spec.kind.upper()
    if kind == "A":
        if spec.u is None or spec.component_root is None:
            raise BadAnchorError("A needs u and component_root")
        return a_transform(t, spec.u, spec.component_root)
    if kind == "B":
        if spec.u is None or spec.v is None:
            raise BadAnchorError("B needs u and v")
        return b_transform(t, spec.u, spec.v)
    if kind in ("C", "CPRIME"):
        if spec.v is None:
            raise BadAnchorError("C needs v")
        detected, _ = classify_c_anchor(t, spec.v)
        if kind == "C" and detected != "C":
            raise CenterViolationError("anchor is a center vertex; use Cprime")
        if kind == "CPRIME" and detected != "Cprime":
            raise CenterViolationError("anchor is not a center vertex; use C")
        return c_transform(t, spec.v)
    raise BadAnchorError(f"unknown transform kind {spec.kind!r}")
