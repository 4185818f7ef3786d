"""Independent test-side oracles.

Everything here recomputes quantities by routes deliberately different from
the package: isomorphism-class counts by Pruefer decoding + interned AHU keys
and by the rooted-tree Euler transform, matching/domination by raw subset
enumeration.
"""

from __future__ import annotations

import itertools
import operator

from treecount.tree import LabelOutOfRangeError, NotATreeError, Tree


def reference_tree(n: int, edges):
    """``(edges, adj, rooting)`` of the tree on 0..n-1 with these edges, or the
    error ``Tree(n, edges)`` must raise, by the route that first normalises
    every edge to (low, high), sorts them, scans the sorted list for a
    repeat, and only then builds the adjacency and searches it."""
    if n < 1:
        raise NotATreeError("a tree has at least one vertex")
    norm = []
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise LabelOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise NotATreeError(f"self-loop at vertex {u}")
        norm.append((min(u, v), max(u, v)))
    if len(norm) != n - 1:
        raise NotATreeError(f"{len(norm)} edges for {n} vertices, expected {n - 1}")
    norm.sort()
    if any(map(operator.eq, norm, norm[1:])):
        raise NotATreeError("duplicate edge")
    # sorted edges give ascending lists: x gets its smaller neighbours first
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-2] * n
    parent[0] = -1
    order = [0]
    for v in order:
        for w in adj[v]:
            if parent[w] == -2:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        raise NotATreeError("graph is not connected")
    return tuple(norm), tuple(map(tuple, adj)), (tuple(order), tuple(parent))


def _free_key(adj, intern: dict) -> tuple[int, ...]:
    """Complete isomorphism invariant via one leaf-peeling pass.

    Each peeled vertex pushes its interned code onto its support, so by the
    time the center(s) remain their child codes are already collected.  A
    bicentral tree is keyed by the sorted pair of its central-edge halves.
    """
    n = len(adj)
    if n <= 2:
        return (n,)
    deg = [len(a) for a in adj]
    removed = [False] * n
    codes: list[list[int]] = [[] for _ in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    alive = n
    get = intern.get
    while alive > 2:
        for v in layer:
            removed[v] = True
        alive -= len(layer)
        nxt = []
        for v in layer:
            key = tuple(sorted(codes[v]))
            cid = get(key)
            if cid is None:
                cid = len(intern)
                intern[key] = cid
            for w in adj[v]:
                if not removed[w]:
                    codes[w].append(cid)
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    out = []
    for v in range(n):
        if not removed[v]:
            key = tuple(sorted(codes[v]))
            cid = get(key)
            if cid is None:
                cid = len(intern)
                intern[key] = cid
            out.append(cid)
    out.sort()
    return tuple(out)


def _nested_code(adj, root: int):
    def rec(v: int, p: int):
        return tuple(sorted(rec(w, v) for w in adj[v] if w != p))

    return rec(root, -1)


def _portable_key(adj):
    """Process-independent complete invariant (nested AHU tuples at the centers)."""
    n = len(adj)
    if n <= 2:
        return (n,)
    deg = [len(a) for a in adj]
    removed = [False] * n
    layer = [v for v in range(n) if deg[v] == 1]
    alive = n
    while alive > 2:
        for v in layer:
            removed[v] = True
        alive -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                if not removed[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    cs = [v for v in range(n) if not removed[v]]
    return tuple(sorted(_nested_code(adj, c) for c in cs))


def _decode_prufer_adj(n: int, seq) -> list[list[int]]:
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        adj[leaf].append(v)
        adj[v].append(leaf)
        deg[leaf] -= 1
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    a = -1
    for v in range(n):
        if deg[v] == 1:
            if a < 0:
                a = v
            else:
                adj[a].append(v)
                adj[v].append(a)
                break
    return adj


def _prufer_chunk(args) -> set:
    """Dedup all Pruefer sequences with a fixed first symbol.

    Deduplication runs on fast interned AHU keys; a portable nested-tuple key
    is computed once per class seen, so chunks can be unioned across workers.
    """
    n, first = args
    intern: dict = {}
    local = set()
    portable = set()
    for rest in itertools.product(range(n), repeat=n - 3):
        adj = _decode_prufer_adj(n, (first,) + rest)
        key = _free_key(adj, intern)
        if key not in local:
            local.add(key)
            portable.add(_portable_key(adj))
    return portable


_CLASS_COUNTS: dict[int, int] = {}


def prufer_class_count(n: int, jobs: int = 1) -> int:
    """Isomorphism classes among all n^(n-2) labeled trees, by dedup.

    The count depends on n alone, so it is computed once per n and process;
    jobs only spreads that one computation over a pool.
    """
    if n not in _CLASS_COUNTS:
        _CLASS_COUNTS[n] = _prufer_class_count(n, jobs)
    return _CLASS_COUNTS[n]


def _prufer_class_count(n: int, jobs: int) -> int:
    if n <= 2:
        return 1
    if n == 3:
        return 1
    if jobs <= 1:
        classes: set = set()
        for first in range(n):
            classes |= _prufer_chunk((n, first))
        return len(classes)
    import multiprocessing
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        parts = pool.map(_prufer_chunk, [(n, first) for first in range(n)])
    return len(set().union(*parts))


def class_count_by_formula(n: int) -> int:
    """Isomorphism-class count from the rooted-tree Euler transform plus the
    rooted-vs-free correction; shares nothing with either tree route."""
    r = [0] * (max(n, 1) + 1)
    r[1] = 1
    for m in range(2, n + 1):
        acc = 0
        for k in range(1, m):
            weighted = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            acc += weighted * r[m - k]
        r[m] = acc // (m - 1)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


def brute_matching(t: Tree) -> int:
    """Maximum matching by trying every edge subset."""
    edges = t.edges
    best = 0
    for mask in range(1 << len(edges)):
        used = 0
        count = 0
        ok = True
        mm = mask
        i = 0
        while mm:
            if mm & 1:
                u, v = edges[i]
                bit = (1 << u) | (1 << v)
                if used & bit:
                    ok = False
                    break
                used |= bit
                count += 1
            mm >>= 1
            i += 1
        if ok and count > best:
            best = count
    return best


def brute_domination(t: Tree) -> int:
    """Minimum dominating set by trying every vertex subset."""
    full = (1 << t.n) - 1
    closed = [(1 << v) | sum(1 << w for w in t.adj[v]) for v in range(t.n)]
    best = t.n
    for mask in range(1, 1 << t.n):
        size = bin(mask).count("1")
        if size >= best:
            continue
        cover = 0
        mm = mask
        v = 0
        while mm:
            if mm & 1:
                cover |= closed[v]
            mm >>= 1
            v += 1
        if cover == full:
            best = size
    return best
