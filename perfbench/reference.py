"""Reference values the benchmark checks the program's outputs against.

Everything here is computed by code of the benchmark's own, by other
algorithms than the ones in ``src/treecount``: rerooting instead of one
product pass per vertex, vertex distance sums instead of edge cuts, the
greedy leaf matching and greedy domination instead of dynamic programs, and
an iterative canonical form instead of a recursive one.
"""

from __future__ import annotations

import heapq

# Free (unlabeled) trees on n vertices, n = 0..18 (OEIS A000055).
FREE_TREES = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159,
              7741, 19320, 48629, 123867)

_PRIMES = (1_000_000_007, 998_244_353, 2_305_843_009_213_693_951)


def tree_from_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edge list of the labeled tree on 0..n-1 with the given Pruefer code."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(heap), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def broom_edges(n: int, delta: int) -> list[tuple[int, int]]:
    """Handle on n-delta+1 vertices with delta-1 pendants at vertex 0."""
    handle = n - delta + 1
    return path_edges(handle) + [(0, handle + i) for i in range(delta - 1)]


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, root: int, alive=None) -> tuple[list[int], list[int]]:
    """Breadth-first order and parent array (-1 at the root, -2 unreached)."""
    parent = [-2] * len(adj)
    parent[root] = -1
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] == -2 and (alive is None or alive[w]):
                parent[w] = v
                order.append(w)
    return order, parent


def _down(order, parent, n: int) -> list[int]:
    down = [1] * n
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            down[p] *= down[v] + 1
    return down


def anchored_counts(adj, alive=None) -> dict[int, int]:
    """f(v), the number of subtrees containing v, for every alive vertex,
    by rerooting: f(child) = down(child) * (1 + f(parent) / (1 + down(child)))."""
    root = next(v for v in range(len(adj)) if alive is None or alive[v])
    order, parent = bfs(adj, root, alive)
    down = _down(order, parent, len(adj))
    f = {root: down[root]}
    for v in order[1:]:
        f[v] = down[v] * (f[parent[v]] // (down[v] + 1) + 1)
    return f


def leaf_anchored_counts(adj, f: dict[int, int]) -> dict[int, int]:
    """f*(v): subtrees containing v and a leaf other than v (n >= 3).

    The subtrees through v that avoid every other leaf live in the stem plus
    v: for a stem vertex that is its stem count, for a leaf v it is 1 plus the
    stem count at v's neighbour."""
    alive = [len(a) > 1 for a in adj]
    stem = anchored_counts(adj, alive)
    return {v: f[v] - (stem[v] if alive[v] else 1 + stem[adj[v][0]])
            for v in range(len(adj))}


def subtree_total(adj, root: int, alive=None) -> int:
    order, parent = bfs(adj, root, alive)
    down = _down(order, parent, len(adj))
    return sum(down[v] for v in reversed(order))  # big values last, added once


def leaf_subtree_total(adj, root: int, total: int) -> int:
    """F* from F (``total``) minus the subtree count of the stem."""
    alive = [len(a) > 1 for a in adj]
    stem_root = root if alive[root] else adj[root][0]
    return total - subtree_total(adj, stem_root, alive)


def wiener(adj, root: int) -> int:
    """Half the sum over vertices of their distance sums, by rerooting."""
    n = len(adj)
    order, parent = bfs(adj, root)
    size = [1] * n
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    dist = [0] * n
    dist[root] = sum(depth)
    for v in order[1:]:
        dist[v] = dist[parent[v]] + n - 2 * size[v]
    return sum(dist) // 2


def profile(adj) -> dict:
    """The fields of ``InvariantProfile`` by greedy and sweep algorithms."""
    n = len(adj)
    order, parent = bfs(adj, 0)
    matched = [False] * n
    matching = 0
    dominated = [False] * n
    in_set = [False] * n
    domination = 0
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            matching += 1
        if not dominated[v]:
            w = v if p < 0 else p
            if not in_set[w]:
                in_set[w] = True
                domination += 1
                dominated[w] = True
                for x in adj[w]:
                    dominated[x] = True
    far_order, _ = bfs(adj, order[-1])
    a = far_order[-1]
    path_order, path_parent = bfs(adj, a)
    b = path_order[-1]
    path = [b]
    while path[-1] != a:
        path.append(path_parent[path[-1]])
    d = len(path) - 1
    return {
        "matching": matching,
        "domination": domination,
        "diameter": d,
        "leafCount": sum(1 for x in adj if len(x) <= 1),
        "maxDegree": max(len(x) for x in adj),
        "centers": sorted({path[d // 2], path[(d + 1) // 2]}),
        "hasPerfectMatching": 2 * matching == n,
    }


def canonical_key(adj) -> tuple[int, ...]:
    """Smallest centre-rooted level sequence, child blocks sorted ascending,
    built bottom-up without recursion."""
    best = None
    for c in profile(adj)["centers"]:
        order, parent = bfs(adj, c)
        blocks: list[list[tuple[int, ...]]] = [[] for _ in adj]
        for v in reversed(order):
            seq = [0]
            for blk in sorted(blocks[v]):
                seq.extend(x + 1 for x in blk)
            blocks[v] = []
            if parent[v] >= 0:
                blocks[parent[v]].append(tuple(seq))
        key = tuple(seq)
        best = key if best is None or key < best else best
    return best


def ndigits(value: int) -> int:
    """Number of decimal digits of a positive integer, without str()."""
    k = max(1, int(value.bit_length() * 0.30102999566398120))
    while 10 ** k <= value:
        k += 1
    while k > 1 and 10 ** (k - 1) > value:
        k -= 1
    return k


def decimal_equals(text: str, value: int) -> bool:
    """Whether ``text`` is the decimal form of ``value`` (value >= 0).

    Large values are compared by digit count and residues modulo three
    primes, since str() and int() refuse more than 4300 digits."""
    if value == 0:
        return text == "0"
    if not text.isdigit() or text[0] == "0" or len(text) != ndigits(value):
        return False
    for p in _PRIMES:
        r = 0
        for i in range(0, len(text), 9):
            chunk = text[i:i + 9]
            r = (r * 10 ** len(chunk) + int(chunk)) % p
        if r != value % p:
            return False
    return True
