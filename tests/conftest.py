import os
import random

import pytest

from treecount.enumeration import all_trees, random_labeled_tree
from treecount.families import FamilySpec, construct
from treecount.tree import Tree, preorder


def make_path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def make_star(n: int) -> Tree:
    return Tree(n, [(0, i) for i in range(1, n)])


def relabeled(t: Tree, rng: random.Random) -> Tree:
    perm = list(range(t.n))
    rng.shuffle(perm)
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


LARGE_SHAPES = ("random", "path", "star", "broom")


def large_shape(shape: str, n: int = 100_000) -> Tree:
    """A seeded random tree, a path, a star or a broom (delta = n/2)."""
    if shape == "random":
        return random_labeled_tree(n, random.Random(n))
    if shape == "path":
        return make_path(n)
    if shape == "star":
        return make_star(n)
    return construct(FamilySpec("t_ndelta", n=n, delta=n // 2))


def rooting_trees(max_random: int = 2000):
    """Every tree with n <= 12, relabeled, then 200 seeded random trees of
    orders 2..max_random."""
    rng = random.Random(12)
    for n in range(1, 13):
        for t in all_trees(n):
            yield relabeled(t, rng)
    for _ in range(200):
        yield random_labeled_tree(rng.randint(2, max_random), rng)


def dfs_rooted(t: Tree) -> Tree:
    """t with the depth-first ``preorder(t, 0)`` as its rooting in place of
    the breadth-first one built with it.  A function that reads the rooting
    only as parents-first must give the same value on both."""
    s = object.__new__(Tree)
    s.n, s.adj = t.n, t.adj
    s.rooting = tuple(map(tuple, preorder(t, 0)))
    return s


@pytest.fixture
def rng():
    return random.Random(20240331)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts in this process."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def no_fork(monkeypatch):
    """``os.fork`` fails as it does when no process can be started."""
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
