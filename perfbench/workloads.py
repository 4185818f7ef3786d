"""The two workloads: what one pass runs, and how its outputs are checked.

A pass calls the program through its public API and ``treecount.cli.main``,
always through module attributes, so that the tracer's wrappers see the
calls.  Only the program's calls are timed; the checks run between them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from math import comb

import reference as ref

THEOREM_TAGS = ("T4.1", "T4.2", "T4.3", "T4.4", "T4.5", "T4.6", "T4.7", "T4.8", "L2star")
LEMMA_TAGS = ("L3.1", "L3.2", "L3.3", "leaf-deletion", "pendant-edge",
              "path-attachment", "path-comparison")

# Failures the program is known to have; they count as failed operations
# but do not make a pass incorrect.
RECURSION_DEFECT = "canonical_form RecursionError on a deep tree"
DIGITS_DEFECT = "CLI decimal output over the 4300-digit int-to-str limit"


@dataclass
class Pass:
    """Outcome of one pass over a workload's operations."""

    wall: float = 0.0   # summed time of the program's calls
    ops: int = 0        # program operations attempted
    items: int = 0      # checked work items, from the inputs alone
    failures: list = field(default_factory=list)   # (operation, reason, known)
    problems: list = field(default_factory=list)   # wrong or missing outputs
    outputs: dict = field(default_factory=dict)    # name -> text, compared across passes
    timings: dict = field(default_factory=dict)    # name -> [seconds]

    @property
    def clean(self) -> bool:
        return not self.problems and all(known for _, _, known in self.failures)

    def timed(self, key: str, seconds: float) -> None:
        self.wall += seconds
        self.timings.setdefault(key, []).append(seconds)


def run_cli(tc, argv: list[str]) -> tuple[int, str, str, float]:
    """``treecount.cli.main(argv)`` with captured streams: rc, out, err, s."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tc.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an error escaping main() fails the operation
            rc = None
            err.write(repr(exc))
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def theorem_orders(tag: str, lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if tag not in ("T4.3", "T4.6") or n % 2 == 0]


# class key of each row in tags whose classes partition all trees of order n
_PARTITION_KEY = {"T4.1": "q", "T4.2": "gamma", "T4.7": "leaves", "T4.8": "d",
                  "L2star": "extremum"}


def theorem_problems(reports: dict[str, list[dict]], orders: dict[str, list[int]]) -> list[str]:
    """Check verify rows: every row passes, the requested orders are all
    covered, and class sizes agree with the free-tree counts and with each
    other across tags."""
    problems = []
    sizes: dict[tuple[str, int], dict] = {}
    for tag, rows in reports.items():
        if not rows:
            problems.append(f"{tag}: no rows")
        for r in rows:
            if r["pass"] is not True:
                problems.append(f"{tag} n={r['n']} {r['constraint']}: row failed")
            key = next(iter(r["constraint"].values()))
            sizes.setdefault((tag, r["n"]), {})[key] = r["classSize"]
        if {r["n"] for r in rows} != set(orders[tag]):
            problems.append(f"{tag}: orders {sorted({r['n'] for r in rows})} != {orders[tag]}")

    def size(tag, n, key):
        return sizes.get((tag, n), {}).get(key)

    for (tag, n), by_key in sizes.items():
        total = ref.FREE_TREES[n]
        if tag == "L2star":
            if set(by_key.values()) != {total}:
                problems.append(f"L2star n={n}: class sizes {by_key} != {total}")
        elif tag in _PARTITION_KEY:
            if sum(by_key.values()) != total:
                problems.append(f"{tag} n={n}: class sizes sum to "
                                f"{sum(by_key.values())}, not {total}")
        elif tag in ("T4.5", "T4.6"):
            series = [by_key[d] for d in sorted(by_key)]
            if series != sorted(series, reverse=True):
                problems.append(f"{tag} n={n}: max-degree classes grow: {series}")
            if tag == "T4.5" and (by_key.get(3) != total - 1 or by_key.get(n - 1) != 1):
                problems.append(f"T4.5 n={n}: sizes {by_key} miss total-1 at 3 or 1 at n-1")
            pm = size("T4.1", n, n // 2)
            if tag == "T4.6" and pm is not None and by_key.get(3) != pm - 1:
                problems.append(f"T4.6 n={n}: {by_key.get(3)} trees, T4.1 has {pm} - 1")
        else:  # T4.3 (gamma = n/2) and T4.4 (gamma = 2) are T4.2 classes
            (gamma, got), = by_key.items()
            other = size("T4.2", n, gamma)
            if not 0 < got <= total or (other is not None and other != got):
                problems.append(f"{tag} n={n}: class size {got}, T4.2 has {other}")
    return problems


class Workload:
    name = ""
    jobs = 1
    # The share of --seconds one pass is given; a run makes --seconds /
    # PASS_SECONDS passes.  A fixed share gives a pass count that does not
    # follow the machine's speed during the run: a count taken from the clock
    # gave fast runs one pass more, and so a median where slow runs got a mean.
    PASS_SECONDS: float

    def __init__(self, tc, seed: int, workdir: str):
        self.tc = tc
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs; timed, and repeated to take a median."""

    def prepare(self) -> list[str]:
        """Compute reference values once, untimed, before the first set-up;
        returns the problems found."""
        return []

    def run_pass(self, jobs: int) -> Pass:
        raise NotImplementedError


class CatalogJobs2(Workload):
    """The whole catalog through the CLI: every theorem at its default range
    with --jobs 2 and a --json report, then every lemma suite."""

    name = "catalog_jobs2"
    jobs = 2
    # a pass takes 7-11 s on a 2-core machine with Python 3.11; four passes a
    # run are steady, so large_trees gets the rest of the time
    PASS_SECONDS = 12.0
    # the CLI's default ranges when this benchmark was written, pinned so the
    # work stays fixed if the defaults move
    RANGES = {"T4.1": (4, 14), "T4.2": (4, 14), "T4.3": (4, 16), "T4.4": (6, 14),
              "T4.5": (4, 14), "T4.6": (4, 14), "T4.7": (3, 14), "T4.8": (3, 14),
              "L2star": (3, 12)}
    SAMPLES = 2000

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.tags = rng.sample(THEOREM_TAGS, len(THEOREM_TAGS))
        self.lemmas = [(tag, rng.randrange(2 ** 31))
                       for tag in rng.sample(LEMMA_TAGS, len(LEMMA_TAGS))]
        self.orders = {t: theorem_orders(t, *self.RANGES[t]) for t in THEOREM_TAGS}
        self.items = (sum(ref.FREE_TREES[n] for o in self.orders.values() for n in o)
                      + len(self.lemmas) * self.SAMPLES)

    def run_pass(self, jobs: int) -> Pass:
        p = Pass(items=self.items)
        reports = {}
        for tag in self.tags:
            lo, hi = self.RANGES[tag]
            path = os.path.join(self.workdir, f"{tag}.json")
            if os.path.exists(path):
                os.remove(path)
            p.ops += 1
            rc, out, err, dt = run_cli(self.tc, [
                "verify", "--theorem", tag, "--n-min", str(lo), "--n-max", str(hi),
                "--jobs", str(jobs), "--json", path])
            if rc != 0 or not os.path.exists(path):
                p.failures.append((f"verify --theorem {tag}", f"exit {rc}: {err.strip()}", False))
                continue
            p.timed("theorems", dt)
            with open(path, encoding="ascii") as fh:
                text = fh.read()
            p.outputs[f"json {tag}"] = text
            p.outputs[f"stdout {tag}"] = out.partition("\n")[2]  # the header names --jobs
            try:
                reports[tag] = json.loads(text)
            except ValueError as exc:
                p.problems.append(f"{tag}: --json report unreadable ({exc})")
                continue
            k = len(reports[tag])
            if not out.endswith(f"\n# {k}/{k} checks passed\n"):
                p.problems.append(f"{tag}: stdout does not end with {k}/{k} checks passed")
        p.problems += theorem_problems(reports, {t: self.orders[t] for t in reports})
        for tag, seed in self.lemmas:
            p.ops += 1
            rc, out, err, dt = run_cli(self.tc, [
                "verify", "--lemma", tag, "--samples", str(self.SAMPLES), "--seed", str(seed)])
            if rc != 0:
                p.failures.append((f"verify --lemma {tag}", f"exit {rc}: {err.strip()}", False))
                continue
            p.timed("lemmas", dt)
            p.outputs[f"lemma {tag}"] = out
            lines = out.splitlines()
            if (len(lines) != 3 or not lines[1].startswith(f"pass {tag} ")
                    or lines[2] != "# 1/1 checks passed"):
                p.problems.append(f"lemma {tag} seed {seed}: {out!r}")
        return p


class LargeTrees(Workload):
    """Single large trees, never enumerated: a seeded random Pruefer tree, a
    path, a star and a broom, at n=1000 through ``count --json`` and the
    canonical key, and at n=100000 through the library's totals."""

    name = "large_trees"
    # a pass takes 9-17 s; its runs spread most, so it gets five passes a run
    PASS_SECONDS = 9.6
    SMALL, BIG = 1000, 100_000
    SHAPES = ("random", "path", "star", "broom")
    OPS = 4 + 4 + 4 * 4 + 1

    def _edges(self, rng: random.Random, shape: str, n: int):
        if shape == "random":
            return ref.tree_from_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
        if shape == "path":
            return ref.path_edges(n)
        if shape == "star":
            return ref.star_edges(n)
        return ref.broom_edges(n, n // 2)

    def _inputs(self) -> dict:
        rng = random.Random(self.seed)
        return {(s, n): self._edges(rng, s, n) for n in (self.SMALL, self.BIG) for s in self.SHAPES}

    def setup(self) -> None:
        Tree = self.tc.tree.Tree
        self.trees = None  # a repeated set-up holds one copy
        trees, self.files = {}, {}
        for (shape, n), edges in self._inputs().items():
            if n == self.SMALL:
                self.files[shape] = os.path.join(self.workdir, f"{shape}.txt")
                with open(self.files[shape], "w", encoding="ascii") as fh:
                    fh.write(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            trees[shape, n] = Tree(n, edges)
        self.trees = trees

    def _relabeled(self, n: int, edges):
        """Adjacency of a seeded relabeling and the map back to the original."""
        perm = list(range(n))
        random.Random(self.seed + n).shuffle(perm)
        back = [0] * n
        for v, w in enumerate(perm):
            back[w] = v
        return ref.adjacency(n, ((perm[u], perm[v]) for u, v in edges)), perm, back

    def prepare(self) -> list[str]:
        problems = []
        self.expect = {}
        for (shape, n), edges in self._inputs().items():
            adj, perm, back = self._relabeled(n, edges)
            # rooted at a hub, no long chain of vertices carries a big count
            root = max(range(n), key=lambda v: len(adj[v]))
            e = {"W": ref.wiener(adj, root)}
            if n == self.SMALL or shape == "random":  # else the closed forms give F, F*
                e["F"] = ref.subtree_total(adj, root)
                e["Fstar"] = ref.leaf_subtree_total(adj, root, e["F"])
            if n == self.SMALL:
                f = ref.anchored_counts(adj)
                fstar = ref.leaf_anchored_counts(adj, f)
                e["f"] = {v: f[perm[v]] for v in range(n)}
                e["fstar"] = {v: fstar[perm[v]] for v in range(n)}
                e["key"] = ref.canonical_key(adj)
            else:
                e["profile"] = ref.profile(adj)
                e["profile"]["centers"] = sorted(back[c] for c in e["profile"]["centers"])
            self.expect[shape, n] = e
            problems += self._known_values(shape, n, e)
        return problems

    def _known_values(self, shape: str, n: int, e: dict) -> list[str]:
        """Hold the reference values to the families' closed forms and to
        the textbook values of the path, star and broom, filling in those
        not computed."""
        if shape == "random":
            return []
        fam = self.tc.families
        spec = {"path": fam.FamilySpec("path", n=n), "star": fam.FamilySpec("star", n=n),
                "broom": fam.FamilySpec("t_ndelta", n=n, delta=n // 2)}[shape]
        known = {q: fam.closed_form(spec, q).value for q in ("F", "Fstar")}
        if shape == "path":
            known["W"] = comb(n + 1, 3)
            prof = (n // 2, (n + 2) // 3, n - 1, 2, 2)
        elif shape == "star":
            known["W"] = (n - 1) ** 2
            prof = (1, 1, 2, n - 1, n - 1)
        else:
            handle = n - n // 2 + 1
            prof = (1 + (handle - 1) // 2, 1 + handle // 3, handle, n // 2, n // 2)
        problems = [f"reference {shape} n={n} {q}: {e[q]} != {v}"
                    for q, v in known.items() if e.setdefault(q, v) != v]
        if "profile" in e:
            p = e["profile"]
            got = (p["matching"], p["domination"], p["diameter"], p["leafCount"], p["maxDegree"])
            if got != prof:
                problems.append(f"reference {shape} n={n} profile {got} != {prof}")
        return problems

    def run_pass(self, jobs: int) -> Pass:
        p = Pass(items=self.OPS)
        tc = self.tc
        for shape in self.SHAPES:
            p.ops += 1
            rc, out, err, dt = run_cli(tc, ["count", "--input", self.files[shape], "--json"])
            if rc != 0:
                p.failures.append((f"count {shape}", f"exit {rc}: {err.strip()}", False))
                continue
            p.timed("report", dt)
            p.outputs[f"count {shape}"] = out
            e = self.expect[shape, self.SMALL]
            try:
                d = json.loads(out)
                got = {"F": int(d["F"]), "Fstar": int(d["Fstar"]), "W": int(d["W"]),
                       "f": {int(v): int(c) for v, c in d["f"].items()},
                       "fstar": {int(v): int(c) for v, c in d["fstar"].items()}}
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                p.problems.append(f"count {shape} n={self.SMALL}: unreadable output ({exc!r})")
                continue
            for q, v in got.items():
                if v != e[q]:
                    p.problems.append(f"count {shape} n={self.SMALL}: {q} differs")
        for shape in self.SHAPES:
            p.ops += 1
            start = time.perf_counter()
            try:
                key = tc.tree.canonical_form(self.trees[shape, self.SMALL]).level_seq
            except RecursionError:
                p.failures.append((f"canonical {shape} n={self.SMALL}", RECURSION_DEFECT, True))
                continue
            except Exception as exc:  # any other error is a failed operation
                p.failures.append((f"canonical {shape} n={self.SMALL}", repr(exc), False))
                continue
            p.timed("canonical", time.perf_counter() - start)
            if tuple(key) != self.expect[shape, self.SMALL]["key"]:
                p.problems.append(f"canonical {shape} n={self.SMALL}: key differs")
        for shape in self.SHAPES:
            t, e = self.trees[shape, self.BIG], self.expect[shape, self.BIG]
            calls = (("F", tc.counting, "count_subtrees"),
                     ("Fstar", tc.counting, "count_leaf_subtrees"),
                     ("W", tc.counting, "wiener_index"),
                     ("profile", tc.invariants, "invariant_profile"))
            spent = 0.0
            for q, module, fn in calls:
                p.ops += 1
                start = time.perf_counter()
                try:
                    got = getattr(module, fn)(t)
                except Exception as exc:  # any error is a failed operation
                    p.failures.append((f"{fn} {shape}", repr(exc), False))
                    continue
                spent += time.perf_counter() - start
                if q == "profile":
                    got = got.to_json_dict()
                if got != e[q]:
                    p.problems.append(f"{fn} {shape} n={self.BIG}: differs")
            p.timed("totals", spent)
        p.ops += 1
        rc, out, err, dt = run_cli(tc, ["construct", "--family", "star", "--n",
                                        str(self.BIG), "--closed-form", "F"])
        if rc == 2 and "integer string conversion" in err:
            p.failures.append((f"construct star n={self.BIG}", DIGITS_DEFECT, True))
        elif rc != 0:
            p.failures.append((f"construct star n={self.BIG}", f"exit {rc}: {err.strip()}", False))
        else:
            p.timed("construct", dt)
            if not ref.decimal_equals(out.split(" ", 1)[0], self.expect["star", self.BIG]["F"]):
                p.problems.append(f"construct star n={self.BIG}: wrong closed form")
        return p


WORKLOADS = {w.name: w for w in (CatalogJobs2, LargeTrees)}
