import json

import jsonschema
import pytest

from treecount import counting, invariants, verify
from treecount.enumeration import _runs, all_trees, tree_record
from treecount.families import FamilySpec, construct
from treecount.schemas import VERIFICATION_SCHEMA
from treecount.tree import Tree, canonical_form, serialize_tree
from treecount.verify import (LEMMA_TAGS, THEOREM_TAGS, UnknownTagError,
                              run_lemma_suite, theorem_orders, verify_theorem)


class TestTheoremRuns:
    def test_matching_maximizer(self):
        rows = verify_theorem("T4.1", n_min=4, n_max=10)
        assert rows and all(r.passed for r in rows)
        # uniqueness holds: single extremizer per (n, q)
        assert all(len(r.extremizers) == 1 for r in rows if r.claimed is not None)

    def test_domination_maximizer_agrees_with_matching(self):
        rows_q = verify_theorem("T4.1", n_min=4, n_max=10)
        rows_g = verify_theorem("T4.2", n_min=4, n_max=10)
        assert all(r.passed for r in rows_g)
        by_key = {(r.n, r.constraint["q"], r.constraint["quantity"]): r
                  for r in rows_q if r.claimed is not None}
        for r in rows_g:
            if r.claimed is None:
                continue
            mate = by_key.get((r.n, r.constraint["gamma"], r.constraint["quantity"]))
            if mate is not None:
                assert r.claimed == mate.claimed

    def test_corona_minimum(self):
        rows = verify_theorem("T4.3", n_max=12)
        assert rows and all(r.passed for r in rows)
        # the class with domination n/2 consists of coronas only
        sizes = {r.n: r.class_size for r in rows}
        assert sizes[8] == 2 and sizes[10] == 3  # one corona per 4-/5-vertex base

    def test_two_dominators_minimum_n6_coincidence(self):
        rows = verify_theorem("T4.4", n_min=6, n_max=10)
        assert all(r.passed for r in rows)
        at6 = [r for r in rows if r.n == 6][0]
        # the balanced pendant pair on a 4-path *is* the 6-path
        assert at6.expected == canonical_form(construct(FamilySpec("path", n=6)))

    def test_degree_threshold_minimum(self):
        rows = verify_theorem("T4.5", n_min=4, n_max=10)
        assert rows and all(r.passed for r in rows)

    def test_perfect_matching_minimum_has_vacuous_cells(self):
        rows = verify_theorem("T4.6", n_min=4, n_max=12)
        assert all(r.passed for r in rows)
        assert any(r.class_size == 0 and r.notes == "empty class" for r in rows)
        assert any(r.class_size and r.claimed is not None for r in rows)

    def test_leaf_count_maximum(self):
        rows = verify_theorem("T4.7", n_min=3, n_max=10)
        assert rows and all(r.passed for r in rows)

    def test_diameter_maximum(self):
        rows = verify_theorem("T4.8", n_min=3, n_max=10)
        assert rows and all(r.passed for r in rows)

    def test_path_star_bounds(self):
        rows = verify_theorem("L2star", n_min=3, n_max=11)
        assert rows and all(r.passed for r in rows)

    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            verify_theorem("T9.9")

    def test_orders_past_the_cap_rejected_before_scanning(self):
        with pytest.raises(ValueError, match="24"):
            theorem_orders("T4.1", 4, 25)
        with pytest.raises(ValueError):
            verify_theorem("T4.1", n_min=20, n_max=30)


class TestProductVariant:
    def test_fails_at_smallest_case_and_names_it(self):
        rows = verify_theorem("T4.8", n_min=3, n_max=3, formula_variant="product")
        f_rows = [r for r in rows if r.constraint.get("quantity") == "F"]
        assert f_rows and not f_rows[0].passed
        assert f_rows[0].claimed == 5 and f_rows[0].achieved == 6
        assert "product" in f_rows[0].notes and "sum" in f_rows[0].notes
        assert f_rows[0].counterexample is not None

    def test_sum_form_passes_same_range(self):
        rows = verify_theorem("T4.8", n_min=3, n_max=6, formula_variant="sum")
        assert all(r.passed for r in rows)


class TestDeterminismAndSerialization:
    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_jobs_do_not_change_report(self, tag):
        a = [r.to_json_dict() for r in verify_theorem(tag, n_min=6, n_max=9, jobs=1)]
        b = [r.to_json_dict() for r in verify_theorem(tag, n_min=6, n_max=9, jobs=2)]
        c = [r.to_json_dict() for r in verify_theorem(tag, n_min=6, n_max=9, jobs=3)]
        assert a and json.dumps(a) == json.dumps(b) == json.dumps(c)

    def test_one_fork_per_extra_shard_capped_by_cpus(self, monkeypatch, forks):
        want = [r.to_json_dict() for r in verify_theorem("T4.7", n_min=5, n_max=9, jobs=1)]
        assert forks == []
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert [r.to_json_dict() for r in verify_theorem("T4.7", n_min=5, n_max=9, jobs=3)] == want
        assert forks == []  # one CPU: one shard per order, run in this process
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert [r.to_json_dict() for r in verify_theorem("T4.7", n_min=5, n_max=9, jobs=3)] == want
        assert len(forks) == 1  # five orders, two shards each: one child runs shard 1
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert [r.to_json_dict() for r in verify_theorem("T4.7", n_min=5, n_max=9, jobs=3)] == want
        assert len(forks) == 3  # and then one child each for shards 1 and 2

    def test_report_schema(self):
        rows = verify_theorem("T4.8", n_min=3, n_max=5, formula_variant="product")
        rows += verify_theorem("T4.6", n_min=4, n_max=8)
        rows += run_lemma_suite("L3.2", samples=20, seed=9)
        payload = [r.to_json_dict() for r in rows]
        jsonschema.validate(payload, VERIFICATION_SCHEMA)

    def test_lemma_suites_reproducible(self):
        a = run_lemma_suite("L3.1", samples=40, seed=7)[0]
        b = run_lemma_suite("L3.1", samples=40, seed=7)[0]
        assert a.notes == b.notes and a.passed == b.passed


class TestLemmaSuites:
    @pytest.mark.parametrize("tag", LEMMA_TAGS)
    def test_suite_passes(self, tag):
        res = run_lemma_suite(tag, samples=80, seed=3)
        assert len(res) == 1 and res[0].passed, res[0].notes

    def test_equality_cases_exercised(self):
        res = run_lemma_suite("L3.1", samples=200, seed=0)[0]
        assert "equality" in res.notes and not res.notes.startswith("0 ")
        res = run_lemma_suite("L3.3", samples=120, seed=0)[0]
        assert "bicenter" in res.notes and " 0 bicenter" not in " " + res.notes

    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            run_lemma_suite("L9.9")
        with pytest.raises(ValueError):
            run_lemma_suite("L3.1", samples=0)


class TestLemmaSuitesPinned:
    """The suites draw and judge the same instances as the per-vertex
    rooting code they replaced: these values were recorded from it."""

    NOTES = {
        ("L3.1", 0): "119 equality instances (branch already a pendant path)",
        ("L3.1", 7): "124 equality instances (branch already a pendant path)",
        ("L3.2", 0): "",
        ("L3.2", 7): "",
        ("L3.3", 0): "181 plain instances, 119 bicenter instances",
        ("L3.3", 7): "179 plain instances, 121 bicenter instances",
        ("leaf-deletion", 0): "79 anchored equality cases (path, opposite leaf)",
        ("leaf-deletion", 7): "80 anchored equality cases (path, opposite leaf)",
        ("pendant-edge", 0): "equality only on the two-vertex tree (checked)",
        ("pendant-edge", 7): "equality only on the two-vertex tree (checked)",
        ("path-attachment", 0): "",
        ("path-attachment", 7): "",
        ("path-comparison", 0): "192 instances with a strictly dominating side",
        ("path-comparison", 7): "194 instances with a strictly dominating side",
    }

    @pytest.mark.parametrize("tag, seed", sorted(NOTES))
    def test_report(self, tag, seed):
        assert run_lemma_suite(tag, samples=300, seed=seed)[0].to_json_dict() == {
            "theorem": tag, "n": None, "constraint": {"samples": 300, "seed": seed},
            "claimed": None, "achieved": None, "extremizers": [], "expected": None,
            "pass": True, "classSize": None, "counterexample": None,
            "notes": self.NOTES[tag, seed]}


_totals, _anchored = counting.subtree_totals, counting.anchored_counts


def _constant_totals(t):
    return 1, 1


def _constant_fstar(t):
    return _totals(t)[0], 1


def _flat_anchored(t):
    return [1] * t.n, [1] * t.n


def _flat_fstar(t):
    return _anchored(t)[0], [1] * t.n


def _fstar_by_label(t):
    return _anchored(t)[0], list(range(t.n))


def _uneven_on_k2(t):
    return ([1, 2], [1, 2]) if t.n == 2 else _anchored(t)


class TestBrokenCounterFailsEverySuite:
    """A counter that makes each lemma's inequality false must fail its
    suite, with the first instance drawn as the counterexample (pinned where
    recorded from the per-vertex rooting code under constant counters)."""

    CASES = [
        ("L3.1", "subtree_totals", _constant_totals,
         "7\n0 4\n1 2\n1 5\n2 4\n3 4\n4 6\n"),
        ("L3.2", "subtree_totals", _constant_totals,
         "7\n0 4\n1 2\n1 5\n2 4\n3 4\n4 6\n"),
        ("L3.2", "subtree_totals", _constant_fstar,
         "7\n0 4\n1 2\n1 5\n2 4\n3 4\n4 6\n"),
        ("L3.3", "subtree_totals", _constant_totals,
         "8\n0 1\n0 7\n1 5\n2 3\n2 5\n4 7\n6 7\n"),
        ("leaf-deletion", "subtree_totals", _constant_totals,
         "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("leaf-deletion", "anchored_counts", _flat_anchored,
         "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("pendant-edge", "anchored_counts", _flat_anchored,
         "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("pendant-edge", "anchored_counts", _flat_fstar,
         "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("path-attachment", "subtree_totals", _constant_totals,
         "5\n0 2\n1 2\n2 3\n3 4\n"),
        ("path-comparison", "anchored_counts", _flat_anchored, None),
        ("path-comparison", "anchored_counts", _fstar_by_label, None),
        ("pendant-edge", "anchored_counts", _uneven_on_k2, "2\n0 1\n"),
    ]

    @pytest.mark.parametrize("tag, helper, broken, first", CASES,
                             ids=[f"{c[0]}-{c[2].__name__}" for c in CASES])
    def test_suite_fails(self, monkeypatch, tag, helper, broken, first):
        monkeypatch.setattr(counting, helper, broken)
        res = run_lemma_suite(tag, samples=60, seed=3)[0]
        assert not res.passed and res.counterexample is not None
        if first is not None:
            assert serialize_tree(res.counterexample) == first

    def test_every_suite_covered(self):
        assert {c[0] for c in self.CASES} == set(LEMMA_TAGS)


def test_path_comparison_hypothesis_check_is_not_an_assert(monkeypatch):
    # sides grown into a single vertex no longer dominate the side they grew
    # from; the check must raise even under python -O
    monkeypatch.setattr(verify, "_grow", lambda t, root, rng, extra: (Tree(1, []), 0))
    with pytest.raises(RuntimeError, match="seed 5"):
        run_lemma_suite("path-comparison", samples=50, seed=5)


class TestExtremumMerge:
    """The scan, the shard merge and the renaming to canonical sequences keep
    every tied extremizer.  The catalog has no tie up to n = 14, so a
    test-only statement (most leaves, largest matching, per diameter class)
    supplies them."""

    QUANTITIES = ("leaves", "matching")

    def test_ties_survive_every_sharding(self, monkeypatch):
        th = verify._Theorem(keys=lambda r: (r.diameter,), quantities=self.QUANTITIES,
                             extremum="max", classes=lambda n: [], unique=False,
                             default_range=(3, 10), min_order=3)
        monkeypatch.setitem(verify._THEOREMS, "ties", th)
        tied = 0
        for n in range(3, 11):
            classes: dict = {}
            for t in all_trees(n):
                seq = canonical_form(t).level_seq
                rec = tree_record(seq)
                classes.setdefault(rec.diameter, []).append((seq, rec))
            want = {}
            for key, members in classes.items():
                want[key] = {}
                for qty in self.QUANTITIES:
                    top = max(getattr(rec, qty) for _, rec in members)
                    want[key][qty] = [top, {seq for seq, rec in members
                                            if getattr(rec, qty) == top}]
                    tied += len(want[key][qty][1]) > 1
            for w in (1, 2, 3):
                parts = [verify._scan_shard("ties", _runs(n, s, w)) for s in range(w)]
                agg, counts = verify._reduce(th, parts)
                assert agg == want, (n, w)
                assert counts == {key: len(m) for key, m in classes.items()}, (n, w)
        assert tied == 36  # tied (order, class, quantity) cells, each under three shardings


# the direction of each theorem's extremum, read off its statement
_EXTREMUM = {"T4.1": "max", "T4.2": "max", "T4.3": "min", "T4.4": "min", "T4.5": "min",
             "T4.6": "min", "T4.7": "max", "T4.8": "max"}

_IN_CLASS = {
    "q": lambda prof, v: prof.matching == v,
    "gamma": lambda prof, v: prof.domination == v,
    "min_max_degree": lambda prof, v: prof.max_degree >= v,
    "perfect_matching": lambda prof, v: prof.has_perfect_matching == v,
    "leaves": lambda prof, v: prof.leaf_count == v,
    "d": lambda prof, v: prof.diameter == v,
}


class TestExtremizerSets:
    """Every extremal row equals the Tree route: the class, its extremum and
    the full set of extremizers from subtree_totals, invariant_profile and
    canonical_form over every tree of the order."""

    @pytest.fixture(scope="class")
    def trees(self):
        return {n: [(canonical_form(t).level_seq, counting.subtree_totals(t),
                     invariants.invariant_profile(t)) for t in all_trees(n)]
                for n in range(3, 12)}

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_rows_match_tree_route(self, tag, trees):
        rows = verify_theorem(tag, n_min=3, n_max=11)
        for r in rows:
            if r.constraint.get("check"):  # T4.8's formula-vs-count row
                continue
            members = [(seq, totals) for seq, totals, prof in trees[r.n]
                       if all(_IN_CLASS[k](prof, v) for k, v in r.constraint.items()
                              if k in _IN_CLASS)]
            if not r.class_size:
                assert not members and r.achieved is None and not r.extremizers, r
                continue
            which = ("F", "Fstar").index(r.constraint["quantity"])
            pick = {"max": max, "min": min}[r.constraint.get("extremum") or _EXTREMUM[tag]]
            top = pick(totals[which] for _, totals in members)
            assert (r.achieved, r.class_size) == (top, len(members)), r
            assert [c.level_seq for c in r.extremizers] == \
                sorted(seq for seq, totals in members if totals[which] == top), r


class TestClassSizes:
    def test_sizes_match_constraint_stream(self):
        # the exhaustiveness contract: reported class sizes equal what the
        # Tree-based invariants count over every tree, independently of the
        # tree_record the scan reads
        from treecount.enumeration import all_trees

        def stream_count(n, matching=None, min_max_degree=None, diameter=None,
                         perfect_matching=None):
            return sum(
                1 for t in all_trees(n)
                if (matching is None or invariants.matching_number(t) == matching)
                and (min_max_degree is None
                     or max(t.degree(v) for v in range(t.n)) >= min_max_degree)
                and (diameter is None or invariants.diameter(t) == diameter)
                and (perfect_matching is None
                     or invariants.has_perfect_matching(t) == perfect_matching))

        by_q = {r.constraint["q"]: r.class_size
                for r in verify_theorem("T4.1", n_min=8, n_max=8)}
        for q, size in by_q.items():
            assert size == stream_count(8, matching=q)

        rows = verify_theorem("T4.5", n_min=9, n_max=9)
        for r in rows:
            assert r.class_size == stream_count(9, min_max_degree=r.constraint["min_max_degree"])

        rows = [r for r in verify_theorem("T4.8", n_min=8, n_max=8)
                if r.constraint.get("check") is None]
        for r in rows:
            assert r.class_size == stream_count(8, diameter=r.constraint["d"])

        rows = [r for r in verify_theorem("T4.6", n_min=10, n_max=10)
                if r.class_size]
        for r in rows:
            assert r.class_size == stream_count(
                10, min_max_degree=r.constraint["min_max_degree"], perfect_matching=True)

    def test_sizes_match_networkx(self):
        # a third route to the free-tree counts, beside OEIS and trees_matching
        nx = pytest.importorskip("networkx")
        sizes: dict = {}
        for r in verify_theorem("T4.1", n_min=4, n_max=12):
            sizes.setdefault(r.n, {})[r.constraint["q"]] = r.class_size
        assert sorted(sizes) == list(range(4, 13))
        for n, by_q in sizes.items():
            assert sum(by_q.values()) == len(list(nx.nonisomorphic_trees(n)))

    def test_domain_floors_are_enforced(self):
        rows = verify_theorem("T4.4", n_min=2, n_max=7)
        assert min(r.n for r in rows) == 6
        rows = verify_theorem("T4.1", n_min=2, n_max=5)
        assert min(r.n for r in rows) == 3
