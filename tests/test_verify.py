import copy
import hashlib
import json
import random
from itertools import chain, islice

import jsonschema
import pytest

import digests
from schemas import VERIFICATION_SCHEMA

from treecount import cli, counting, invariants, verify
from treecount.enumeration import _runs, all_level_sequences, all_trees, tree_record
from treecount.families import (BadParamsError, FamilySpec, NoFormulaError, closed_form,
                                construct)
from treecount.tree import Tree, canonical_form, parse_tree, serialize_tree
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
        assert theorem_orders("T4.1", 24, 24) == [24]  # the cap itself is allowed
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
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert [r.to_json_dict() for r in verify_theorem("T4.7", n_min=5, n_max=9)] == want
        assert forks == []  # one shard by default, even with a CPU to spare
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


def test_bicentral_instances_pinned():
    """The L3.3 suite's bicentral draws, with the generator state each leaves
    behind, as recorded before they were built from the families' shape
    builder."""
    h = hashlib.sha256()
    for s in range(50):
        rng = random.Random(s)
        h.update(f"{serialize_tree(verify._bicentral_instance(rng))}{rng.random()!r}\n".encode())
    assert h.hexdigest() == "536c0f2825bae0971955d57054809565220f7c1ae0e1047da54ed7be01025e36"


def test_comparison_instances_pinned():
    """The path-comparison suite's trees W with their endpoints, side counts
    and the generator state each draw leaves behind, as recorded before W
    was built as one chain of rooted pieces."""
    h = hashlib.sha256()
    for s in range(300):
        rng = random.Random(s)
        w, x, y, sides = verify._comparison_instance(rng)
        h.update(f"{serialize_tree(w)}{x} {y} {len(sides)} {rng.random()!r}\n".encode())
    assert h.hexdigest() == "39f46643bb35471a1f25f51cfa5d83bf62ff111fe0e99a216b4ce99bf11796c9"


_STREAM_SHA256 = {
    "L3.1": "3afadb3d206546f6cf71f8ca800e85e3c25ea8ef74449e74be1d9ae5adcc2caa",
    "L3.2": "dc6cb1e7b0f9e9e1db24b47b52e00b0b6224432ddebd21ff59d42a7ccf2f5434",
    "L3.3": "3397b7a85a9bd225e0d8cbfb121ed335e86b66b52d8329ccfdfd5d60c4a82330",
    "leaf-deletion": "3b1db71ff4abbf67db3ec8b3b62f0f5960e3069f442013e4c3888c7ebc4aeb98",
    "pendant-edge": "1af57c63614c3033f53c26c5b90a8fec4a7cfb23e89267753b409c2800772f08",
    "path-attachment": "7709102469e574352f4361e40eac36d34b8f46f694cac5b6df438d2d098747f7",
    "path-comparison": "d8711f5b778b6065873cb8edbc174eb265782e74af6705ee3a21f4d39704b18d",
}


@pytest.mark.parametrize("tag", LEMMA_TAGS)
def test_suite_streams_pinned(tag):
    """Each suite's first 200 instances at seed 11, with verdict and tally,
    as recorded.  The reports of L3.2 and path-attachment carry no notes, so
    only this pin sees a change to what those suites draw."""
    h = hashlib.sha256()
    for t, holds, tally in islice(verify._SUITES[tag][0](random.Random(11)), 200):
        h.update(f"{serialize_tree(t)}{holds} {tally}\n".encode())
    assert h.hexdigest() == _STREAM_SHA256[tag]


_totals, _anchored = counting.subtree_totals, counting.anchored_counts


def _constant_totals(t):
    return 1, 1


def _constant_fstar(t):
    return _totals(t)[0], 1


def _constant_f(t):
    return 1, _totals(t)[1]


def _flat_anchored(t):
    return [1] * t.n, [1] * t.n


def _flat_fstar(t):
    return _anchored(t)[0], [1] * t.n


def _fstar_by_label(t):
    return _anchored(t)[0], list(range(t.n))


def _flat_f(t):
    return [1] * t.n, _anchored(t)[1]


def _uneven_on_k2(t):
    return ([1, 2], [1, 2]) if t.n == 2 else _anchored(t)


def _uneven_f_on_k2(t):
    return ([1, 2], _anchored(t)[1]) if t.n == 2 else _anchored(t)


def _uneven_fstar_on_k2(t):
    return (_anchored(t)[0], [1, 2]) if t.n == 2 else _anchored(t)


def _f_tilted(t):
    """F scaled up, plus a term that tells mirror-image labellings apart."""
    f, fs = _totals(t)
    return f * 10**6 + sum(u * v for u, v in t.edges), fs


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
        ("L3.2", "subtree_totals", _constant_f,
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
        # one count broken at a time, so that each inequality is read alone
        ("L3.3", "subtree_totals", _constant_f,
         "8\n0 1\n0 7\n1 5\n2 3\n2 5\n4 7\n6 7\n"),
        ("L3.3", "subtree_totals", _constant_fstar,
         "8\n0 1\n0 7\n1 5\n2 3\n2 5\n4 7\n6 7\n"),
        ("leaf-deletion", "subtree_totals", _constant_f, "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("leaf-deletion", "subtree_totals", _constant_fstar, "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("leaf-deletion", "anchored_counts", _flat_f, "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("pendant-edge", "anchored_counts", _flat_f, "6\n0 4\n1 2\n1 4\n2 5\n3 4\n"),
        ("pendant-edge", "anchored_counts", _uneven_f_on_k2, "2\n0 1\n"),
        ("pendant-edge", "anchored_counts", _uneven_fstar_on_k2, "2\n0 1\n"),
        ("path-attachment", "subtree_totals", _constant_f, "5\n0 2\n1 2\n2 3\n3 4\n"),
        ("path-attachment", "subtree_totals", _constant_fstar, "5\n0 2\n1 2\n2 3\n3 4\n"),
        ("path-attachment", "subtree_totals", _f_tilted, "5\n0 2\n1 2\n2 3\n3 4\n"),
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


def test_b_suite_keeps_the_smaller_endpoint(monkeypatch):
    """L3.2 rewrites each drawn internal edge once, keeping its smaller label."""
    calls = []
    real = verify.b_transform
    monkeypatch.setattr(verify, "b_transform",
                        lambda t, u, v: calls.append((u, v)) or real(t, u, v))
    assert run_lemma_suite("L3.2", samples=50, seed=1)[0].passed
    assert len(calls) == 50 and all(u < v for u, v in calls)


@pytest.mark.parametrize("counter", ["count_subtrees_at", "count_leaf_subtrees_at"])
def test_path_comparison_hypothesis_reads_both_counts(monkeypatch, counter):
    # negated, one count makes a side grown by a leaf smaller than the side it
    # grew from, while the other still dominates: the check must see either alone
    real = getattr(counting, counter)
    monkeypatch.setattr(counting, counter, lambda t, v: -real(t, v))
    with pytest.raises(RuntimeError, match="side-domination"):
        run_lemma_suite("path-comparison", samples=50, seed=5)


def test_lemma_defaults_and_smallest_sample():
    """300 samples at seed 0 by default, and one sample is a run."""
    assert run_lemma_suite("pendant-edge")[0].constraint == {"samples": 300, "seed": 0}
    res, = run_lemma_suite("L3.2", samples=1)
    assert res.passed and res.constraint == {"samples": 1, "seed": 0}


class TestExtremumMerge:
    """The scan, the shard merge and the renaming to canonical sequences keep
    every tied extremizer, at a maximum and at a minimum.  The catalog has no
    tie up to n = 14, so a test-only statement (most or fewest leaves,
    largest or smallest matching, per diameter class) supplies them."""

    QUANTITIES = ("leaves", "matching")

    @pytest.mark.parametrize("mode, ties", [("max", 36), ("min", 35)], ids=["max", "min"])
    def test_ties_survive_every_sharding(self, monkeypatch, mode, ties):
        th = verify._Theorem(keys=lambda r: (r.diameter,), quantities=self.QUANTITIES,
                             extremum=mode, classes=lambda n: [], unique=False,
                             default_range=(3, 10), min_order=3)
        monkeypatch.setitem(verify._THEOREMS, "ties", th)
        pick = {"max": max, "min": min}[mode]
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
                    top = pick(getattr(rec, qty) for _, rec in members)
                    want[key][qty] = [top, {seq for seq, rec in members
                                            if getattr(rec, qty) == top}]
                    tied += len(want[key][qty][1]) > 1
            for w in (1, 2, 3):
                parts = [verify._scan_shard("ties", chain.from_iterable(_runs(n, s, w)))
                         for s in range(w)]
                assert set().union(*parts) == set(classes), (n, w)
                records = {key: verify._class_record(th, parts, key) for key in classes}
                assert {key: slot for key, (_, slot) in records.items()} == want, (n, w)
                assert {key: size for key, (size, _) in records.items()} == \
                    {key: len(m) for key, m in classes.items()}, (n, w)
        # tied (order, class, quantity) cells, each under three shardings
        assert tied == ties

    @pytest.mark.parametrize("tag", ["T4.5", "T4.6", "L2star"])
    def test_class_reads_leave_the_shards_as_they_were(self, tag):
        """Every class of an order reads the same record whichever class is
        read first, and no read changes a shard record, so several tags
        could read one order's shards."""
        th = verify._THEOREMS[tag]
        parts = [verify._scan_shard(tag, chain.from_iterable(_runs(10, s, 2)))
                 for s in range(2)]
        before = copy.deepcopy(parts)
        keys = [key for _, key, _ in th.classes(10)]
        forward = [verify._class_record(th, parts, key) for key in keys]
        backward = [verify._class_record(th, parts, key) for key in reversed(keys)]
        assert forward == backward[::-1]
        assert parts == before


class TestRegressionDigests:
    """Every tag at every order up to 16 gives the report rows it gave
    before the record folded branch summaries (``tests/digests.py``; CI
    checks orders 17..20 at --jobs 2)."""

    @pytest.mark.parametrize("tag, n", digests.cases(n_max=16))
    def test_rows_unchanged(self, tag, n):
        assert digests.digest(tag, n) == digests.DIGESTS[tag, n]

    def test_table_covers_every_order_to_20(self):
        assert set(digests.DIGESTS) == set(digests.cases())


class TestClassKeys:
    """A tree falls only in classes some row reads, so a shard carries no
    class that no row asks for (T4.3 reads gamma = n/2, T4.4 gamma = 2)."""

    @pytest.mark.parametrize("tag", [t for t in THEOREM_TAGS
                                     if not verify._THEOREMS[t].threshold])
    def test_every_scanned_class_is_read(self, tag):
        th = verify._THEOREMS[tag]
        for n in theorem_orders(tag, 1, 12):
            read = {key for _, key, _ in th.classes(n)}
            assert set(verify._scan_shard(tag, all_level_sequences(n))) <= read, n


class TestFailingRows:
    """A wrong claim fails its row, and the row names a tree other than the
    expected member as its counterexample."""

    def test_tied_uniqueness_failure_names_the_other_extremizer(self):
        spec = FamilySpec("spider", n=6, k=3)
        member = canonical_form(construct(spec)).level_seq
        other = canonical_form(Tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])).level_seq
        claimed = closed_form(spec, "Fstar").value
        agg = {3: [2, {"Fstar": [claimed, {member, other}]}]}
        rows = [r for r in verify._assemble("T4.7", 6, [agg], "sum") if r.class_size]
        assert len(rows) == 1
        row = rows[0]
        assert (row.claimed, row.achieved, row.passed) == (claimed, claimed, False)
        assert row.expected.level_seq == member
        assert canonical_form(row.counterexample).level_seq == other

    # which parameter of each family the twin shifts
    SHIFTED = {"a_nq": "q", "pk_ab": "a", "corona_path": "m", "t_ndelta": "delta",
               "tprime_ndelta": "delta", "spider": "k", "hat": "d"}

    @classmethod
    def wrong_member(cls, spec: FamilySpec) -> FamilySpec:
        """The member with its family parameter one off (one up where the
        family allows it, else one down, else the member itself: a class
        alone at its order has no neighbour); for L2star the path and the
        star trade places."""
        if spec.family in ("path", "star"):
            return spec._replace(family="star" if spec.family == "path" else "path")
        name = cls.SHIFTED[spec.family]
        for step in (1, -1):
            twin = spec._replace(**{name: getattr(spec, name) + step})
            try:
                construct(twin)
                for qty in ("F", "Fstar"):
                    closed_form(twin, qty)
            except (BadParamsError, NoFormulaError):
                continue
            return twin
        return spec

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_wrong_member_fails_every_tag(self, monkeypatch, tmp_path, tag):
        th = verify._THEOREMS[tag]
        twin = th._replace(classes=lambda n: [(c, key, self.wrong_member(spec))
                                              for c, key, spec in th.classes(n)])
        monkeypatch.setitem(verify._THEOREMS, tag, twin)
        path = tmp_path / "report.json"
        assert cli.main(["verify", "--theorem", tag, "--n-max", "8", "--json", str(path)]) == 1
        failed = [r for r in json.loads(path.read_text()) if not r["pass"]]
        assert failed
        for r in failed:
            named = canonical_form(parse_tree(r["counterexample"])).level_seq
            assert list(named) != r["expected"], r


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
