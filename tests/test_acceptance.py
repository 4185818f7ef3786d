"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random

from bruteforce import prufer_class_count
from treecount.counting import count_report
from treecount.enumeration import all_trees, random_labeled_tree
from treecount.families import (FamilySpec, NoFormulaError, closed_form,
                                construct)
from treecount.counting import count_leaf_subtrees, count_subtrees
from treecount.invariants import domination_number, matching_number
from bruteforce import oracle_counts
from treecount.tree import Tree, canonical_form
from treecount.verify import run_lemma_suite, verify_theorem

JOBS = 2


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_oracle_equivalence():
    ok = True
    for n in range(1, 12):
        for t in all_trees(n):
            ok = ok and count_report(t) == oracle_counts(t)
    rng = random.Random(1812)
    for _ in range(500):
        t = random_labeled_tree(rng.randint(12, 18), rng)
        ok = ok and count_report(t) == oracle_counts(t)
    _report(1, "oracle equivalence", ok)


def test_criterion_2_closed_form_reproduction():
    checked = 0
    ok = True

    def check(spec):
        nonlocal checked, ok
        t = construct(spec)
        for which, counter in (("F", count_subtrees), ("Fstar", count_leaf_subtrees)):
            try:
                form = closed_form(spec, which)
            except NoFormulaError:
                continue
            ok = ok and form.value == counter(t)
            checked += 1

    for n in range(1, 19):
        check(FamilySpec("path", n=n))
        check(FamilySpec("star", n=n))
        for q in range(1, n // 2 + 1):
            check(FamilySpec("a_nq", n=n, q=q))
        for delta in range(3, n):
            check(FamilySpec("t_ndelta", n=n, delta=delta))
            if n % 2 == 0 and n >= 2 * delta - 2:
                check(FamilySpec("tprime_ndelta", n=n, delta=delta))
        for k in range(2, n):
            check(FamilySpec("spider", n=n, k=k))
        for d in range(2, n):
            for k in {d // 2 + 1, (d + 1) // 2 + 1}:
                check(FamilySpec("hat", n=n, d=d, k=k))
        if n % 2 == 0:
            check(FamilySpec("corona_path", m=n // 2))
        if n >= 6:
            for a in range(1, (n - 4) // 2 + 1):
                check(FamilySpec("pk_ab", k=4, a=a, b=n - 4 - a))

    # the headline instances, frozen
    ok = ok and closed_form(FamilySpec("a_nq", n=6, q=2), "F").value == 30
    ok = ok and closed_form(FamilySpec("path", n=5), "Fstar").value == 9
    ok = ok and closed_form(FamilySpec("star", n=5), "Fstar").value == 19
    ok = ok and closed_form(FamilySpec("t_ndelta", n=9, delta=4), "Fstar").value \
        == 6 * 2 ** 3 + 3
    ok = ok and closed_form(FamilySpec("spider", n=7, k=3), "Fstar").value == 25
    ok = ok and closed_form(FamilySpec("corona_path", m=4), "F").value \
        == 2 ** 6 - 8
    ok = ok and checked > 700
    _report(2, f"closed-form reproduction ({checked} formula cells)", ok)


def test_criterion_3_exhaustive_theorems():
    ranges = {
        "T4.1": (4, 14), "T4.2": (4, 14), "T4.3": (4, 16), "T4.4": (6, 14),
        "T4.5": (4, 14), "T4.6": (4, 14), "T4.7": (3, 14), "T4.8": (3, 14),
    }
    ok = True
    for tag, (lo, hi) in ranges.items():
        rows = verify_theorem(tag, n_min=lo, n_max=hi, jobs=JOBS)
        failures = [r for r in rows if not r.passed]
        substantive = [r for r in rows if r.claimed is not None]
        ok = ok and not failures and substantive
        print(f"  {tag}: {len(rows)} checks, {len(failures)} failures")
    _report(3, "exhaustive theorem verification", ok)


def test_criterion_4_discrepancy_reproduction():
    rows = verify_theorem("T4.8", n_min=3, n_max=3, formula_variant="product")
    f_rows = [r for r in rows if r.constraint.get("quantity") == "F"]
    ok = bool(f_rows)
    ok = ok and not f_rows[0].passed
    ok = ok and f_rows[0].claimed == 5 and f_rows[0].achieved == 6
    ok = ok and "product" in f_rows[0].notes and "sum" in f_rows[0].notes
    sum_rows = verify_theorem("T4.8", n_min=3, n_max=3, formula_variant="sum")
    ok = ok and all(r.passed for r in sum_rows)
    _report(4, "formula discrepancy reproduction", ok)


def test_criterion_5_lemma_suites():
    ok = True
    for tag in ("L3.1", "L3.2", "L3.3", "leaf-deletion", "pendant-edge",
                "path-attachment", "path-comparison"):
        res = run_lemma_suite(tag, samples=300, seed=0)[0]
        ok = ok and res.passed and res.counterexample is None
        print(f"  {tag}: {'pass' if res.passed else 'FAIL'} ({res.notes})")
    equality_notes = run_lemma_suite("L3.1", samples=300, seed=0)[0].notes
    ok = ok and not equality_notes.startswith("0 ")
    _report(5, "lemma property suites", ok)


def test_criterion_6_enumeration_counts():
    counts = {n: sum(1 for _ in all_trees(n)) for n in range(1, 10)}
    ok = counts[7] == 11 and counts[9] == 47
    for n in range(1, 10):
        ok = ok and counts[n] == prufer_class_count(n, jobs=JOBS)
    for n in range(1, 17):
        forms = [canonical_form(t) for t in all_trees(n)]
        ok = ok and len(set(forms)) == len(forms)
    _report(6, "enumeration counts", ok)


def test_criterion_7_invariant_cross_checks():
    ok = True
    for n in range(2, 15):
        for t in all_trees(n):
            gamma = domination_number(t)
            ok = ok and gamma <= matching_number(t) and gamma <= n // 2
    for n in range(2, 13, 2):
        half_dominated = {canonical_form(t) for t in all_trees(n)
                          if domination_number(t) == n // 2}
        coronas = set()
        for h in all_trees(n // 2):
            edges = list(h.edges) + [(v, h.n + v) for v in range(h.n)]
            coronas.add(canonical_form(Tree(n, edges)))
        ok = ok and half_dominated == coronas
    _report(7, "invariant cross-checks", ok)
