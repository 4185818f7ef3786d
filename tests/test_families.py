import collections
import hashlib
import itertools

import pytest

from conftest import make_path, make_star
from treecount import families
from treecount.counting import count_leaf_subtrees, count_subtrees
from treecount.families import (FAMILIES, BadParamsError, FamilySpec, NoFormulaError,
                                closed_form, construct)
from treecount.invariants import has_perfect_matching
from treecount.tree import is_isomorphic, serialize_tree


def dp_value(t, which):
    return count_subtrees(t) if which == "F" else count_leaf_subtrees(t)


class TestConstruct:
    def test_matching_extremal_shape(self):
        t = construct(FamilySpec("a_nq", n=6, q=2))
        degs = sorted(t.degree(v) for v in range(6))
        assert degs == [1, 1, 1, 1, 2, 4]  # hub with 3 pendants plus one 2-leg

    def test_two_leg_spider_is_path(self):
        assert is_isomorphic(construct(FamilySpec("spider", n=4, k=2)), make_path(4))

    def test_perfect_matching_family(self):
        t = construct(FamilySpec("tprime_ndelta", n=12, delta=4))
        assert has_perfect_matching(t)
        assert max(t.degree(v) for v in range(12)) == 4

    def test_spider_leg_multiset(self):
        for n in range(3, 19):
            for k in range(2, n):
                t = construct(FamilySpec("spider", n=n, k=k))
                hubs = [v for v in range(n) if t.degree(v) > 2]
                assert len(hubs) <= 1
                legs = []
                hub = hubs[0] if hubs else 0
                for start in t.adj[hub]:
                    length = 1
                    prev, cur = hub, start
                    while t.degree(cur) == 2:
                        prev, cur = cur, [w for w in t.adj[cur] if w != prev][0]
                        length += 1
                    legs.append(length)
                lo, j = divmod(n - 1, k)
                assert sorted(legs) == [lo] * (k - j) + [lo + 1] * j

    def test_corona_and_hat_shapes(self):
        corona = construct(FamilySpec("corona_path", m=2))
        assert is_isomorphic(corona, make_path(4))
        hat = construct(FamilySpec("hat", n=5, d=2, k=2))
        assert is_isomorphic(hat, make_star(5))

    def test_corona_takes_both_m_and_n_when_they_agree(self):
        both = FamilySpec("corona_path", m=3, n=6)
        assert construct(both).edges == construct(FamilySpec("corona_path", m=3)).edges
        want = closed_form(FamilySpec("corona_path", n=6), "F").value
        assert closed_form(both, "F").value == want

    def test_bad_params(self):
        for spec in INVALID_SPECS:
            with pytest.raises(BadParamsError):
                construct(spec)


INVALID_SPECS = (
    FamilySpec("a_nq", n=5, q=3),
    FamilySpec("a_nq", n=6),  # missing q
    FamilySpec("t_ndelta", n=4, delta=2),
    FamilySpec("tprime_ndelta", n=9, delta=3),
    FamilySpec("spider", n=4, k=4),
    FamilySpec("hat", n=4, d=4),
    FamilySpec("hat", n=10, d=4, k=6),
    FamilySpec("path", n=0),
    FamilySpec("star", n=0),
    FamilySpec("pk_ab", k=4, a=-1, b=1),
    FamilySpec("corona_path", n=7),
    FamilySpec("corona_path", m=0),
    FamilySpec("corona_path"),
    FamilySpec("nosuch", n=3),
    FamilySpec("corona_path", m=3, n=100),
)

# one member of each family, with the quantities that have a closed form
VALID_SPECS = (
    (FamilySpec("path", n=9), ("F", "Fstar")),
    (FamilySpec("star", n=9), ("F", "Fstar")),
    (FamilySpec("a_nq", n=11, q=3), ("F", "Fstar")),
    (FamilySpec("pk_ab", k=4, a=2, b=3), ("F", "Fstar")),
    (FamilySpec("corona_path", n=12), ("F", "Fstar")),
    (FamilySpec("t_ndelta", n=12, delta=5), ("F", "Fstar")),
    (FamilySpec("tprime_ndelta", n=12, delta=4), ("F", "Fstar")),
    (FamilySpec("spider", n=12, k=4), ("F", "Fstar")),
    (FamilySpec("hat", n=12, d=5), ("F", "Fstar")),
)


def grid_specs(fam):
    """Every spec of the family in TestPinnedOutput's grid."""
    reads = TestPinnedOutput.READS[fam]
    return [FamilySpec(fam, **dict(zip(reads, values)))
            for values in itertools.product((None, *range(14)), repeat=len(reads))]


def refusal(route, *args):
    """The BadParamsError message the route raises, or None."""
    try:
        route(*args)
    except BadParamsError as exc:
        return str(exc)
    except NoFormulaError:
        pass
    return None


class TestParamChecks:
    """One parameter check serves both the builder and the closed forms."""

    @pytest.mark.parametrize("spec", INVALID_SPECS + FAMILIES, ids=repr)
    def test_same_error_from_both(self, spec):
        if spec in FAMILIES:
            # a family name stands for its whole grid: a refused spec is
            # refused alike by both routes, an accepted one by neither
            for member in grid_specs(spec):
                built = refusal(construct, member)
                for which in ("F", "Fstar"):
                    assert refusal(closed_form, member, which) == built, (member, which)
            return
        with pytest.raises(BadParamsError) as built:
            construct(spec)
        for which in ("F", "Fstar"):
            with pytest.raises(BadParamsError) as formula:
                closed_form(spec, which)
            assert str(formula.value) == str(built.value)

    @pytest.mark.parametrize("spec", [spec for spec, _ in VALID_SPECS],
                             ids=lambda spec: spec.family)
    def test_unread_parameters_are_refused(self, spec):
        read = {name for name in spec._fields[1:] if getattr(spec, name) is not None}
        # hat's k is optional, and corona_path takes m and n = 2m together
        read |= {"hat": {"k"}, "corona_path": {"m", "n"}}.get(spec.family, set())
        unread = [name for name in spec._fields[1:] if name not in read]
        assert unread
        for name in unread:
            bad = spec._replace(**{name: 7})
            with pytest.raises(BadParamsError, match=f"does not take '{name}'$"):
                construct(bad)
            for which in ("F", "Fstar"):
                with pytest.raises(BadParamsError, match=f"does not take '{name}'$"):
                    closed_form(bad, which)
        with pytest.raises(BadParamsError, match=", ".join(map(repr, unread)) + "$"):
            construct(spec._replace(**dict.fromkeys(unread, 7)))

    def test_every_family_covered(self):
        assert sorted(spec.family for spec, _ in VALID_SPECS) == sorted(FAMILIES)

    def test_closed_form_builds_no_tree(self, monkeypatch):
        expected = {(spec, q): dp_value(construct(spec), q)
                    for spec, quantities in VALID_SPECS for q in quantities}

        def no_tree(*args):
            raise AssertionError("closed_form built a tree")

        monkeypatch.setattr(families, "Tree", no_tree)
        for (spec, q), value in expected.items():
            assert closed_form(spec, q).value == value, (spec, q)


class TestPinnedOutput:
    """Every spec with each parameter its family reads in None, 0..13: the
    labelled trees built and the refusal messages, pinned as recorded
    before the families shared one shape table and builder."""

    READS = {"path": ("n",), "star": ("n",), "a_nq": ("n", "q"), "pk_ab": ("k", "a", "b"),
             "corona_path": ("m", "n"), "t_ndelta": ("n", "delta"),
             "tprime_ndelta": ("n", "delta"), "spider": ("n", "k"), "hat": ("n", "d", "k")}

    def test_trees_and_refusals(self):
        assert sorted(self.READS) == sorted(FAMILIES)
        built, valid, refused = hashlib.sha256(), 0, []
        for fam in FAMILIES:
            for values in itertools.product((None, *range(14)), repeat=len(self.READS[fam])):
                spec = FamilySpec(fam, **dict(zip(self.READS[fam], values)))
                try:
                    t = construct(spec)
                except BadParamsError as exc:
                    refused.append(str(exc))
                    continue
                valid += 1
                built.update(f"{spec}\n{serialize_tree(t)}".encode())
        assert valid == 3065
        assert built.hexdigest() == (
            "2cdd6e88ac29b749c164d4c18c51160ced1efb67f5b269a1727a589d18ae1b52")
        assert len(refused) == 4840
        assert hashlib.sha256("\n".join(sorted(refused)).encode()).hexdigest() == (
            "d074f67433e98163bb784debc71887187c77584c5c51f93562d5a21d0a039c52")

    def test_closed_forms_and_refusals(self):
        """Every closed form over the same grid, both quantities and both
        binomial readings: the value and formula id, or the exception's class
        and message, pinned as recorded before the forms joined the table."""
        outcomes, kinds = hashlib.sha256(), collections.Counter()
        for spec in (spec for fam in FAMILIES for spec in grid_specs(fam)):
            for which, term in itertools.product(("F", "Fstar"), ("sum", "product")):
                try:
                    form = closed_form(spec, which, binomial_term=term)
                except (BadParamsError, NoFormulaError) as exc:
                    kinds[type(exc).__name__] += 1
                    outcome = f"{type(exc).__name__}: {exc}"
                else:
                    kinds["value"] += 1
                    outcome = f"{form.value} {form.formula_id}"
                outcomes.update(f"{spec} {which} {term}\n{outcome}\n".encode())
        assert kinds == {"value": 2218, "NoFormulaError": 10042, "BadParamsError": 19360}
        assert outcomes.hexdigest() == (
            "3721040623651b4bc442e6f71669ce80f8b319c9416ecd1fe46d67df1bce0c56")


class TestClosedForms:
    def test_instances(self):
        assert closed_form(FamilySpec("a_nq", n=6, q=2), "F").value == 30
        assert closed_form(FamilySpec("a_nq", n=6, q=2), "Fstar").value == 27
        assert closed_form(FamilySpec("corona_path", m=2), "F").value == 10
        assert closed_form(FamilySpec("corona_path", m=2), "Fstar").value == 7
        assert closed_form(FamilySpec("spider", n=7, k=3), "Fstar").value == 25
        assert closed_form(FamilySpec("spider", n=7, k=3), "F").value == 36
        assert closed_form(FamilySpec("path", n=5), "Fstar").value == 9
        assert closed_form(FamilySpec("star", n=5), "Fstar").value == 19
        form = closed_form(FamilySpec("a_nq", n=6, q=2), "F")
        assert form.formula_id == "T4.1"

    def test_star_coincidence(self):
        # the broom with delta = n-1 degenerates to the star
        n = 9
        broom = FamilySpec("t_ndelta", n=n, delta=n - 1)
        assert is_isomorphic(construct(broom), make_star(n))
        assert closed_form(broom, "Fstar").value == \
            closed_form(FamilySpec("star", n=n), "Fstar").value

    def test_pendant_pair_path_coincidence(self):
        spec = FamilySpec("pk_ab", k=4, a=1, b=1)
        assert closed_form(spec, "F").value == 21 == count_subtrees(make_path(6))
        assert closed_form(spec, "Fstar").value == 11

    def test_no_formula_cases(self):
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("pk_ab", k=5, a=1, b=1), "F")
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("pk_ab", k=4, a=0, b=3), "F")
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("hat", n=8, d=5, k=1), "F")
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("star", n=2), "Fstar")
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("a_nq", n=2, q=1), "Fstar")
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("corona_path", m=1), "Fstar")
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("tprime_ndelta", n=4, delta=3), "Fstar")

    @pytest.mark.parametrize("which, term, message", [
        ("W", "sum", "which must be 'F' or 'Fstar', got 'W'"),
        ("f", "sum", "which must be 'F' or 'Fstar', got 'f'"),
        ("F", "difference", "binomial_term must be 'sum' or 'product', got 'difference'"),
    ])
    def test_bad_quantity_or_reading(self, which, term, message):
        with pytest.raises(ValueError) as exc:
            closed_form(FamilySpec("hat", n=8, d=4), which, binomial_term=term)
        assert type(exc.value) is ValueError and str(exc.value) == message

    def test_hat_product_variant_departs(self):
        spec = FamilySpec("hat", n=3, d=2)
        assert closed_form(spec, "F").value == 6
        assert closed_form(spec, "F", binomial_term="product").value == 5
        assert closed_form(spec, "Fstar").value == 5
        assert closed_form(spec, "Fstar", binomial_term="product").value == 4

    def test_forms_at_the_edges_of_their_range(self):
        # the smallest members with a leaf-subtree form, and hat's second
        # balanced position, which exists at odd d only
        for spec, which in ((FamilySpec("star", n=3), "Fstar"),
                            (FamilySpec("a_nq", n=3, q=1), "Fstar"),
                            (FamilySpec("tprime_ndelta", n=6, delta=3), "Fstar"),
                            (FamilySpec("tprime_ndelta", n=8, delta=3), "Fstar"),
                            (FamilySpec("hat", n=8, d=5, k=4), "F"),
                            (FamilySpec("hat", n=8, d=5, k=4), "Fstar")):
            assert closed_form(spec, which).value == dp_value(construct(spec), which), spec
        with pytest.raises(NoFormulaError):
            closed_form(FamilySpec("hat", n=8, d=4, k=4), "F")

    def test_hat_product_variant_multiplies_the_tails(self):
        # at d = 4 the tails are C(3, 2) = 3 each: 3 * 3 against 3 + 3
        spec = FamilySpec("hat", n=8, d=4)
        assert closed_form(spec, "F").value == 81
        assert closed_form(spec, "F", binomial_term="product").value == 84
        assert closed_form(spec, "Fstar", binomial_term="product").value == 78


class TestFormulaAgainstCounting:
    """Every closed form must reproduce the counter on the built tree."""

    def check(self, spec, quantities=("F", "Fstar")):
        t = construct(spec)
        for which in quantities:
            try:
                form = closed_form(spec, which)
            except NoFormulaError:
                continue
            assert form.value == dp_value(t, which), (spec, which)

    def test_paths_and_stars(self):
        for n in range(1, 13):
            self.check(FamilySpec("path", n=n))
            self.check(FamilySpec("star", n=n))

    def test_a_nq(self):
        for n in range(2, 13):
            for q in range(1, n // 2 + 1):
                self.check(FamilySpec("a_nq", n=n, q=q))

    def test_corona(self):
        for m in range(1, 7):
            self.check(FamilySpec("corona_path", m=m))

    def test_pendant_pairs(self):
        for a in range(1, 5):
            for b in range(a, 6):
                self.check(FamilySpec("pk_ab", k=4, a=a, b=b))

    def test_brooms(self):
        for n in range(4, 13):
            for delta in range(3, n):
                self.check(FamilySpec("t_ndelta", n=n, delta=delta))

    def test_tprime(self):
        for n in range(4, 15, 2):
            for delta in range(3, (n + 2) // 2 + 1):
                if n >= 2 * delta - 2:
                    self.check(FamilySpec("tprime_ndelta", n=n, delta=delta))

    def test_spiders(self):
        for n in range(3, 13):
            for k in range(2, n):
                self.check(FamilySpec("spider", n=n, k=k))

    def test_hats(self):
        for n in range(3, 13):
            for d in range(2, n):
                for k in (d // 2 + 1, (d + 1) // 2 + 1):
                    self.check(FamilySpec("hat", n=n, d=d, k=k))
