"""Every closed form in ``families._FORMS`` proved for every parameter.

Each family is a path with legs, and the subtree count of a path with legs
has a closed form in its shape's parameters: the subtrees inside the legs,
count * L(L+1)/2 for each leg group, plus the path intervals.  An interval
weighs the product of (L+1)^count over the legs hung inside it.  With
attachment positions p_1 < ... < p_r, the intervals that hold exactly the
positions p_a..p_b number (p_a - p_{a-1})(p_{b+1} - p_b), with p_0 = -1 and
p_{r+1} = base, and a gap of g free path vertices holds g(g+1)/2 more.  F* is
F(T) - F(stem), where the stem (T minus its leaves) is again a path with legs.

Each form is read from ``_FORMS`` itself, with ``sympy.binomial`` in place of
``families.comb``, and evaluated on each case of its domain: the parameters
as expressions in nonnegative integer symbols, split where a form floors.  The
difference to the count of the family's ``_SHAPES`` shape must simplify to 0.
The interval formula is itself held to ``count_subtrees`` on the parameter
grid of ``test_families.py``, and the refusal boundaries stay pinned there.
"""

import itertools

import pytest

from test_families import grid_specs
from treecount import families
from treecount.counting import count_leaf_subtrees, count_subtrees
from treecount.families import FAMILIES, BadParamsError, NoFormulaError, closed_form, construct

sympy = pytest.importorskip("sympy")

s, t, u, v = sympy.symbols("s t u v", integer=True, nonnegative=True)
SYMBOLS = (s, t, u, v)
# the spider's short leg length, the quotient of its floor (n - 1) // k
LO = 1 + u

# each form's whole domain as cases, the parameters in builder order; a case
# fixes what the stem depends on (a base of one vertex or more, a hub that is
# a leaf or not) and the value of every floor
DOMAINS = {
    ("path", "F"): [(2 * t + 1,), (2 * t + 2,)],
    ("path", "Fstar"): [(1,), (s + 2,)],
    ("star", "F"): [(s + 1,)],
    ("star", "Fstar"): [(s + 3,)],
    ("a_nq", "F"): [(2 * u + 2 + v, u + 1)],
    # a hub of degree n - q >= 2: n > 2q, or n = 2q with q >= 2
    ("a_nq", "Fstar"): [(2 * u + 3 + v, u + 1), (2 * u + 4, u + 2)],
    ("pk_ab", "F"): [(4, u + 1, v + 1)],
    ("pk_ab", "Fstar"): [(4, u + 1, v + 1)],
    ("corona_path", "F"): [(s + 1,)],
    ("corona_path", "Fstar"): [(s + 2,)],
    ("t_ndelta", "F"): [(u + 4 + s, u + 3)],
    ("t_ndelta", "Fstar"): [(u + 4 + s, u + 3)],
    ("tprime_ndelta", "F"): [(2 * u + 4 + 2 * s, u + 3)],
    ("tprime_ndelta", "Fstar"): [(2 * u + 6 + 2 * s, u + 3)],
    # n - 1 = LO * k + j with 0 <= j < k and k >= 2: j = 0 with k = s + 2,
    # or j = t + 1 with k = t + 2 + s
    ("spider", "F"): [(LO * (s + 2) + 1, s + 2), (LO * (t + 2 + s) + t + 2, t + 2 + s)],
    ("spider", "Fstar"): [(LO * (s + 2) + 1, s + 2), (LO * (t + 2 + s) + t + 2, t + 2 + s)],
    # d = 2t + 2 with k = t + 2, and d = 2t + 3 with k = t + 2 or t + 3
    ("hat", "F"): [(2 * t + 3 + s, 2 * t + 2, t + 2),
                   (2 * t + 4 + s, 2 * t + 3, t + 2), (2 * t + 4 + s, 2 * t + 3, t + 3)],
    ("hat", "Fstar"): [(2 * t + 3 + s, 2 * t + 2, t + 2),
                       (2 * t + 4 + s, 2 * t + 3, t + 2), (2 * t + 4 + s, 2 * t + 3, t + 3)],
}


def half_pairs(x):
    """x(x + 1)/2, exactly, for an int or a sympy expression."""
    return sympy.sympify(x) * (x + 1) / 2


def interval_count(base, legs):
    """F of the path on ``base`` vertices with legs ``(at, length, count)``."""
    weight = {}
    for at, length, count in legs:
        weight[at] = weight.get(at, 1) * (length + 1) ** count
    p = [-1, *sorted(weight), base]
    total = sum(count * half_pairs(length) for _, length, count in legs)
    total += sum(half_pairs(p[a + 1] - p[a] - 1) for a in range(len(p) - 1))
    for a in range(1, len(p) - 1):
        held = 1
        for b in range(a, len(p) - 1):
            held *= weight[p[b]]
            total += (p[a] - p[a - 1]) * (p[b + 1] - p[b]) * held
    return total


def stem(base, legs):
    """The shape of T minus its leaves: every leg one shorter, and a base end
    dropped when it is a leaf (of degree at most 1, so that K1 is a leaf).
    Every comparison must be decided by the case's symbols."""
    def degree(end):
        return (1 if base > 1 else 0) + sum(count for at, _, count in legs
                                            if sympy.Eq(at, end))

    if not base > 1:
        if degree(0) > 1:
            return 1, [(at, length - 1, count) for at, length, count in legs]
        assert all(length <= 1 or count < 1 for _, length, count in legs)  # T is K1 or K2
        return 0, []
    drop0, drop1 = (1 if degree(end) <= 1 else 0 for end in (0, base - 1))
    kept = [(at - drop0, length - 1, count) for at, length, count in legs
            if not (drop0 and sympy.Eq(at, 0) or drop1 and sympy.Eq(at, base - 1))]
    return base - drop0 - drop1, kept


def shape_count(base, legs, which):
    f = interval_count(base, legs)
    return f if which == "F" else f - interval_count(*stem(base, legs))


def corona_count(m, which):
    """The corona of P_m has a pendant on every base vertex, so every
    interval holds exactly its own positions and weighs 2^length; its stem is
    the base path, for m >= 2."""
    a, b = sympy.symbols("a b", integer=True, nonnegative=True)
    f = m + sympy.summation(sympy.summation(2 ** (b - a + 1), (b, a, m - 1)), (a, 0, m - 1))
    return f if which == "F" else f - half_pairs(m)


def floor_value(x):
    """floor(x) where a form floors past sympy's own rules: only the spider's
    (n - 1) // k, which is LO, checked: 0 <= x - LO < 1."""
    assert sympy.cancel(x - LO).is_nonnegative and sympy.cancel(x - LO - 1).is_negative, x
    return LO


def settle(x):
    """x with each floor replaced by its checked value, binomials expanded."""
    return sympy.expand_func(sympy.sympify(x).replace(sympy.floor, floor_value))


def form_value(family, which, params, join="sum"):
    """The ``_FORMS`` value at symbolic parameters (comb must be binomial)."""
    return settle(families._FORMS[family][which][2](*params, families._JOINS[join]))


def symbolic_count(family, which, params):
    if family == "corona_path":
        return corona_count(params[0], which)
    base, legs = families._SHAPES[family][2](*params)
    legs = [tuple(map(settle, leg)) for leg in legs]
    return settle(shape_count(settle(base), legs, which))


def is_zero(x):
    return sympy.simplify(sympy.expand(x, power_exp=True)) == 0


@pytest.fixture
def binomial_comb(monkeypatch):
    monkeypatch.setattr(families, "comb", sympy.binomial)


@pytest.mark.usefixtures("binomial_comb")
class TestFormsProved:
    @pytest.mark.parametrize("family, which", sorted(DOMAINS),
                             ids=[f"{fam}-{which}" for fam, which in sorted(DOMAINS)])
    def test_form_equals_the_shape_count(self, family, which):
        for params in DOMAINS[family, which]:
            diff = form_value(family, which, params) - symbolic_count(family, which, params)
            assert is_zero(diff), (family, which, params, sympy.simplify(diff))

    @pytest.mark.parametrize("which", ("F", "Fstar"))
    def test_hat_product_reading_is_no_identity(self, which):
        for params in DOMAINS["hat", which]:
            diff = (form_value("hat", which, params, join="product")
                    - symbolic_count("hat", which, params))
            assert not is_zero(diff)
            # it differs already at the case's smallest member
            assert diff.subs(dict.fromkeys(SYMBOLS, 0)) != 0, params


def domain_members(family, which, top=13):
    """The parameter tuples of the cases' members with every symbol in 0..top."""
    members = set()
    for params in DOMAINS[family, which]:
        free = sorted(set().union(*(sympy.sympify(p).free_symbols for p in params)), key=str)
        at = sympy.lambdify(free, params)
        members.update(tuple(map(int, at(*values)))
                       for values in itertools.product(range(top + 1), repeat=len(free)))
    return members


class TestDomains:
    def test_every_form_has_a_domain(self):
        assert sorted(DOMAINS) == sorted((fam, which) for fam in families._FORMS
                                         for which in families._FORMS[fam])
        assert len(DOMAINS) == 18

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cases_cover_every_spec_with_a_value(self, family):
        """Every grid spec with a closed form lies in one of its cases, and
        every case member in the grid has one, so no part of a domain goes
        unproved and no case strays outside it."""
        for which in ("F", "Fstar"):
            valued = set()
            for spec in grid_specs(family):
                try:
                    closed_form(spec, which)
                except (BadParamsError, NoFormulaError):
                    continue
                valued.add(families._check_params(spec))
            in_grid = {p for p in domain_members(family, which) if max(p) <= 13}
            assert valued == in_grid, (family, which)


class TestIntervalFormula:
    def test_shape_counts_equal_the_counters_on_the_grid(self):
        checked = 0
        for family in FAMILIES:
            for spec in grid_specs(family):
                try:
                    params = families._check_params(spec)
                except BadParamsError:
                    continue
                tree, shape = construct(spec), families._SHAPES[family][2](*params)
                assert shape_count(*shape, "F") == count_subtrees(tree), spec
                assert shape_count(*shape, "Fstar") == count_leaf_subtrees(tree), spec
                checked += 1
        assert checked == 3065

    def test_corona_summation_equals_the_interval_formula(self):
        m = sympy.Symbol("m", integer=True, nonnegative=True)
        for which, smallest in (("F", 1), ("Fstar", 2)):
            count = corona_count(m, which)
            for size in range(smallest, 14):
                assert count.subs(m, size) == shape_count(
                    *families._SHAPES["corona_path"][2](size), which), (which, size)
