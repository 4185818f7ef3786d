"""Constructors for the named extremal tree families and evaluators for their
closed-form subtree counts.

The closed forms are evaluated by pure integer arithmetic and never consult
the counters in :mod:`treecount.counting`; agreement between the two routes is
what the test suite checks.

Families (``FamilySpec.family``):

* ``path``, ``star`` -- P_n and K_{1,n-1}.
* ``a_nq`` -- star K_{1,n-q} with q-1 of its leaves extended by a pendant
  edge; the matching-number extremal tree (tag T4.1).
* ``pk_ab`` -- path on k vertices with a and b pendants on its endpoints
  (closed forms only for k = 4, tag T4.4).
* ``corona_path`` -- P_m with one new pendant on every vertex, n = 2m
  (tag T4.3).
* ``t_ndelta`` -- broom: path on n-delta+1 vertices with delta-1 pendants at
  one end (tag T4.5).
* ``tprime_ndelta`` -- hub at one end of a path on n-2*delta+3 vertices,
  carrying delta-2 two-edge legs and one pendant; the perfect-matching
  variant of the broom (tag T4.6).
* ``spider`` -- hub with k legs of near-equal lengths (tag T4.7).
* ``hat`` -- path on d+1 vertices with n-d-1 pendants at position k; the
  diameter-class extremal tree (tag T4.8).

One table row per family holds the fields it reads, its refusals in order
(each a test and its message) and its shape, and a row keyed the same way
holds its closed forms: for F and F* the formula id, the no-formula refusals
and the value. One parameter check serves the builder and the closed forms.
Every family is a path with legs: its shape is
``(base, [(at, length, count), ...])``, the path on vertices 0..base-1 with
``count`` legs of ``length`` vertices hung at path vertex ``at``, and one
builder emits it, the legs taking the next labels in the order listed (a
star is ``(1, [(0, 1, n-1)])``, a hat ``(d+1, [(k-1, 1, n-d-1)])``).

The displayed count for ``hat`` carries its two single-leg binomial terms as
a sum; evaluating them as a product instead (selectable via
``binomial_term="product"``) is wrong already at n=3, d=2 and is kept only so
the verifier can demonstrate the discrepancy.
"""

from __future__ import annotations

from math import comb
from operator import add, mul
from typing import NamedTuple

from .tree import Tree


def _spider_legs(n: int, k: int) -> tuple[int, int, int, int]:
    """(short length, long length, #short, #long) of the balanced spider."""
    lo, j = divmod(n - 1, k)
    return lo, lo + 1, k - j, j


def _spider_shape(n: int, k: int):
    lo, hi, i, j = _spider_legs(n, k)
    return 1, [(0, lo, i), (0, hi, j)]


def _spider_f(n: int, k: int, _) -> int:
    lo, hi, i, j = _spider_legs(n, k)
    return (lo + 1) ** i * (hi + 1) ** j + i * comb(lo + 1, 2) + j * comb(hi + 1, 2)


def _spider_fstar(n: int, k: int, _) -> int:
    lo, hi, i, j = _spider_legs(n, k)
    return (lo + 1) ** i * (hi + 1) ** j - lo ** i * hi ** j + (n - 1)


def _pk_ab_f(k: int, a: int, b: int, _) -> int:
    n = k + a + b
    return 3 * (2 ** a + 2 ** b) + 2 ** (n - 4) + n - 1


def _hat_f(n: int, d: int, k: int, join) -> int:
    a, b = d // 2, (d + 1) // 2
    tail = join(comb(a + 1, 2), comb(b + 1, 2))
    return 2 ** (n - d - 1) * (a + 1) * (b + 1) + tail + (n - d - 1)


# each family: the FamilySpec fields it reads, in builder order (corona_path's
# n only stands in for m); its checks in order, each a test that refuses the
# spec when it holds and the refusal's text; its shape, as _legged_path reads it
_SHAPES = {
    "path": (("n",), [(lambda n: n < 1, "path needs n >= 1")], lambda n: (n, [])),
    "star": (("n",), [(lambda n: n < 1, "star needs n >= 1")],
             lambda n: (1, [(0, 1, n - 1)])),
    "a_nq": (("n", "q"),
             [(lambda n, q: not (n >= 2 * q >= 2), "a_nq needs n >= 2q >= 2, got n={n}, q={q}")],
             lambda n, q: (1, [(0, 1, n - 2 * q + 1), (0, 2, q - 1)])),
    "pk_ab": (("k", "a", "b"),
              [(lambda k, a, b: k < 2 or a < 0 or b < 0,
                "pk_ab needs k >= 2 and a, b >= 0, got k={k}, a={a}, b={b}")],
              lambda k, a, b: (k, [(0, 1, a), (k - 1, 1, b)])),
    "corona_path": (("m", "n"),
                    [(lambda m: m < 1, "corona_path needs base length m >= 1, got m={m}")],
                    lambda m: (m, [(i, 1, 1) for i in range(m)])),
    "t_ndelta": (("n", "delta"),
                 [(lambda n, delta: delta < 3 or n < delta + 1,
                   "t_ndelta needs delta >= 3 and n >= delta+1, got n={n}, delta={delta}")],
                 lambda n, delta: (n - delta + 1, [(0, 1, delta - 1)])),
    "tprime_ndelta": (("n", "delta"),
                      [(lambda n, delta: delta < 3 or n % 2 or n < 2 * delta - 2,
                        "tprime_ndelta needs delta >= 3 and even n >= 2*delta-2, "
                        "got n={n}, delta={delta}")],
                      lambda n, delta: (n - 2 * delta + 3, [(0, 1, 1), (0, 2, delta - 2)])),
    "spider": (("n", "k"),
               [(lambda n, k: not (2 <= k <= n - 1),
                 "spider needs 2 <= k <= n-1, got n={n}, k={k}")],
               _spider_shape),
    "hat": (("n", "d", "k"),
            [(lambda n, d, k: not (2 <= d <= n - 1), "hat needs 2 <= d <= n-1, got n={n}, d={d}"),
             (lambda n, d, k: not (1 <= k <= d + 1), "hat needs 1 <= k <= d+1, got k={k}, d={d}")],
            lambda n, d, k: (d + 1, [(k - 1, 1, n - d - 1)])),
}
_PK_AB_REFUSALS = [(lambda k, a, b: k != 4, "closed forms only on record for k = 4"),
                   (lambda k, a, b: a < 1 or b < 1,
                    "k = 4 forms need a, b >= 1 (otherwise the stem changes)")]
_HAT_REFUSALS = [(lambda n, d, k: k not in (d // 2 + 1, (d + 1) // 2 + 1),
                  "closed form only at the balanced attachment position")]
_JOINS = {"sum": add, "product": mul}  # how the hat's two binomial terms combine
# each family's closed forms, per quantity: the formula id, the refusals (tests
# of the parameters in builder order) and the value of those and a _JOINS entry
_FORMS = {
    "path": {"F": ("basic", [], lambda n, _: n * (n + 1) // 2),
             "Fstar": ("L2star", [], lambda n, _: 2 * n - 1)},
    "star": {"F": ("basic", [], lambda n, _: 2 ** (n - 1) + n - 1),
             "Fstar": ("L2star", [(lambda n: n < 3, "star leaf-subtree form needs n >= 3")],
                       lambda n, _: 2 ** (n - 1) + n - 2)},
    "a_nq": {"F": ("T4.1", [], lambda n, q, _: 2 ** (n - 2 * q + 1) * 3 ** (q - 1) + n + q - 2),
             # at n=2 the hub itself is a leaf and the stem is empty
             "Fstar": ("T4.1", [(lambda n, q: n < 3, "a_nq leaf-subtree form needs n >= 3")],
                       lambda n, q, _: 2 ** (n - 2 * q + 1) * 3 ** (q - 1)
                       - 2 ** (q - 1) + n - 1)},
    "pk_ab": {"F": ("T4.4", _PK_AB_REFUSALS, _pk_ab_f),
              "Fstar": ("T4.4", _PK_AB_REFUSALS,
                        lambda k, a, b, join: _pk_ab_f(k, a, b, join) - 10)},
    "corona_path": {"F": ("T4.3", [], lambda m, _: 2 ** (m + 2) - m - 4),
                    "Fstar": ("T4.3", [(lambda m: m < 2, "corona leaf-subtree form needs m >= 2")],
                              lambda m, _: 2 ** (m + 2) - m - 4 - comb(m + 1, 2))},
    "t_ndelta": {"F": ("T4.5", [], lambda n, delta, _: (n - delta + 1) * 2 ** (delta - 1)
                       + delta - 1 + comb(n - delta + 1, 2)),
                 "Fstar": ("T4.5", [], lambda n, delta, _: (n - delta + 1) * 2 ** (delta - 1)
                           + delta - 1)},
    "tprime_ndelta": {"F": ("T4.6", [], lambda n, delta, _: 2 * (n - 2 * delta + 3)
                            * 3 ** (delta - 2) + 3 * delta - 5 + comb(n - 2 * delta + 3, 2)),
                      # with a one-vertex base path the stem is a star, not a broom
                      "Fstar": ("T4.6", [(lambda n, delta: n < 2 * delta,
                                          "tprime leaf-subtree form needs n >= 2*delta")],
                                lambda n, delta, _: 2 * (n - 2 * delta + 3) * 3 ** (delta - 2)
                                - (n - 2 * delta + 2) * 2 ** (delta - 2) + n - 1)},
    "spider": {"F": ("T4.7", [], _spider_f), "Fstar": ("T4.7", [], _spider_fstar)},
    "hat": {"F": ("T4.8", _HAT_REFUSALS, _hat_f),
            "Fstar": ("T4.8", _HAT_REFUSALS,
                      lambda n, d, k, join: _hat_f(n, d, k, join) - comb(d, 2))},
}
FAMILIES = tuple(_SHAPES)

FORMULA_DISPLAY = {
    "T4.1": "Theorem 4.1",
    "T4.3": "Theorem 4.3",
    "T4.4": "Theorem 4.4",
    "T4.5": "Theorem 4.5",
    "T4.6": "Theorem 4.6",
    "T4.7": "Theorem 4.7",
    "T4.8": "Theorem 4.8",
    "L2star": "path/star leaf-subtree lemma",
    "basic": "elementary count",
}


class BadParamsError(ValueError):
    """Family parameters violate the family's constraints."""


class NoFormulaError(LookupError):
    """No closed form is on record for this (family, quantity) pair."""


class FamilySpec(NamedTuple):
    """Selects one extremal family together with its parameters."""

    family: str
    n: int | None = None
    q: int | None = None
    k: int | None = None
    a: int | None = None
    b: int | None = None
    delta: int | None = None
    d: int | None = None
    m: int | None = None


class ClosedForm(NamedTuple):
    spec: FamilySpec
    which: str          # "F" or "Fstar"
    value: int
    formula_id: str


def _check_params(spec: FamilySpec) -> tuple[int, ...]:
    """The family's parameters in builder order, checked against its
    constraints, so that a tree and a closed form reject a spec alike."""
    fam = spec.family
    if fam not in _SHAPES:
        raise BadParamsError(f"unknown family {fam!r}")
    fields, checks, _ = _SHAPES[fam]
    unread = [name for name in FamilySpec._fields[1:]
              if getattr(spec, name) is not None and name not in fields]
    if unread:
        raise BadParamsError(f"family {fam!r} does not take "
                             + ", ".join(map(repr, unread)))
    got = {name: getattr(spec, name) for name in fields}
    if fam == "hat" and got["k"] is None and got["d"] is not None:  # k is optional
        got["k"] = got["d"] // 2 + 1
    elif fam == "corona_path":  # n = 2m stands in for m, or must agree with it
        m, n = got["m"], got.pop("n")
        if m is None:
            if n is None:
                raise BadParamsError("family 'corona_path' needs parameter 'm' (or an even 'n')")
            if n % 2:
                raise BadParamsError(f"corona_path needs even n, got n={n}")
            got["m"] = n // 2
        elif n is not None and n != 2 * m:
            raise BadParamsError(f"corona_path needs n = 2m, got m={m}, n={n}")
    for name, value in got.items():
        if value is None:
            raise BadParamsError(f"family {fam!r} needs parameter {name!r}")
    params = tuple(got.values())
    for test, refusal in checks:
        if test(*params):
            raise BadParamsError(refusal.format(**got))
    return params


def _legged_path(base: int, legs) -> Tree:
    """The path with legs of one shape (see the module docstring); each leg's
    labels rise outwards from its path vertex."""
    edges = [(i, i + 1) for i in range(base - 1)]
    nxt = base
    for at, length, count in legs:
        end = nxt + length * count
        edges += [(at, v) for v in range(nxt, end, length)]
        if length > 1:
            edges += [(v, v + 1) for s in range(nxt, end, length)
                      for v in range(s, s + length - 1)]
        nxt = end
    return Tree(nxt, edges)


def construct(spec: FamilySpec) -> Tree:
    """Build the tree selected by the spec, validating its parameters."""
    params = _check_params(spec)
    return _legged_path(*_SHAPES[spec.family][2](*params))


def closed_form(spec: FamilySpec, which: str, binomial_term: str = "sum") -> ClosedForm:
    """Evaluate the family's displayed count ("F" or "Fstar") exactly.

    ``binomial_term`` only affects the ``hat`` family; see the module
    docstring.  Raises NoFormulaError when the requested quantity has no
    closed form (or none on the requested parameters).
    """
    if which not in ("F", "Fstar"):
        raise ValueError(f"which must be 'F' or 'Fstar', got {which!r}")
    if binomial_term not in ("sum", "product"):
        raise ValueError(f"binomial_term must be 'sum' or 'product', got {binomial_term!r}")
    params = _check_params(spec)
    formula_id, refusals, value = _FORMS[spec.family][which]
    for test, refusal in refusals:
        if test(*params):
            raise NoFormulaError(refusal)
    return ClosedForm(spec, which, value(*params, _JOINS[binomial_term]), formula_id)
