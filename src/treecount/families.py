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

The displayed count for ``hat`` carries its two single-leg binomial terms as
a sum; evaluating them as a product instead (selectable via
``binomial_term="product"``) is wrong already at n=3, d=2 and is kept only so
the verifier can demonstrate the discrepancy.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .tree import Tree

# each family with the FamilySpec fields it reads (hat's k is optional, and
# corona_path takes m, or n = 2m, or both)
_PARAMS = {
    "path": ("n",), "star": ("n",), "a_nq": ("n", "q"), "pk_ab": ("k", "a", "b"),
    "corona_path": ("m", "n"), "t_ndelta": ("n", "delta"),
    "tprime_ndelta": ("n", "delta"), "spider": ("n", "k"), "hat": ("n", "d", "k"),
}
FAMILIES = tuple(_PARAMS)

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


def _need(spec: FamilySpec, *names: str) -> list[int]:
    vals = []
    for name in names:
        v = getattr(spec, name)
        if v is None:
            raise BadParamsError(f"family {spec.family!r} needs parameter {name!r}")
        vals.append(v)
    return vals


def _corona_base(spec: FamilySpec) -> int:
    """Base path length of a corona: m, or an even n = 2m, or both."""
    if spec.m is not None:
        if spec.n is not None and spec.n != 2 * spec.m:
            raise BadParamsError(f"corona_path needs n = 2m, got m={spec.m}, n={spec.n}")
        return spec.m
    if spec.n is not None:
        if spec.n % 2:
            raise BadParamsError(f"corona_path needs even n, got n={spec.n}")
        return spec.n // 2
    raise BadParamsError("family 'corona_path' needs parameter 'm' (or an even 'n')")


def _check_params(spec: FamilySpec) -> tuple[int, ...]:
    """The family's parameters in builder order, checked against its
    constraints, so that a tree and a closed form reject a spec alike."""
    fam = spec.family
    if fam not in _PARAMS:
        raise BadParamsError(f"unknown family {fam!r}")
    unread = [name for name in FamilySpec._fields[1:]
              if getattr(spec, name) is not None and name not in _PARAMS[fam]]
    if unread:
        raise BadParamsError(f"family {fam!r} does not take "
                             + ", ".join(map(repr, unread)))
    if fam in ("path", "star"):
        (n,) = _need(spec, "n")
        if n < 1:
            raise BadParamsError(f"{fam} needs n >= 1")
        return (n,)
    if fam == "a_nq":
        n, q = _need(spec, "n", "q")
        if not (n >= 2 * q >= 2):
            raise BadParamsError(f"a_nq needs n >= 2q >= 2, got n={n}, q={q}")
        return n, q
    if fam == "pk_ab":
        k, a, b = _need(spec, "k", "a", "b")
        if k < 2 or a < 0 or b < 0:
            raise BadParamsError(f"pk_ab needs k >= 2 and a, b >= 0, got k={k}, a={a}, b={b}")
        return k, a, b
    if fam == "corona_path":
        m = _corona_base(spec)
        if m < 1:
            raise BadParamsError(f"corona_path needs base length m >= 1, got m={m}")
        return (m,)
    if fam == "t_ndelta":
        n, delta = _need(spec, "n", "delta")
        if delta < 3 or n < delta + 1:
            raise BadParamsError(
                f"t_ndelta needs delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
        return n, delta
    if fam == "tprime_ndelta":
        n, delta = _need(spec, "n", "delta")
        if delta < 3 or n % 2 or n < 2 * delta - 2:
            raise BadParamsError(
                f"tprime_ndelta needs delta >= 3 and even n >= 2*delta-2, got n={n}, delta={delta}")
        return n, delta
    if fam == "spider":
        n, k = _need(spec, "n", "k")
        if not (2 <= k <= n - 1):
            raise BadParamsError(f"spider needs 2 <= k <= n-1, got n={n}, k={k}")
        return n, k
    if fam == "hat":
        n, d = _need(spec, "n", "d")
        k = spec.k if spec.k is not None else d // 2 + 1
        if not (2 <= d <= n - 1):
            raise BadParamsError(f"hat needs 2 <= d <= n-1, got n={n}, d={d}")
        if not (1 <= k <= d + 1):
            raise BadParamsError(f"hat needs 1 <= k <= d+1, got k={k}, d={d}")
        return n, d, k


def _build_path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def _build_star(n: int) -> Tree:
    return Tree(n, [(0, i) for i in range(1, n)])


def _build_a_nq(n: int, q: int) -> Tree:
    edges = []
    nxt = 1
    for _ in range(n - 2 * q + 1):     # pendant edges at the hub
        edges.append((0, nxt))
        nxt += 1
    for _ in range(q - 1):             # two-edge legs at the hub
        edges.append((0, nxt))
        edges.append((nxt, nxt + 1))
        nxt += 2
    return Tree(n, edges)


def _build_pk_ab(k: int, a: int, b: int) -> Tree:
    n = k + a + b
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for _ in range(a):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(b):
        edges.append((k - 1, nxt))
        nxt += 1
    return Tree(n, edges)


def _build_corona_path(m: int) -> Tree:
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(i, m + i) for i in range(m)]
    return Tree(2 * m, edges)


def _build_t_ndelta(n: int, delta: int) -> Tree:
    tail = n - delta + 1               # handle length, hub at vertex 0
    edges = [(i, i + 1) for i in range(tail - 1)]
    edges += [(0, tail + i) for i in range(delta - 1)]
    return Tree(n, edges)


def _build_tprime_ndelta(n: int, delta: int) -> Tree:
    base = n - 2 * delta + 3           # base path, hub at vertex 0
    edges = [(i, i + 1) for i in range(base - 1)]
    nxt = base
    edges.append((0, nxt))             # the single pendant
    nxt += 1
    for _ in range(delta - 2):         # two-edge legs
        edges.append((0, nxt))
        edges.append((nxt, nxt + 1))
        nxt += 2
    return Tree(n, edges)


def _spider_legs(n: int, k: int) -> tuple[int, int, int, int]:
    """(short length, long length, #short, #long) of the balanced spider."""
    lo, j = divmod(n - 1, k)
    return lo, lo + 1, k - j, j


def _build_spider(n: int, k: int) -> Tree:
    lo, hi, i, j = _spider_legs(n, k)
    edges = []
    nxt = 1
    for length in [lo] * i + [hi] * j:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(n, edges)


def _build_hat(n: int, d: int, k: int) -> Tree:
    edges = [(i, i + 1) for i in range(d)]
    edges += [(k - 1, d + 1 + i) for i in range(n - d - 1)]
    return Tree(n, edges)


_BUILDERS = {
    "path": _build_path, "star": _build_star, "a_nq": _build_a_nq,
    "pk_ab": _build_pk_ab, "corona_path": _build_corona_path,
    "t_ndelta": _build_t_ndelta, "tprime_ndelta": _build_tprime_ndelta,
    "spider": _build_spider, "hat": _build_hat,
}


def construct(spec: FamilySpec) -> Tree:
    """Build the tree selected by the spec, validating its parameters."""
    params = _check_params(spec)
    return _BUILDERS[spec.family](*params)


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
    fam = spec.family
    params = _check_params(spec)

    if fam == "path":
        (n,) = params
        if which == "F":
            return ClosedForm(spec, which, n * (n + 1) // 2, "basic")
        return ClosedForm(spec, which, 2 * n - 1, "L2star")

    if fam == "star":
        (n,) = params
        if which == "F":
            return ClosedForm(spec, which, 2 ** (n - 1) + n - 1, "basic")
        if n < 3:
            raise NoFormulaError("star leaf-subtree form needs n >= 3")
        return ClosedForm(spec, which, 2 ** (n - 1) + n - 2, "L2star")

    if fam == "a_nq":
        n, q = params
        if which == "F":
            value = 2 ** (n - 2 * q + 1) * 3 ** (q - 1) + n + q - 2
        else:
            if n < 3:
                # at n=2 the hub itself is a leaf and the stem is empty
                raise NoFormulaError("a_nq leaf-subtree form needs n >= 3")
            value = 2 ** (n - 2 * q + 1) * 3 ** (q - 1) - 2 ** (q - 1) + n - 1
        return ClosedForm(spec, which, value, "T4.1")

    if fam == "corona_path":
        (m,) = params
        value = 2 ** (m + 2) - m - 4
        if which == "Fstar":
            if m < 2:
                raise NoFormulaError("corona leaf-subtree form needs m >= 2")
            value -= comb(m + 1, 2)
        return ClosedForm(spec, which, value, "T4.3")

    if fam == "pk_ab":
        k, a, b = params
        if k != 4:
            raise NoFormulaError("closed forms only on record for k = 4")
        if a < 1 or b < 1:
            raise NoFormulaError("k = 4 forms need a, b >= 1 (otherwise the stem changes)")
        n = k + a + b
        value = 3 * (2 ** a + 2 ** b) + 2 ** (n - 4) + n - 1
        if which == "Fstar":
            value -= 10
        return ClosedForm(spec, which, value, "T4.4")

    if fam == "t_ndelta":
        n, delta = params
        value = (n - delta + 1) * 2 ** (delta - 1) + delta - 1
        if which == "F":
            value += comb(n - delta + 1, 2)
        return ClosedForm(spec, which, value, "T4.5")

    if fam == "tprime_ndelta":
        n, delta = params
        if which == "F":
            value = 2 * (n - 2 * delta + 3) * 3 ** (delta - 2) + 3 * delta - 5 \
                + comb(n - 2 * delta + 3, 2)
        else:
            if n < 2 * delta:
                # with a one-vertex base path the stem is a star, not a broom
                raise NoFormulaError("tprime leaf-subtree form needs n >= 2*delta")
            value = 2 * (n - 2 * delta + 3) * 3 ** (delta - 2) \
                - (n - 2 * delta + 2) * 2 ** (delta - 2) + n - 1
        return ClosedForm(spec, which, value, "T4.6")

    if fam == "spider":
        n, k = params
        lo, hi, i, j = _spider_legs(n, k)
        if which == "F":
            value = (lo + 1) ** i * (hi + 1) ** j + i * comb(lo + 1, 2) + j * comb(hi + 1, 2)
        else:
            value = (lo + 1) ** i * (hi + 1) ** j - lo ** i * hi ** j + (n - 1)
        return ClosedForm(spec, which, value, "T4.7")

    if fam == "hat":
        n, d, k = params
        if k not in (d // 2 + 1, (d + 1) // 2 + 1):
            raise NoFormulaError("closed form only at the balanced attachment position")
        a = d // 2
        b = (d + 1) // 2
        if binomial_term == "sum":
            tail = comb(a + 1, 2) + comb(b + 1, 2)
        else:
            tail = comb(a + 1, 2) * comb(b + 1, 2)
        value = 2 ** (n - d - 1) * (a + 1) * (b + 1) + tail + (n - d - 1)
        if which == "Fstar":
            value -= comb(d, 2)
        return ClosedForm(spec, which, value, "T4.8")

    raise BadParamsError(f"unknown family {fam!r}")
