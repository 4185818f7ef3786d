"""The package's records: their fields, defaults, repr, equality, hashing and
immutability, pinned to what they were as frozen dataclasses, plus the
tuple behaviour they have as NamedTuples."""

import pytest

from treecount.counting import CountReport, count_report
from treecount.enumeration import TreeConstraint
from treecount.families import ClosedForm, FamilySpec, closed_form
from treecount.invariants import InvariantProfile, invariant_profile
from treecount.transforms import TransformSpec
from treecount.tree import (PathDecomposition, RootedComponent, Tree, canonical_form,
                            path_decomposition)
from treecount.verify import VerificationResult, _Theorem

P3 = Tree(3, [(0, 1), (1, 2)])
SPIDER = Tree(8, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (3, 7)])

# (record, a fresh sample of it, fields, defaults, repr of the sample, hashable)
RECORDS = [
    (CountReport, lambda: count_report(P3),
     ("n", "F", "Fstar", "wiener", "f_vertex", "fstar_vertex"), {},
     "CountReport(n=3, F=6, Fstar=5, wiener=4, f_vertex={0: 3, 1: 4, 2: 3}, "
     "fstar_vertex={0: 1, 1: 3, 2: 1})", False),
    (FamilySpec, lambda: FamilySpec("a_nq", n=7, q=2),
     ("family", "n", "q", "k", "a", "b", "delta", "d", "m"),
     dict.fromkeys(("n", "q", "k", "a", "b", "delta", "d", "m")),
     "FamilySpec(family='a_nq', n=7, q=2, k=None, a=None, b=None, delta=None, d=None, "
     "m=None)", True),
    (ClosedForm, lambda: closed_form(FamilySpec("star", n=5), "F"),
     ("spec", "which", "value", "formula_id"), {},
     "ClosedForm(spec=FamilySpec(family='star', n=5, q=None, k=None, a=None, b=None, "
     "delta=None, d=None, m=None), which='F', value=20, formula_id='basic')", True),
    (InvariantProfile, lambda: invariant_profile(Tree(4, [(0, 1), (1, 2), (2, 3)])),
     ("matching", "domination", "diameter", "leaf_count", "max_degree", "centers",
      "has_perfect_matching"), {},
     "InvariantProfile(matching=2, domination=2, diameter=3, leaf_count=2, max_degree=2, "
     "centers=(1, 2), has_perfect_matching=True)", True),
    (TransformSpec, lambda: TransformSpec("A", u=1, component_root=2),
     ("kind", "u", "v", "component_root"), dict.fromkeys(("u", "v", "component_root")),
     "TransformSpec(kind='A', u=1, v=None, component_root=2)", True),
    (TreeConstraint, lambda: TreeConstraint(matching=3, perfect_matching=True),
     ("matching", "domination", "diameter", "leaves", "min_max_degree", "perfect_matching"),
     dict.fromkeys(("matching", "domination", "diameter", "leaves", "min_max_degree",
                    "perfect_matching")),
     "TreeConstraint(matching=3, domination=None, diameter=None, leaves=None, "
     "min_max_degree=None, perfect_matching=True)", True),
    (RootedComponent, lambda: path_decomposition(SPIDER, 0, 4).z_component,
     ("tree", "root", "original_vertices"), {},
     "RootedComponent(tree=Tree(n=3, edges=[(0, 1), (1, 2)]), root=0, "
     "original_vertices=(2, 5, 6))", True),
    (PathDecomposition, lambda: path_decomposition(SPIDER, 0, 4),
     ("path", "x_components", "y_components", "z_component"), {},
     "PathDecomposition(path=(0, 1, 2, 3, 4), x_components=(RootedComponent("
     "tree=Tree(n=1, edges=[]), root=0, original_vertices=(1,)),), y_components=("
     "RootedComponent(tree=Tree(n=2, edges=[(0, 1)]), root=0, original_vertices=(3, 7)),), "
     "z_component=RootedComponent(tree=Tree(n=3, edges=[(0, 1), (1, 2)]), root=0, "
     "original_vertices=(2, 5, 6)))", True),
    (VerificationResult,
     lambda: VerificationResult(
         theorem="T4.1", n=5, constraint={"q": 2}, claimed=15, achieved=15,
         extremizers=(canonical_form(P3),), expected=None, passed=True, class_size=2),
     ("theorem", "n", "constraint", "claimed", "achieved", "extremizers", "expected",
      "passed", "class_size", "counterexample", "notes"),
     {"class_size": None, "counterexample": None, "notes": ""},
     "VerificationResult(theorem='T4.1', n=5, constraint={'q': 2}, claimed=15, "
     "achieved=15, extremizers=(CanonicalForm(level_seq=(0, 1, 1)),), expected=None, "
     "passed=True, class_size=2, counterexample=None, notes='')", False),
    (_Theorem,
     lambda: _Theorem(keys=len, quantities=("F",), extremum="max", classes=list,
                      unique=True, default_range=(4, 6), min_order=3),
     ("keys", "quantities", "extremum", "classes", "unique", "default_range", "min_order",
      "threshold", "even_only"),
     {"threshold": False, "even_only": False},
     "_Theorem(keys=<built-in function len>, quantities=('F',), extremum='max', "
     "classes=<class 'list'>, unique=True, default_range=(4, 6), min_order=3, "
     "threshold=False, even_only=False)", True),
]


@pytest.mark.parametrize("cls, sample, fields, defaults, text, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
class TestRecord:
    def test_fields_and_defaults(self, cls, sample, fields, defaults, text, hashable):
        assert cls._fields == fields
        assert cls._field_defaults == defaults

    def test_repr(self, cls, sample, fields, defaults, text, hashable):
        rec = sample()
        assert type(rec) is cls
        assert repr(rec) == text

    def test_equality_and_hash(self, cls, sample, fields, defaults, text, hashable):
        a, b = sample(), sample()
        assert a is not b and a == b and not a != b
        assert a != cls(*a[:-1], "other")
        if hashable:
            assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_immutable(self, cls, sample, fields, defaults, text, hashable):
        rec = sample()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        assert rec == sample()

    def test_tuple_behaviour(self, cls, sample, fields, defaults, text, hashable):
        rec = sample()
        assert len(rec) == len(fields)
        assert rec == tuple(getattr(rec, f) for f in fields)
        first, *_ = rec
        assert first == getattr(rec, fields[0])
        assert cls(**rec._asdict()) == rec
