"""The frozen record classes: construction, equality, hashing, repr, slots,
immutability and pickling, plus the start-up modules they avoid."""
from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import fusionarith
from fusionarith.algint import DNumberVerdict
from fusionarith.casefile import Case, Report, load_case, run_case
from fusionarith.codegree_enum import (
    Certificate,
    ClassEquationInstance,
    DimensionPairInstance,
    FilterResult,
    QuadraticScanInstance,
    ScanResult,
)
from fusionarith.dimsolve import Decomposition, QuadraticTarget
from fusionarith._record import _frozen, record
from fusionarith.exactcore import IntPolynomial, Interval, QuadraticFieldElement
from fusionarith.smatrix import (
    CandidateSMatrix,
    GaloisSearchReport,
    OrthogonalityReport,
    VerlindeReport,
)

Q = QuadraticFieldElement
CUBIC = IntPolynomial((1, -3, 0, 1))
PASS = FilterResult("d-number", True)

# every record class with one value per field, in field order
SAMPLES = [
    (IntPolynomial, ((1, -3, 0, 1),)),
    (Interval, (Fraction(1), Fraction(2))),
    (QuadraticFieldElement, (Fraction(3), Fraction(1), 5)),
    (DNumberVerdict, (2,)),
    (FilterResult, ("totally-real", False, {"roots": 1})),
    (Certificate, (CUBIC, (PASS,))),
    (ClassEquationInstance, (7, (Fraction(7),), 3, 343, (Fraction(3, 2),), "real-roots", 7,
                             ((5, 1),))),
    (QuadraticScanInstance, (10, 2000, 1, Fraction(1), 5, "cyclotomic", 20)),
    (DimensionPairInstance, (5, (1, 6))),
    (ScanResult, ((((), range(-6, -4), (1,)),), {"d-number": ()},
                  [None, FilterResult("d-number", False)],
                  (Certificate(IntPolynomial((-6, 1)), (PASS,)),))),
    (QuadraticTarget, (5, Q(28, 10, 5), 5)),
    (Decomposition, (((1, 1), (3, 1)),)),
    (CandidateSMatrix, ((((2, 0), (0, 2)), ((0, 2), (-2, 0))), 5, Q(12, 0, 5), 0, "modular")),
    (OrthogonalityReport, ((0, 1),)),
    (VerlindeReport, ((((1,),),), (0, 1, 2), "1/2")),
    (GaloisSearchReport, ((1, 0), 1, False, "found")),
    (Case, ("c", "galois-structure", {"moduli": [8]}, {"moduli": [8]}, None, ("n",), "c.json")),
    (Report, ("c", "galois-structure", "0.1.0", {}, {"ok": 1}, None, None, None)),
]

# QuadraticFieldElement keeps its own numeric __eq__, __hash__ and __repr__
GENERATED = [s for s in SAMPLES if s[0] is not QuadraticFieldElement]


def _ids(samples):
    return [cls.__name__ for cls, _ in samples]


def _fields(r) -> tuple:
    return tuple(getattr(r, f) for f in type(r).__annotations__)


def _record_classes() -> set[type]:
    """Every class of the package that record made frozen."""
    found = set()
    for info in pkgutil.iter_modules(fusionarith.__path__):
        module = importlib.import_module(f"fusionarith.{info.name}")
        found.update(value for value in vars(module).values()
                     if isinstance(value, type) and value.__module__ == module.__name__
                     and vars(value).get("__setattr__") is _frozen)
    return found


def test_samples_cover_every_record_class():
    assert [cls for cls, _ in SAMPLES] == list(dict.fromkeys(cls for cls, _ in SAMPLES))
    assert {cls for cls, _ in SAMPLES} == _record_classes()
    for cls, args in SAMPLES:
        assert len(args) == len(cls.__annotations__), cls.__name__


@pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
def test_positional_and_keyword_construction_agree(cls, args):
    r = cls(*args)
    names = tuple(cls.__annotations__)
    assert r == cls(**dict(zip(names, args)))
    assert _fields(r) == _fields(cls(*args[:1], **dict(zip(names[1:], args[1:]))))
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:-1], no_such_field=1)


def _init_defaults(cls) -> dict:
    """The field defaults of a record, which its __init__ holds."""
    params = inspect.signature(cls.__init__).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


@pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
def test_defaults_are_the_class_attributes(cls, args):
    # the name predates slots: the defaults are now those of __init__,
    # and the class attribute of a field is its slot
    names = tuple(cls.__annotations__)
    defaults = _init_defaults(cls)
    defaulted = [f for f in names if f in defaults]
    required = len(names) - len(defaulted)
    assert all(f in defaults for f in names[required:]), "defaults must trail"
    r = cls(*args[:required])
    assert r == cls(*args[:required], *(defaults[f] for f in defaulted))
    assert _fields(r) == _fields(cls(*args[:required], **{f: defaults[f] for f in defaulted}))
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])


@pytest.mark.parametrize("cls, args", GENERATED, ids=_ids(GENERATED))
def test_hash_is_the_hash_of_the_field_tuple(cls, args):
    r = cls(*args)
    try:
        expected = hash(_fields(r))
    except TypeError:  # a dict field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected
        assert hash(cls(*args)) == expected


@pytest.mark.parametrize("cls, args", GENERATED, ids=_ids(GENERATED))
def test_equality_is_per_class_and_per_field(cls, args):
    r = cls(*args)
    assert r == cls(*args) and not r != cls(*args)
    assert r.__eq__(_fields(r)) is NotImplemented
    assert r != _fields(r)
    other = FilterResult("x", True) if cls is not FilterResult else DNumberVerdict(2)
    assert r.__eq__(other) is NotImplemented and r != other


@pytest.mark.parametrize("cls, args", GENERATED, ids=_ids(GENERATED))
def test_repr_names_every_field(cls, args):
    r = cls(*args)
    items = ", ".join(f"{f}={getattr(r, f)!r}" for f in cls.__annotations__)
    assert repr(r) == f"{cls.__name__}({items})"


@pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
def test_records_are_frozen(cls, args):
    r = cls(*args)
    first = next(iter(cls.__annotations__))
    before = _fields(r)
    for name in (first, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert _fields(r) == before


@pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
def test_pickle_round_trip(cls, args):
    r = cls(*args)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is cls and back == r and _fields(back) == _fields(r)
    with pytest.raises(AttributeError):
        setattr(back, next(iter(cls.__annotations__)), 0)


@pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
def test_records_have_slots_and_no_instance_dict(cls, args):
    r = cls(*args)
    assert not hasattr(r, "__dict__")
    slots = [s for klass in cls.__mro__ for s in vars(klass).get("__slots__", ())]
    assert sorted(slots) == sorted(cls.__annotations__)


def test_a_record_base_keeps_the_slots_it_declares():
    @record
    class Base:
        x: int

    @record
    class Point(Base):
        x: int
        y: int = 0

    assert Point.__slots__ == ("y",)
    p = Point(1)
    assert (p.x, p.y) == (1, 0) and not hasattr(p, "__dict__")


def test_record_lets_the_class_it_rebuilt_go():
    # the defaults live in a plain dict, not the old class body
    class Point:
        x: int
        y: int = 0

    old = weakref.ref(Point)
    Point = record(Point)
    gc.collect()
    assert old() is None and Point(1).y == 0


def test_record_refuses_a_method_that_would_bind_the_discarded_class():
    class Loud:
        x: int

        def __repr__(self):
            return super().__repr__().upper()

    class Named:
        x: int

        @property
        def name(self):
            return __class__.__name__

    for cls in (Loud, Named):
        with pytest.raises(TypeError, match="super"):
            record(cls)


def test_decomposition_solutions_share_the_search_pairs():
    case = load_case(json.dumps({"schema": 1, "name": "d", "kind": "dim-decomposition",
                                 "parameters": {"n": 5, "target": "56+20r5", "term_counts": [5]}}))
    solutions = run_case(case).results["solutions"]["5"]
    assert len(solutions) > 1
    pairs = {}
    for sol in solutions:
        assert type(sol) is tuple and all(type(t) is tuple for t in sol)
        for t in sol:
            assert pairs.setdefault(t, t) is t
    assert any(sum(t in sol for sol in solutions) > 1 for t in pairs)


def test_class_body_methods_are_kept():
    for name in ("__eq__", "__hash__", "__repr__"):
        assert vars(Q)[name].__qualname__ == f"QuadraticFieldElement.{name}"
    assert vars(IntPolynomial)["__init__"].__qualname__ == "IntPolynomial.__init__"
    assert Q(2, 0, 5) == 1 and hash(Q(2, 0, 5)) == hash(Fraction(1))
    assert repr(Q(3, 1, 5)) == "QuadraticFieldElement(Fraction(3, 1), Fraction(1, 1), 5)"


def test_post_init_still_rejects_bad_input():
    with pytest.raises(ValueError):
        ClassEquationInstance(0, (Fraction(2),), 1)
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        DimensionPairInstance(0, (1, 2))
    with pytest.raises(TypeError):
        IntPolynomial((1, Fraction(1, 2)))


def test_verdict_flags_are_derived_from_the_witness():
    # each flag reads the one field that holds the evidence, so the two
    # can never disagree, and no flag is a field of its own
    assert DNumberVerdict().passes and not DNumberVerdict(2).passes
    fail = FilterResult("totally-real", False)
    assert Certificate(CUBIC, (PASS,)).survived and not Certificate(CUBIC, (PASS, fail)).survived
    assert OrthogonalityReport().passes and not OrthogonalityReport((0, 1)).passes
    assert VerlindeReport((((1,),),)).nonnegative_integral
    assert not VerlindeReport(None, (0, 1, 2), "1/2").nonnegative_integral
    assert GaloisSearchReport((1, 0), 1, False).found and not GaloisSearchReport(reason="none").found
    for cls, flag in ((DNumberVerdict, "passes"), (Certificate, "survived"),
                      (OrthogonalityReport, "passes"), (VerlindeReport, "nonnegative_integral"),
                      (GaloisSearchReport, "found")):
        assert flag not in cls.__annotations__ and isinstance(vars(cls)[flag], property)


def test_post_init_still_normalises_fields():
    assert Decomposition(((3, 1), (1, 0), (2, 1))).terms == ((1, 0), (2, 1), (3, 1))
    assert Decomposition(terms=((2, 1), (1, 0))) == Decomposition(((1, 0), (2, 1)))
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert type(Interval(1, 2).lo) is Fraction
    assert QuadraticScanInstance(10, 2000, 1, 1, 5).trace_ratio_max == Fraction(1)


def test_harness_hooks_stay_in_the_class_dicts(monkeypatch):
    # the traced benchmark harness wraps these two entries by name
    assert "__post_init__" in QuadraticFieldElement.__dict__
    assert "value" in Decomposition.__dict__
    calls = []
    original = QuadraticFieldElement.__dict__["__post_init__"]

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(QuadraticFieldElement, "__post_init__", counted)
    built = [Q(1, 1, 5), Q(a=2, b=0, n=5), Q.from_rational(Fraction(1, 3), 5)]
    assert len(calls) == len(built) and all(c is b for c, b in zip(calls, built))


def test_importing_the_cli_skips_the_heavy_stdlib_modules():
    src = str(Path(fusionarith.__file__).resolve().parents[1])
    probe = ("import fusionarith.casefile, sys; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', "
             "'importlib.resources') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
