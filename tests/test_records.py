"""The value records keep the semantics of plain dataclasses.

dataclasses appears here only as the oracle for repr and hash.
"""

import dataclasses
from fractions import Fraction

import pytest

import oracles
from gkzcurve import basis, core, curves, exponents, irregularity, restriction, series, weyl
from gkzcurve.core import CurveError, make_curve, record
from gkzcurve.irregularity import SheafKind, SheafTag

# (class, field names, defaults)
RECORDS = [
    (core.CurveMatrix, ("entries",), {}),
    (curves.LatticeBasis, ("matrix", "rows"), {}),
    (curves.SemigroupTable, ("entries", "bound", "membership", "frobenius"), {}),
    (curves.DeltaExponent, ("position", "delta", "witness"), {}),
    (curves.BetaClassification, ("category", "residue"), {}),
    (exponents.ExponentVector, ("vector", "nsupp", "auxiliary"), {"auxiliary": False}),
    (irregularity.SheafTag, ("kind", "order"), {"order": None}),
    (irregularity.DimensionAnswer, ("value",), {}),
    (basis.BasisMember, ("series", "label", "exponent", "is_solution",
                         "defect_generator", "caveats"), {"caveats": ()}),
    (restriction.ModuleDescriptor, ("matrix", "parameter", "caveat"), {}),
    (restriction.RestrictionWitness, ("auxiliary", "p1", "q_operators", "deltas"), {}),
    (restriction.BFunction, ("roots", "caveat"), {}),
    (oracles.MinimalSupportAnswer, ("status", "witness", "radius"), {}),
    (series.SubstitutionResult, ("series", "dropped", "certified_zero"), {}),
    (weyl.GeneratorViolation, ("name", "violation", "trusted_terms", "certified"), {}),
    (weyl.AnnihilationReport, ("max_violation", "per_generator"), {}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def sample_values(cls, fields, shift=0):
    """Hashable field values; SheafTag validates, so it gets a valid pair."""
    if cls is SheafTag:
        return [SheafKind.GEVREY_FORMAL, Fraction(2 + shift)]
    return [(i + shift, Fraction(1, i + 2)) for i in range(len(fields))]


def oracle(fields):
    return dataclasses.make_dataclass("Oracle", fields, frozen=True)


def test_every_record_class_is_listed():
    # every record of the package, and the one of the test oracles
    found = {cls for mod in (basis, core, curves, exponents, irregularity, restriction,
                             series, weyl)
             for cls in vars(mod).values()
             if isinstance(cls, type)
             and getattr(cls.__init__, "__module__", None) == "gkzcurve.core"}
    assert found | {oracles.MinimalSupportAnswer} == {cls for cls, *_ in RECORDS}
    assert len(found) == 15


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_construction(cls, fields, defaults):
    values = sample_values(cls, fields)
    rec = cls(*values)
    assert [getattr(rec, f) for f in fields] == values
    assert vars(rec) == dict(zip(fields, values))
    assert cls(**dict(zip(fields, values))) == rec
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == rec
    required = [v for f, v in zip(fields, values) if f not in defaults]
    bare = cls(*required)
    for name, default in defaults.items():
        assert getattr(bare, name) == default


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, fields, defaults):
    values = sample_values(cls, fields)
    required = len(fields) - len(defaults)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_equality_holds_only_within_a_class(cls, fields, defaults):
    values = sample_values(cls, fields)
    rec = cls(*values)
    assert rec == cls(*values)
    assert rec != cls(*sample_values(cls, fields, shift=1))
    assert rec != tuple(values) and tuple(values) != rec
    assert rec.__eq__(tuple(values)) is NotImplemented
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(fields, "object")}))
    assert rec != twin(*values) and twin(*values) != rec
    assert twin(*values) == twin(*values)
    assert not isinstance(rec, tuple)
    with pytest.raises(TypeError):
        iter(rec)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_hash_and_assignment(cls, fields, defaults):
    values = sample_values(cls, fields)
    rec = cls(*values)
    assert hash(rec) == hash(cls(*values)) == hash(tuple(values))
    assert hash(rec) == hash(oracle(fields)(*values))
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[0])
    with pytest.raises(AttributeError):
        setattr(rec, "not_a_field", 1)
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    assert [getattr(rec, f) for f in fields] == values


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, defaults):
    values = sample_values(cls, fields)
    want = repr(oracle(fields)(*values)).replace("Oracle(", f"{cls.__qualname__}(", 1)
    assert repr(cls(*values)) == want


def test_repr_literals_and_own_str():
    assert repr(curves.DeltaExponent(1, 2, (1, 0))) == \
        "DeltaExponent(position=1, delta=2, witness=(1, 0))"
    assert repr(SheafTag.formal(2)) == \
        "SheafTag(kind=<SheafKind.GEVREY_FORMAL: 'gevrey_formal'>, order=Fraction(2, 1))"
    A = make_curve((1, 2, 3))
    assert repr(A) == "CurveMatrix(entries=(1, 2, 3))"
    assert str(A) == "(1 2 3)"


@pytest.mark.parametrize("kind, order", [
    (SheafKind.HOLOMORPHIC, Fraction(2)),
    (SheafKind.GEVREY_FORMAL, Fraction(1, 2)),
    (SheafKind.GEVREY_QUOTIENT, Fraction(0)),
])
def test_sheaf_tag_validation_still_runs(kind, order):
    with pytest.raises(CurveError):
        SheafTag(kind, order)
    with pytest.raises(CurveError):
        SheafTag(kind=kind, order=order)
