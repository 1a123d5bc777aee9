"""The published dimension tables and monodromy.

Everything here is stated along the singular support Y = (x_n = 0) and its
stratification by Z = (x_{n-1} = 0).  Queries the covered results do not
answer return a NotCovered value instead of a guess.  The point classes and
the slope live in core.py, the solution bases in basis.py and the Gevrey
streams in gevrey.py.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

# lazily loaded: read only by __getattr__ below
from . import basis as _basis
from . import gevrey as _gevrey
from .core import (
    EXPONENT_VALUE_CAP,
    CurveError,
    CurveKind,
    CurveMatrix,
    PointClass,
    clip,
    record,
    slope,
)


class SheafKind(Enum):
    HOLOMORPHIC = "holomorphic"            # O_{X|Y}
    GEVREY_FORMAL = "gevrey_formal"        # order-s formal series along Y
    GEVREY_QUOTIENT = "gevrey_quotient"    # order-s series modulo convergent


@record
class SheafTag:
    kind: SheafKind
    order: Fraction | None = None      # None encodes s = infinity

    def __post_init__(self):
        if self.kind is SheafKind.HOLOMORPHIC:
            if self.order is not None:
                raise CurveError("the holomorphic sheaf takes no Gevrey order")
        elif self.order is not None and self.order < 1:
            raise CurveError(f"Gevrey order s = {self.order} is below 1")

    @classmethod
    def holomorphic(cls) -> "SheafTag":
        return cls(SheafKind.HOLOMORPHIC)

    @classmethod
    def formal(cls, s) -> "SheafTag":
        return cls(SheafKind.GEVREY_FORMAL, None if s is None else Fraction(s))

    @classmethod
    def quotient(cls, s) -> "SheafTag":
        return cls(SheafKind.GEVREY_QUOTIENT, None if s is None else Fraction(s))

    def order_at_least(self, bound: Fraction) -> bool:
        return self.order is None or self.order >= bound


@record
class DimensionAnswer:
    """A germ dimension, or None when the published results do not cover the query."""

    value: int | None

    @property
    def covered(self) -> bool:
        return self.value is not None

    @classmethod
    def of(cls, value: int) -> "DimensionAnswer":
        return cls(value)

    @classmethod
    def not_covered(cls) -> "DimensionAnswer":
        return cls(None)


def _is_natural(beta) -> bool:
    beta = Fraction(beta)
    return beta.denominator == 1 and beta >= 0


def irregularity_dimension(A: CurveMatrix, beta, point: PointClass,
                           sheaf: SheafTag, degree: int) -> DimensionAnswer:
    """Dimension of the Ext^degree germ of the system with values in the sheaf,
    at a point of the given stratum.

    Gevrey-quotient values hold for both matrix kinds; the holomorphic and
    formal rows are published for smooth matrices only.  All three sheaves are
    supported on Y, so germs at generic points vanish."""
    if degree < 0:
        raise CurveError("Ext degree must be nonnegative")
    sigma = slope(A)
    if point is PointClass.GENERIC:
        return DimensionAnswer.of(0)

    if sheaf.kind is SheafKind.GEVREY_QUOTIENT:
        if degree >= 1:
            return DimensionAnswer.of(0)
        if point is PointClass.DEEP_STRATUM:
            return DimensionAnswer.of(0)
        if not sheaf.order_at_least(sigma):
            return DimensionAnswer.of(0)
        return DimensionAnswer.of(A.entries[-2])

    if A.kind is CurveKind.GENERAL:
        return DimensionAnswer.not_covered()
    natural = _is_natural(beta)

    if sheaf.kind is SheafKind.HOLOMORPHIC:
        if not natural:
            return DimensionAnswer.of(0)
        return DimensionAnswer.of(1 if degree in (0, 1) else 0)

    # formal Gevrey series of order s
    if sheaf.order_at_least(sigma):
        if degree == 0:
            if point is PointClass.SMOOTH_STRATUM:
                return DimensionAnswer.of(A.entries[-2])
            return DimensionAnswer.of(1 if natural else 0)
        if degree == 1:
            if point is PointClass.DEEP_STRATUM:
                return DimensionAnswer.of(1 if natural else 0)
            return DimensionAnswer.of(0)
        return DimensionAnswer.not_covered()
    if point is PointClass.SMOOTH_STRATUM and degree == 0:
        return DimensionAnswer.of(1 if natural else 0)
    return DimensionAnswer.not_covered()


# ---------------------------------------------------------------------------
# Monodromy


def monodromy_rotations(A: CurveMatrix, beta) -> list[Fraction]:
    """Rotation numbers (beta - k)/a_{n-1} mod 1, k = 0..a_{n-1}-1, of the
    monodromy of the quotient-class basis around x_{n-1} = 0; contains 0
    exactly once when beta is an integer.  CurveError, before any is built,
    when a_{n-1} passes EXPONENT_VALUE_CAP."""
    beta = Fraction(beta)
    a_pen = A.entries[A.n - 2]
    if a_pen > EXPONENT_VALUE_CAP:
        raise CurveError(f"{clip(a_pen)} rotation numbers pass the cap of "
                         f"{EXPONENT_VALUE_CAP} values")
    out = []
    for k in range(a_pen):
        r = Fraction(beta - k, a_pen)
        out.append(r - math.floor(r))
    return sorted(out)


# ---------------------------------------------------------------------------
# The published dimension table


_TABLE_SHEAVES = (SheafKind.HOLOMORPHIC, SheafKind.GEVREY_FORMAL, SheafKind.GEVREY_QUOTIENT)
_TABLE_POINTS = (PointClass.DEEP_STRATUM, PointClass.SMOOTH_STRATUM)


def dimension_cells(A: CurveMatrix, beta, s, degrees):
    """Yield (sheaf kind, point, degree, DimensionAnswer) for the three sheaves
    (the Gevrey ones of order s) on both strata of Y and the given Ext degrees,
    in table order."""
    for kind in _TABLE_SHEAVES:
        tag = SheafTag.holomorphic() if kind is SheafKind.HOLOMORPHIC \
            else SheafTag(kind, None if s is None else Fraction(s))
        for point in _TABLE_POINTS:
            for degree in degrees:
                yield kind, point, degree, irregularity_dimension(A, beta, point, tag, degree)


def stratum_dimension_table(A: CurveMatrix, beta_special, beta_generic, s) -> dict:
    """The 24 germ dimensions at a natural and a non-natural parameter, for the
    three sheaves, both strata of Y, and Ext degrees 0 and 1 (s >= slope).

    Keys are (sheaf kind value, beta label, point value, degree).  Raises
    CurveError when the published results leave a cell open (general matrices)."""
    if not _is_natural(beta_special):
        raise CurveError(f"beta_special = {clip(beta_special)} is not a natural number")
    if _is_natural(beta_generic):
        raise CurveError(f"beta_generic = {clip(beta_generic)} must not be natural")
    if not (s is None or Fraction(s) >= slope(A)):
        raise CurveError(f"s = {clip(s)} is below the slope {slope(A)}")
    out = {}
    for blabel, beta in (("special", beta_special), ("generic", beta_generic)):
        for kind, point, degree, ans in dimension_cells(A, beta, s, (0, 1)):
            key = (kind.value, blabel, point.value, degree)
            if not ans.covered:
                raise CurveError(f"cell {key} of the table is not covered for {A}")
            out[key] = ans.value
    return out


def reference_dimension_table(A: CurveMatrix) -> dict:
    """The published table, hard-coded with a_{n-1} as the only free entry."""
    a = A.entries[A.n - 2]
    rows = {
        ("holomorphic", "special"): {("deep", 0): 1, ("smooth", 0): 1,
                                     ("deep", 1): 1, ("smooth", 1): 1},
        ("holomorphic", "generic"): {("deep", 0): 0, ("smooth", 0): 0,
                                     ("deep", 1): 0, ("smooth", 1): 0},
        ("gevrey_formal", "special"): {("deep", 0): 1, ("smooth", 0): a,
                                       ("deep", 1): 1, ("smooth", 1): 0},
        ("gevrey_formal", "generic"): {("deep", 0): 0, ("smooth", 0): a,
                                       ("deep", 1): 0, ("smooth", 1): 0},
        ("gevrey_quotient", "special"): {("deep", 0): 0, ("smooth", 0): a,
                                         ("deep", 1): 0, ("smooth", 1): 0},
        ("gevrey_quotient", "generic"): {("deep", 0): 0, ("smooth", 0): a,
                                         ("deep", 1): 0, ("smooth", 1): 0},
    }
    out = {}
    for (sheaf, blabel), cells in rows.items():
        for (point, degree), value in cells.items():
            out[(sheaf, blabel, point, degree)] = value
    return out


def dimension_table_diff(A: CurveMatrix, beta_special, beta_generic, s) -> dict:
    """Cells where the computed table deviates from the published one (empty on
    success): key -> (computed, expected)."""
    computed = stratum_dimension_table(A, beta_special, beta_generic, s)
    expected = reference_dimension_table(A)
    return {k: (computed[k], expected[k])
            for k in expected if computed[k] != expected[k]}


# Names that perfbench/tracer.py still reads under this module, with their
# homes; each is served from there, so a command that never reads one does not
# compile it.
_FORWARDED = {"solution_basis": _basis, "verify_basis": _basis,
              "slope_subseries": _gevrey, "gevrey_index_estimate": _gevrey}


def __getattr__(name):
    home = _FORWARDED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
