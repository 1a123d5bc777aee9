"""The published dimension tables, Gevrey diagnostics and monodromy.

Everything here is stated along the singular support Y = (x_n = 0) and its
stratification by Z = (x_{n-1} = 0).  Queries the covered results do not
answer return a NotCovered value instead of a guess.  The slope and the
solution bases live in basis.py, and their names are also read from here.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

# solution_basis and verify_basis are not called here; they are also read
# under this module's name, as perfbench/tracer.py does
from .basis import PointClass, slope, solution_basis, verify_basis  # noqa: F401
from .core import (
    EXPONENT_VALUE_CAP,
    CurveError,
    CurveKind,
    CurveMatrix,
    IndexOutOfRangeError,
    check_size,
    clip,
    record,
)


class InsufficientDataError(CurveError):
    """Too few coefficients for a growth-rate fit."""


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
# Monodromy and Gevrey diagnostics


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


def slope_subseries(A: CurveMatrix, beta, which, count: int = 200):
    """Exact coefficient stream of the one-variable subsum along the ray
    (0, ..., 0, a_n, a_{n-1}) of the kernel coordinates, indexed by the
    x_n-exponent k.

    which = "witness": c_m = (-1)^{a_n m} (a_n m)! / (a_{n-1} m)! at k = a_{n-1} m.
    which = ("exponent", j): c_m = ((beta-j)/a_{n-1})_{a_n m} / (a_{n-1} m)!
    (falling factorial), defined for 0 <= j < a_{n-1} when (beta-j)/a_{n-1} is
    not a natural number.

    Both streams realize the Gevrey index a_n/a_{n-1}.  Returns a list of
    (k, Fraction) pairs.

    Both are one recurrence: the witness stream is the exponent stream of
    theta = -1, since (-1)_k = (-1)^k k!, and with theta = p/q
        c_{m+1} / c_m = prod_{a_n m <= i < a_n (m+1)} (p - q i)
                        / (q^{a_n} prod_{a_{n-1} m < i <= a_{n-1} (m+1)} i),
    the Gamma-series ratio along the ray.  So a stream of `count` terms costs
    O(count * a_n) multiplies, and Fraction's normalisation only takes gcds
    against the small step factors.
    """
    a_pen, a_top = A.entries[-2], A.entries[-1]
    if which == "witness":
        theta = Fraction(-1)
    else:
        kind, j = which
        if kind != "exponent":
            raise CurveError(f"unknown subseries selector {which!r}")
        if not 0 <= j < a_pen:
            raise IndexOutOfRangeError(f"j={clip(j)} outside 0..{a_pen - 1}")
        theta = Fraction(Fraction(beta) - j, a_pen)
        if theta.denominator == 1 and theta >= 0:
            raise CurveError("the exponent-ray stream terminates for the polynomial slot")
    p, q = theta.numerator, theta.denominator
    out = []
    c = Fraction(1)
    for m in range(count):
        out.append((a_pen * m, c))
        check_size(c.numerator, c.denominator)
        c *= Fraction(math.prod(p - q * i for i in range(a_top * m, a_top * (m + 1))),
                      q ** a_top * math.prod(range(a_pen * m + 1, a_pen * (m + 1) + 1)))
    return out


def _log_abs(c: Fraction) -> float:
    """log |c| for possibly huge exact rationals."""

    def log_int(n: int) -> float:
        bits = n.bit_length()
        if bits <= 512:
            return math.log(n)
        shift = bits - 512
        return math.log(n >> shift) + shift * math.log(2)

    return log_int(abs(c.numerator)) - log_int(c.denominator)


def gevrey_index_estimate(stream, window: int | None = None) -> float:
    """Least-squares Gevrey-order fit of a coefficient stream.

    Fits log|c_k| = (s - 1) * lgamma(k + 1) + C*k + D over the nonzero entries
    (top half by default) and returns max(s, 1): the Gevrey index is at least 1,
    so convergent streams report 1.  Raises InsufficientDataError below 16
    nonzero coefficients."""
    points = [(k, c) for k, c in stream if c != 0]
    if len(points) < 16:
        raise InsufficientDataError(f"{len(points)} nonzero coefficients < 16")
    points.sort()
    if window is None:
        window = len(points) // 2
    points = points[-window:]
    # exact normal equations (X^T X) b = X^T y on the float data, solved for
    # b_0 by Cramer's rule.  The lgamma column is scaled to integers by 2^ex
    # and y by 2^ey, which scales b_0 by 2^(ey - ex): all sums are in int.
    lgammas, ex = _dyadic_integers([math.lgamma(k + 1.0) for k, _ in points])
    rhs, ey = _dyadic_integers([_log_abs(c) for _, c in points])
    rows = [(x, k, 1) for x, (k, _) in zip(lgammas, points)]
    gram = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    moment = [sum(r[i] * y for r, y in zip(rows, rhs)) for i in range(3)]
    det = _det3(gram)
    if det == 0:
        raise InsufficientDataError(f"{len(points)} points do not fix a 3-term fit")
    lead = Fraction(_det3([[moment[i]] + gram[i][1:] for i in range(3)]) << ex, det << ey)
    return max(1.0, 1.0 + float(lead))


def _dyadic_integers(values: list[float]) -> tuple[list[int], int]:
    """Integers n_i and one e >= 0 with values[i] == n_i / 2^e exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(d.bit_length() - 1 for _, d in ratios)
    return [n << (e - d.bit_length() + 1) for n, d in ratios], e


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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
