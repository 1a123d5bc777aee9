"""Slopes, the published dimension tables, solution bases and Gevrey diagnostics.

Everything here is stated along the singular support Y = (x_n = 0) and its
stratification by Z = (x_{n-1} = 0).  Queries the covered results do not
answer return a NotCovered value instead of a guess.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

# lazily loaded modules: their names are read at call time, so a command
# that never calls into one does not compile it
from . import series as _series
from . import weyl as _weyl
from .curves import CurveError, CurveKind, CurveMatrix, check_size, semigroup_member
from .records import record


class SlopeTooSmallError(CurveError):
    """No Gevrey-quotient classes below the slope for non-natural parameters."""


class InsufficientDataError(CurveError):
    """Too few coefficients for a growth-rate fit."""


class PointClass(Enum):
    GENERIC = "generic"            # points off Y
    SMOOTH_STRATUM = "smooth"      # Y minus Y * Z
    DEEP_STRATUM = "deep"          # Y * Z


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


def slope(A: CurveMatrix) -> Fraction:
    """The unique slope a_n / a_{n-1} of the system along its singular support."""
    return Fraction(A.entries[-1], A.entries[-2])


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
# Solution bases


@record
class BasisMember:
    series: _series.FormalSeries
    label: str
    exponent: tuple[Fraction, ...]
    is_solution: bool              # False only for the witness series
    defect_generator: str | None   # generator name the witness fails on
    caveats: tuple[str, ...] = ()


def _witness_defect_name(A: CurveMatrix) -> str:
    return f"toric[{A.n - 1}]"


def _smooth_singular_basis(A, beta, s, build, suffix="") -> list[BasisMember]:
    """The smooth-stratum basis of the smooth matrix A; build(base) makes the
    series at each base exponent and suffix marks the labels."""
    sigma = slope(A)
    q = _series.polynomial_exponent_index(A, beta)
    s_frac = None if s is None else Fraction(s)
    below = s_frac is not None and s_frac < sigma
    if below:
        if q is None:
            raise SlopeTooSmallError(
                f"no classes of order {s} < slope {sigma} for beta = {beta}")
        poly = build(_series.exponent_base(A, beta, q))
        return [BasisMember(poly, f"exponent[{q}]{suffix}", poly.base, True, None)]
    out = []
    for j in range(A.entries[A.n - 2]):
        if j == q:
            continue
        ser = build(_series.exponent_base(A, beta, j))
        out.append(BasisMember(ser, f"exponent[{j}]{suffix}", ser.base, True, None))
    if q is not None:
        wit = build(_series.witness_base(A, beta))
        out.append(BasisMember(wit, f"witness{suffix}", wit.base, False,
                               _witness_defect_name(A)))
    return out


def _smooth_generic_basis(A, beta, build, suffix="") -> list[BasisMember]:
    """The generic-point basis of the smooth matrix A, built as above."""
    out = []
    for j in range(A.entries[-1]):
        ser = build(_series.generic_exponent_base(A, beta, j))
        out.append(BasisMember(ser, f"generic[{j}]{suffix}", ser.base, True, None))
    return out


def _general_basis(A, beta, point, s, level, max_terms) -> list[BasisMember]:
    """The basis of the auxiliary matrix (1, a_1, ..., a_n) restricted to
    x_0 = 0: only the section of each auxiliary series is built."""
    aux = A.auxiliary()

    def build(base):
        return _series.section_series(A, base, level, max_terms=max_terms)

    def members(beta):
        if point is PointClass.GENERIC:
            return _smooth_generic_basis(aux, beta, build, "|x0=0")
        return _smooth_singular_basis(aux, beta, s, build, "|x0=0")

    beta = Fraction(beta)
    natural_gap = (beta.denominator == 1 and beta >= 0
                   and not semigroup_member(A, int(beta)))
    if not natural_gap:
        return members(beta)

    # beta in N \ NA: the direct substitution vanishes on the polynomial slot.
    # Build the basis at beta' = beta - t*a_n < 0 and divide by d_n^t, which is
    # an isomorphism of the solution spaces (both parameters are integers
    # outside the semigroup).  No falling factor of the division can vanish: a
    # zero factor would force beta = sum a_i m_i + (t-k) a_n with nonnegative
    # coefficients, putting beta in the semigroup and contradicting the gap
    # hypothesis that selected this route.
    t = int(beta) // A.entries[-1] + 1
    w = tuple(0 if i < A.n - 1 else t for i in range(A.n))
    shifted = beta - A.entries[-1] * t
    if shifted >= 0:
        raise CurveError(f"shifted parameter {shifted} is not negative")
    out = []
    note = (f"parameter reached through beta'={shifted} and division by d_n^{t}",)
    for m in members(shifted):
        lifted = _series.inverse_contiguity(m.series, w)
        out.append(BasisMember(lifted, m.label + f"*d^-{t}", lifted.base, m.is_solution,
                               m.defect_generator, m.caveats + note))
    return out


def solution_basis(A: CurveMatrix, beta, point: PointClass, s=None,
                   level: int = 12, max_terms: int | None = None) -> list[BasisMember]:
    """Basis series for the solution space selected by the point class.

    Smooth stratum, s >= slope: the Gevrey-quotient basis; for natural beta the
    polynomial exponent is replaced by the witness series, which fails exactly
    the toric generator d_1^{a_{n-1}} - d_{n-1}.  Smooth stratum, s < slope:
    only the polynomial class survives (natural beta), otherwise the space is
    empty and SlopeTooSmallError is raised.  Deep stratum: the space is zero.
    Generic points: the a_n holomorphic solution series.  General matrices are
    routed through the auxiliary smooth matrix and its x_0 = 0 section.
    """
    if point is PointClass.DEEP_STRATUM:
        return []
    if not A.is_smooth:
        return _general_basis(A, beta, point, s, level, max_terms)

    def build(base):
        return _series.gamma_series(A, base, level, max_terms=max_terms)
    if point is PointClass.GENERIC:
        return _smooth_generic_basis(A, beta, build)
    return _smooth_singular_basis(A, beta, s, build)


def verify_basis(A: CurveMatrix, members, beta, ball_radius: int = 3):
    """Annihilation reports for every basis member against the checking set.

    Solutions are checked against the full set; the witness is checked against
    everything except its defect generator.  Returns a list of
    (member, AnnihilationReport) pairs.  An empty basis, or a member with no
    nonzero term, is a CurveError: nothing would be checked."""
    if not members:
        raise CurveError("the basis is empty: nothing was checked")
    for m in members:
        if m.series.is_zero():
            raise CurveError(f"series {m.label!r} has no nonzero term: "
                             f"nothing was checked")
    gens = _weyl.named_generators(A, beta, ball_radius)
    out = []
    for m in members:
        if m.is_solution:
            subset = gens
        else:
            subset = [(name, op) for name, op in gens
                      if name != m.defect_generator and not name.startswith("box")]
        out.append((m, _weyl.annihilation_report(subset, m.series)))
    return out


# ---------------------------------------------------------------------------
# Monodromy and Gevrey diagnostics


def monodromy_rotations(A: CurveMatrix, beta) -> list[Fraction]:
    """Rotation numbers (beta - k)/a_{n-1} mod 1, k = 0..a_{n-1}-1, of the
    monodromy of the quotient-class basis around x_{n-1} = 0; contains 0
    exactly once when beta is an integer."""
    beta = Fraction(beta)
    a_pen = A.entries[A.n - 2]
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
            raise _series.IndexOutOfRangeError(f"j={str(j)[:40]} outside 0..{a_pen - 1}")
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
        raise CurveError(f"beta_special = {str(beta_special)[:40]} is not a natural number")
    if _is_natural(beta_generic):
        raise CurveError(f"beta_generic = {str(beta_generic)[:40]} must not be natural")
    if not (s is None or Fraction(s) >= slope(A)):
        raise CurveError(f"s = {str(s)[:40]} is below the slope {slope(A)}")
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
