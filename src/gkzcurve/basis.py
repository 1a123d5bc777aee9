"""Solution bases along the singular support and their annihilation check.

The basis series of solve and verify: at the a_{n-1} exponents v^j of the
smooth stratum of Y = (x_n = 0), with the witness series in place of the
polynomial slot, or at the a_n exponents of a generic point.  General curves
are routed through the auxiliary smooth matrix and its x_0 = 0 section.  The
exponents themselves are closed forms in the entries of A and in beta.
"""

from __future__ import annotations

from fractions import Fraction

# lazily loaded modules: their names are read at call time, so a command
# that never calls into one does not compile it
from . import semigroup as _semigroup
from . import series as _series
from . import weyl as _weyl
from .core import (
    CurveError,
    CurveMatrix,
    IndexOutOfRangeError,
    PointClass,
    clip,
    record,
    slope,
)


class SlopeTooSmallError(CurveError):
    """No Gevrey-quotient classes below the slope for non-natural parameters."""


@record
class BasisMember:
    series: _series.FormalSeries
    label: str
    exponent: tuple[Fraction, ...]
    is_solution: bool              # False only for the witness series
    defect_generator: str | None   # generator name the witness fails on
    caveats: tuple[str, ...] = ()


def exponent_base(A: CurveMatrix, beta, j: int) -> tuple[Fraction, ...]:
    """The exponent v^j = j e_1 + ((beta - j)/a_{n-1}) e_{n-1} of the system
    along the singular support, for j = 0..a_{n-1}-1."""
    beta = Fraction(beta)
    n = A.n
    a_pen = A.entries[n - 2]
    if not 0 <= j < a_pen:
        raise IndexOutOfRangeError(f"j={clip(j)} outside 0..{a_pen - 1}")
    v = [Fraction(0)] * n
    v[0] += j
    v[n - 2] += Fraction(beta - j, a_pen)
    return tuple(v)


def generic_exponent_base(A: CurveMatrix, beta, j: int) -> tuple[Fraction, ...]:
    """The exponent w^j = j e_1 + ((beta - j)/a_n) e_n at generic points,
    for j = 0..a_n-1."""
    beta = Fraction(beta)
    n = A.n
    a_n = A.entries[-1]
    if not 0 <= j < a_n:
        raise IndexOutOfRangeError(f"j={clip(j)} outside 0..{a_n - 1}")
    v = [Fraction(0)] * n
    v[0] += j
    v[n - 1] += Fraction(beta - j, a_n)
    return tuple(v)


def polynomial_exponent_index(A: CurveMatrix, beta) -> int | None:
    """The unique j in 0..a_{n-1}-1 with (beta - j)/a_{n-1} in N, when beta is a
    natural number; the series at that exponent is a polynomial."""
    beta = Fraction(beta)
    if beta.denominator != 1 or beta < 0:
        return None
    return int(beta) % A.entries[A.n - 2]


def _witness_defect_name(A: CurveMatrix) -> str:
    return f"toric[{A.n - 1}]"


def _smooth_singular_basis(A, beta, s, build, suffix="") -> list[BasisMember]:
    """The smooth-stratum basis of the smooth matrix A; build(base) makes the
    series at each base exponent and suffix marks the labels."""
    sigma = slope(A)
    q = polynomial_exponent_index(A, beta)
    s_frac = None if s is None else Fraction(s)
    below = s_frac is not None and s_frac < sigma
    if below:
        if q is None:
            raise SlopeTooSmallError(
                f"no classes of order {s} < slope {sigma} for beta = {beta}")
        poly = build(exponent_base(A, beta, q))
        return [BasisMember(poly, f"exponent[{q}]{suffix}", poly.base, True, None)]
    out = []
    for j in range(A.entries[A.n - 2]):
        if j == q:
            continue
        ser = build(exponent_base(A, beta, j))
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
        ser = build(generic_exponent_base(A, beta, j))
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
                   and not _semigroup.semigroup_member(A, int(beta)))
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
