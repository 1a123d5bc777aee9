"""Starting exponents of the series solutions of a curve system, and their
negative supports.

They are the fake exponents of the top-dimensional standard pairs of an
initial ideal of the toric ideal (Saito-Sturmfels-Takayama, ch. 3).  For a
smooth matrix, one weight gives <d_2, ..., d_{n-2}, d_1^{a_{n-1}}, d_n>, whose
pairs (d_1^j, {n-1}) give the a_{n-1} exponents v^j along the singular
support; another gives <d_2, ..., d_{n-1}, d_1^{a_n}>, whose pairs
(d_1^j, {n}) give the a_n exponents w^j at generic points.  Both lists come
from the closed forms basis.exponent_base and basis.generic_exponent_base;
tests/test_exponents.py derives them from the Graver basis.  Listing the
exponents compiles neither the lattice nor the series code.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import exponent_base, generic_exponent_base
from .core import EXPONENT_VALUE_CAP, CurveError, CurveMatrix, clip, record


def negative_support(v) -> frozenset[int]:
    """Indices (0-based) where v has a negative integer entry."""
    out = set()
    for i, x in enumerate(v):
        x = Fraction(x)
        if x.denominator == 1 and x < 0:
            out.add(i)
    return frozenset(out)


@record
class ExponentVector:
    """A starting exponent of a series solution, with its negative-support data.

    auxiliary marks vectors expressed in the coordinates of the auxiliary
    matrix (1, a_1, ..., a_n) of a general curve; substituting x_0 = 0 in the
    corresponding series yields solutions for the curve itself."""

    vector: tuple[Fraction, ...]
    nsupp: frozenset[int]
    auxiliary: bool = False


def _exponents(A: CurveMatrix, beta, base, count_entry: int) -> list[ExponentVector]:
    """base(A, beta, j) for j below A.entries[count_entry], each with a minimal
    negative support; a general matrix is routed through its auxiliary matrix.
    CurveError, before any is built, when the vectors hold more than
    EXPONENT_VALUE_CAP entries in all."""
    if not A.is_smooth:
        return [ExponentVector(e.vector, e.nsupp, auxiliary=True)
                for e in _exponents(A.auxiliary(), beta, base, count_entry)]
    count = A.entries[count_entry]
    if count * A.n > EXPONENT_VALUE_CAP:
        raise CurveError(f"{clip(count)} exponents of {A.n} entries pass the cap of "
                         f"{EXPONENT_VALUE_CAP} values")
    vectors = [base(A, beta, j) for j in range(count)]
    return [ExponentVector(v, negative_support(v)) for v in vectors]


def singular_exponents(A: CurveMatrix, beta) -> list[ExponentVector]:
    """The a_{n-1} exponents v^j = (j, 0, ..., (beta-j)/a_{n-1}, 0) along the
    singular support.  Their negative supports are known to be minimal, so
    none is searched.

    A general matrix is routed through its auxiliary smooth matrix and the
    vectors are reported in those n+1 coordinates, flagged auxiliary."""
    return _exponents(A, beta, exponent_base, -2)


def generic_exponents(A: CurveMatrix, beta) -> list[ExponentVector]:
    """The a_n exponents w^j = (j, 0, ..., (beta-j)/a_n) at points off the
    singular support; general matrices are routed through the auxiliary matrix
    (substitute x_0 = 0 afterwards).

    Their negative supports are minimal, so none is searched.  As j >= 0 the
    negative support lies in {n}, and it is non-empty only when
    theta = (beta-j)/a_n is a negative integer.  Then w^j is an integer vector
    and beta = j + a_n theta <= j - a_n < 0, so beta is not in NA.  A kernel
    offset u with empty negative support of w^j + u would put w^j + u in N^n
    and beta = A(w^j + u) in NA, so no offset shrinks {n}."""
    return _exponents(A, beta, generic_exponent_base, -1)
