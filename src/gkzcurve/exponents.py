"""Starting exponents of the series solutions of a curve system.

They are the fake exponents of the top-dimensional standard pairs of an
initial ideal of the toric ideal (Saito-Sturmfels-Takayama, ch. 3).  For a
smooth matrix, one weight gives <d_2, ..., d_{n-2}, d_1^{a_{n-1}}, d_n>, whose
pairs (d_1^j, {n-1}) give the a_{n-1} exponents v^j along the singular
support; another gives <d_2, ..., d_{n-1}, d_1^{a_n}>, whose pairs
(d_1^j, {n}) give the a_n exponents w^j at generic points.  Both lists come
from the closed forms series.exponent_base and series.generic_exponent_base;
tests/test_exponents.py derives them from the Graver basis.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import CurveMatrix
from .records import record
from .series import (
    exponent_base,
    generic_exponent_base,
    negative_support,
    polynomial_exponent_index,
)


@record
class ExponentVector:
    """A starting exponent of a series solution, with its negative-support data.

    auxiliary marks vectors expressed in the coordinates of the auxiliary
    matrix (1, a_1, ..., a_n) of a general curve; substituting x_0 = 0 in the
    corresponding series yields solutions for the curve itself."""

    vector: tuple[Fraction, ...]
    nsupp: frozenset[int]
    minimal: bool | None
    auxiliary: bool = False


def _exponents(A: CurveMatrix, beta, base, count_entry: int) -> list[ExponentVector]:
    """base(A, beta, j) for j below A.entries[count_entry], each with a minimal
    negative support; a general matrix is routed through its auxiliary matrix."""
    if not A.is_smooth:
        return [ExponentVector(e.vector, e.nsupp, e.minimal, auxiliary=True)
                for e in _exponents(A.auxiliary(), beta, base, count_entry)]
    vectors = [base(A, beta, j) for j in range(A.entries[count_entry])]
    return [ExponentVector(v, negative_support(v), True) for v in vectors]


def singular_exponents(A: CurveMatrix, beta) -> list[ExponentVector]:
    """The a_{n-1} exponents v^j = (j, 0, ..., (beta-j)/a_{n-1}, 0) along the
    singular support.  Minimality of the negative support is known for these,
    so it is asserted rather than searched.

    A general matrix is routed through its auxiliary smooth matrix and the
    vectors are reported in those n+1 coordinates, flagged auxiliary."""
    return _exponents(A, beta, exponent_base, -2)


def generic_exponents(A: CurveMatrix, beta) -> list[ExponentVector]:
    """The a_n exponents w^j = (j, 0, ..., (beta-j)/a_n) at points off the
    singular support; general matrices are routed through the auxiliary matrix
    (substitute x_0 = 0 afterwards).

    Their negative supports are minimal, so this is asserted rather than
    searched.  As j >= 0 the negative support lies in {n}, and it is non-empty
    only when theta = (beta-j)/a_n is a negative integer.  Then w^j is an
    integer vector and beta = j + a_n theta <= j - a_n < 0, so beta is not in
    NA.  A kernel offset u with empty negative support of w^j + u would put
    w^j + u in N^n and beta = A(w^j + u) in NA, so no offset shrinks {n}."""
    return _exponents(A, beta, generic_exponent_base, -1)


__all__ = [
    "ExponentVector",
    "generic_exponents",
    "polynomial_exponent_index",
    "singular_exponents",
]
