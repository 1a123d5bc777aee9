"""Starting exponents of the series solutions of a curve system, and their
negative supports.

They are the fake exponents of the top-dimensional standard pairs of an
initial ideal of the toric ideal (Saito-Sturmfels-Takayama, ch. 3).  For a
smooth matrix, one weight gives <d_2, ..., d_{n-2}, d_1^{a_{n-1}}, d_n>, whose
pairs (d_1^j, {n-1}) give the a_{n-1} exponents v^j along the singular
support; another gives <d_2, ..., d_{n-1}, d_1^{a_n}>, whose pairs
(d_1^j, {n}) give the a_n exponents w^j at generic points.  Both lists come
from the closed forms basis.exponent_base and basis.generic_exponent_base;
tests/test_exponents.py derives them from the Graver basis.  Only the
minimality search reads the kernel lattice, from curves at call time, so
listing the exponents compiles neither the lattice nor the series code.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# lazily loaded: its names are read at call time, so a command that never
# calls into it does not compile it
from . import curves as _curves
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
    minimal: bool | None
    auxiliary: bool = False


def _exponents(A: CurveMatrix, beta, base, count_entry: int) -> list[ExponentVector]:
    """base(A, beta, j) for j below A.entries[count_entry], each with a minimal
    negative support; a general matrix is routed through its auxiliary matrix.
    CurveError, before any is built, when the vectors hold more than
    EXPONENT_VALUE_CAP entries in all."""
    if not A.is_smooth:
        return [ExponentVector(e.vector, e.nsupp, e.minimal, auxiliary=True)
                for e in _exponents(A.auxiliary(), beta, base, count_entry)]
    count = A.entries[count_entry]
    if count * A.n > EXPONENT_VALUE_CAP:
        raise CurveError(f"{clip(count)} exponents of {A.n} entries pass the cap of "
                         f"{EXPONENT_VALUE_CAP} values")
    vectors = [base(A, beta, j) for j in range(count)]
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


# ---------------------------------------------------------------------------
# Minimal negative support


@record
class MinimalSupportAnswer:
    status: bool | None            # True / False / None = unknown at this radius
    witness: tuple[int, ...] | None
    radius: int


def has_minimal_negative_support(A: CurveMatrix, v, radius: int = 3) -> MinimalSupportAnswer:
    """Decide whether some kernel offset strictly shrinks the negative support.

    Empty negative support is trivially minimal.  The search covers the
    coordinate box |m_i| <= radius and answers None (unknown) when no witness
    turns up.  A rank-1 kernel (n = 2) is searched up to the bound past which
    the sign pattern of v + t*g is constant, so no witness there means True.
    """
    v = tuple(Fraction(x) for x in v)
    nsupp = negative_support(v)
    if not nsupp:
        return MinimalSupportAnswer(True, None, radius)
    basis = _curves.lattice_basis(A)
    rank = basis.rank
    reach = radius if rank > 1 else max(math.ceil((abs(x) + 2) / abs(gi))
                                        for x, gi in zip(v, basis.rows[0]) if gi)
    for m in filter(any, itertools.product(range(-reach, reach + 1), repeat=rank)):
        u = basis.combine(m)
        if negative_support(tuple(b + o for b, o in zip(v, u))) < nsupp:
            return MinimalSupportAnswer(False, u, radius)
    return MinimalSupportAnswer(True if rank == 1 else None, None, radius)


__all__ = [
    "ExponentVector",
    "MinimalSupportAnswer",
    "generic_exponents",
    "has_minimal_negative_support",
    "negative_support",
    "singular_exponents",
]
