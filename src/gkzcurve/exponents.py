"""Weight vectors, initial-ideal data and exponent lists for curve systems.

For a smooth matrix and a weight in the admissible cone, the initial ideal of
the toric ideal is the monomial ideal <d_2, ..., d_{n-2}, d_1^{a_{n-1}}, d_n>,
whose a_{n-1} standard pairs (d_1^j, {n-1}) produce the singular-point
exponents v^j.  At generic points the a_n exponents w^j play the same role.
"""

from __future__ import annotations

from fractions import Fraction

# lazily loaded modules: their names are read at call time, so a command
# that never calls into one does not compile it
from . import weyl as _weyl
from .curves import CurveError, CurveMatrix
from .records import record
from .series import (
    exponent_base,
    generic_exponent_base,
    negative_support,
    polynomial_exponent_index,
)


class InvalidWeightError(CurveError):
    """Weight vector violates the admissibility conditions."""


@record
class WeightVector:
    """A positive rational weight on the n variables, admissible when

        w_i > a_i w_1         for 2 <= i <= n-2 and i = n,
        a_{n-1} w_1 > w_{n-1},
        w_{n-1} > w_1, ..., w_{n-2}.

    For n = 2 only the first condition (at i = n) remains."""

    entries: tuple[Fraction, ...]


def weight_is_admissible(A: CurveMatrix, omega) -> bool:
    w = [Fraction(x) for x in omega]
    n = A.n
    a = A.entries
    if len(w) != n or any(x <= 0 for x in w):
        return False
    for i in list(range(2, n - 1)) + [n]:
        if not w[i - 1] > a[i - 1] * w[0]:
            return False
    if n >= 3:
        if not a[n - 2] * w[0] > w[n - 2]:
            return False
        if not all(w[n - 2] > w[i] for i in range(n - 2)):
            return False
    return True


def standard_weight(A: CurveMatrix) -> WeightVector:
    """A fixed admissible weight: (1, a_2 + 1/4, ..., a_{n-2} + 1/4,
    a_{n-1} - 1/4, a_n + 1).  Construction is checked; failure is a bug."""
    if not A.is_smooth:
        raise _weyl.NotSmoothError(f"{A.entries} is not smooth")
    n = A.n
    a = A.entries
    w = [Fraction(1)] * n
    for i in range(2, n - 1):
        w[i - 1] = Fraction(a[i - 1]) + Fraction(1, 4)
    if n >= 3:
        w[n - 2] = Fraction(a[n - 2]) - Fraction(1, 4)
    w[n - 1] = Fraction(a[n - 1]) + 1
    if not weight_is_admissible(A, w):
        raise InvalidWeightError(f"standard weight {tuple(w)} of {a} is not admissible")
    return WeightVector(tuple(w))


def initial_ideal_generators(A: CurveMatrix,
                             omega: WeightVector | None = None) -> list[_weyl.WeylOperator]:
    """Monomial generators of the initial ideal of the toric ideal:
    {d_i : 2 <= i <= n-2} + {d_1^{a_{n-1}}, d_n} for n >= 3, and {d_2} for n = 2.

    Each generator is checked to be the omega-initial form of the matching
    toric generator d_1^{a_i} - d_i."""
    if not A.is_smooth:
        raise _weyl.NotSmoothError(f"{A.entries} is not smooth")
    if omega is None:
        omega = standard_weight(A)
    if not weight_is_admissible(A, omega.entries):
        raise InvalidWeightError(f"{omega.entries} violates the weight conditions")
    n = A.n
    gens = []
    for i in range(2, n + 1):
        if i == n - 1:
            exp = tuple(A.entries[n - 2] if j == 0 else 0 for j in range(n))
        else:
            exp = tuple(1 if j == i - 1 else 0 for j in range(n))
        gens.append(_weyl.WeylOperator.monomial(n, (0,) * n, exp))
    for gen, toric in zip(gens, _weyl.toric_generators(A)):
        # the initial form of d_1^{a_i} - d_i is the generator up to sign
        if set(_weyl.initial_form(toric, omega.entries).terms) != set(gen.terms):
            raise CurveError(f"{gen} is not the initial form of {toric} "
                             f"under {omega.entries}")
    return gens


@record
class StandardPair:
    """A pair (monomial, face): the monomial exponent in N^n together with the
    set of indices allowed to vary freely."""

    monomial: tuple[int, ...]
    face: frozenset[int]          # 1-based variable indices


def standard_pairs(A: CurveMatrix) -> list[StandardPair]:
    """The a_{n-1} standard pairs (d_1^j, {n-1}), j = 0..a_{n-1}-1, of the
    initial ideal of a smooth matrix."""
    if not A.is_smooth:
        raise _weyl.NotSmoothError(f"{A.entries} is not smooth")
    n = A.n
    a_pen = A.entries[n - 2]
    out = []
    for j in range(a_pen):
        mono = tuple(j if i == 0 else 0 for i in range(n))
        out.append(StandardPair(mono, frozenset({n - 1})))
    return out


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


def _exponent(v, minimal: bool | None, auxiliary: bool = False) -> ExponentVector:
    return ExponentVector(tuple(v), negative_support(v), minimal, auxiliary)


def singular_exponents(A: CurveMatrix, beta) -> list[ExponentVector]:
    """The a_{n-1} exponents v^j = (j, 0, ..., (beta-j)/a_{n-1}, 0) along the
    singular support.  Minimality of the negative support is known for these,
    so it is asserted rather than searched.

    A general matrix is routed through its auxiliary smooth matrix and the
    vectors are reported in those n+1 coordinates, flagged auxiliary."""
    if not A.is_smooth:
        aux = A.auxiliary()
        return [ExponentVector(e.vector, e.nsupp, e.minimal, auxiliary=True)
                for e in singular_exponents(aux, beta)]
    a_pen = A.entries[A.n - 2]
    out = []
    for j in range(a_pen):
        v = exponent_base(A, beta, j)
        out.append(_exponent(v, minimal=True))
    return out


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
    if not A.is_smooth:
        aux = A.auxiliary()
        return [ExponentVector(e.vector, e.nsupp, e.minimal, auxiliary=True)
                for e in generic_exponents(aux, beta)]
    return [_exponent(generic_exponent_base(A, beta, j), minimal=True)
            for j in range(A.entries[-1])]


__all__ = [
    "ExponentVector",
    "InvalidWeightError",
    "StandardPair",
    "WeightVector",
    "generic_exponents",
    "initial_ideal_generators",
    "polynomial_exponent_index",
    "singular_exponents",
    "standard_pairs",
    "standard_weight",
    "weight_is_admissible",
]
