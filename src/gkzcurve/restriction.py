"""Restrictions of curve hypergeometric modules and their closed-form b-functions.

Restricting to coordinate subspaces either drops a column (x_i = 0, i >= 2),
splits into gcd-many plane-curve summands (x_1 = 0), or presents a general
curve as the x_0 = 0 slice of its auxiliary smooth curve.  The b-functions
needed for these restrictions are closed-form for the covered shapes; anything
else fails loudly rather than guessing.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

# lazily loaded modules: their names are read at call time, so a command
# that never calls into one does not compile it
from . import operators as _operators
from . import semigroup as _semigroup
from .core import (
    CurveError,
    CurveMatrix,
    GcdNotOneError,
    IndexOutOfRangeError,
    NotSmoothError,
    clip,
    make_curve,
    record,
)


class WrongShapeError(CurveError):
    """Matrix does not have the shape the operation needs."""


class UnsupportedShapeError(CurveError):
    """No closed-form b-function is published for this shape/weight pair."""


class Caveat(Enum):
    PROVEN_FOR_THIS_BETA = "proven_for_this_beta"
    GENERIC_BETA_ONLY = "generic_beta_only"     # holds for all but finitely many beta


@record
class ModuleDescriptor:
    """A hypergeometric module M_A(beta) appearing as a restriction summand."""

    matrix: CurveMatrix
    parameter: Fraction
    caveat: Caveat


@record
class RestrictionWitness:
    """Operators certifying the auxiliary restriction of a general curve:
    P_1 = d_0^{a_1} - d_1 and Q_i = d_0 d_i^{delta_i} - d^{rho_i}, all binomials
    of the auxiliary toric ideal (the exponent differences lie in ker_Z(A'))."""

    auxiliary: CurveMatrix
    p1: _operators.WeylOperator
    q_operators: tuple[_operators.WeylOperator, ...]
    deltas: tuple[_semigroup.DeltaExponent, ...]


def restrict_hyperplane(A: CurveMatrix, beta, i: int) -> ModuleDescriptor:
    """Restriction of a smooth-curve module to (x_i = 0), i = 2..n: the module
    of the matrix with column i removed, same parameter, valid for every beta."""
    if not A.is_smooth:
        raise NotSmoothError(f"{A.entries} is not smooth")
    if not 2 <= i <= A.n:
        raise IndexOutOfRangeError(f"i={clip(i)} outside 2..{A.n}")
    if A.n < 3:
        raise WrongShapeError("dropping a column of a 1x2 matrix leaves no curve")
    entries = tuple(a for j, a in enumerate(A.entries, start=1) if j != i)
    return ModuleDescriptor(make_curve(entries), Fraction(beta),
                            Caveat.PROVEN_FOR_THIS_BETA)


def restrict_first_variable(A: CurveMatrix, beta) -> list[ModuleDescriptor]:
    """Restriction of a (1, ka, kb) module to (x_1 = 0): k plane-curve summands
    M_(a,b)((beta - i)/k), i = 0..k-1; the parameter formula holds for all but
    finitely many beta."""
    if A.n != 3 or not A.is_smooth:
        raise WrongShapeError(f"{A.entries} does not have shape (1, ka, kb)")
    k = math.gcd(A.entries[1], A.entries[2])
    a, b = A.entries[1] // k, A.entries[2] // k
    beta = Fraction(beta)
    return [ModuleDescriptor(make_curve((a, b)), Fraction(beta - i, k),
                             Caveat.GENERIC_BETA_ONLY)
            for i in range(k)]


def restrict_to_plane(A: CurveMatrix, beta) -> list[ModuleDescriptor]:
    """Restriction of a smooth-curve module to (x_1 = ... = x_{n-2} = 0):
    k = gcd(a_{n-1}, a_n) summands M_(a_{n-1}/k, a_n/k)((beta - i)/k)."""
    if not A.is_smooth:
        raise NotSmoothError(f"{A.entries} is not smooth")
    if A.n < 3:
        raise WrongShapeError("need at least 3 variables")
    an1, an = A.entries[-2], A.entries[-1]
    k = math.gcd(an1, an)
    beta = Fraction(beta)
    return [ModuleDescriptor(make_curve((an1 // k, an // k)), Fraction(beta - i, k),
                             Caveat.GENERIC_BETA_ONLY)
            for i in range(k)]


def auxiliary_restriction(A: CurveMatrix, beta) -> tuple[ModuleDescriptor, RestrictionWitness]:
    """Present a general-curve module as the restriction of its auxiliary
    smooth-curve module to (x_0 = 0).

    The parameter carries the generic caveat (the restricted parameter equals
    beta for all but finitely many values).  The witness operators Q_i encode
    1 + delta_i a_i = rho_i . (other entries) and, together with
    P_1 = d_0^{a_1} - d_1, force d_0 into the initial ideal."""
    if A.is_smooth:
        raise WrongShapeError("auxiliary restriction applies to general matrices")
    if math.gcd(*A.entries) != 1:
        raise GcdNotOneError(f"gcd{A.entries} != 1")
    monomial = _operators.WeylOperator.monomial
    aux = A.auxiliary()
    nv = aux.n
    deltas = _semigroup.delta_exponents(A)
    q_ops = []
    for d in deltas:
        left = [0] * nv
        left[0] = 1
        left[d.position + 1] = d.delta
        right = [0] * nv
        others = [j for j in range(A.n) if j != d.position]
        for slot, c in zip(others, d.witness):
            right[slot + 1] = c
        q_ops.append(monomial(nv, (0,) * nv, tuple(left))
                     - monomial(nv, (0,) * nv, tuple(right)))
        diff = tuple(l - r for l, r in zip(left, right))
        if aux.weight(diff) != 0:
            raise CurveError(f"{diff} is not in the kernel of {aux.entries}")
    p1_exp = tuple(A.entries[0] if j == 0 else 0 for j in range(nv))
    p1 = (monomial(nv, (0,) * nv, p1_exp)
          - monomial(nv, (0,) * nv, tuple(1 if j == 1 else 0 for j in range(nv))))
    witness = RestrictionWitness(aux, p1, tuple(q_ops), deltas)
    return (ModuleDescriptor(A, Fraction(beta), Caveat.GENERIC_BETA_ONLY), witness)


# ---------------------------------------------------------------------------
# b-functions


class WeightTag(Enum):
    FIRST_COORDINATE = "first_coordinate"       # (1, 0, ..., 0)


@record
class BFunction:
    """Monic polynomial in the weighted Euler operator, given by its roots
    (with multiplicity, sorted)."""

    roots: tuple[Fraction, ...]
    caveat: Caveat

    @property
    def degree(self) -> int:
        return len(self.roots)


def b_function(A: CurveMatrix, weight) -> BFunction:
    """Closed-form b-function of the hypergeometric ideal for the covered weights.

    weight = WeightTag.FIRST_COORDINATE: shape (1, ka, kb) has roots 0..k-1
    (all but finitely many beta); longer smooth matrices whose tail has gcd 1
    (the auxiliary matrices) have the single root 0.
    weight = ("standard_basis", i), 2 <= i <= n, smooth A: single root 0, every
    beta.  Anything else is unsupported."""
    if isinstance(weight, tuple) and weight[0] == "standard_basis":
        i = weight[1]
        if not A.is_smooth:
            raise UnsupportedShapeError(f"e_{i} weight covered for smooth matrices only")
        if not 2 <= i <= A.n:
            raise IndexOutOfRangeError(f"i={clip(i)} outside 2..{A.n}")
        return BFunction((Fraction(0),), Caveat.PROVEN_FOR_THIS_BETA)
    if weight is WeightTag.FIRST_COORDINATE:
        if not A.is_smooth:
            raise UnsupportedShapeError(
                f"(1,0,...,0) weight needs a leading 1: {A.entries}")
        if A.n == 3:
            k = math.gcd(A.entries[1], A.entries[2])
            return BFunction(tuple(Fraction(r) for r in range(k)),
                             Caveat.GENERIC_BETA_ONLY)
        if math.gcd(*A.entries[1:]) == 1:
            return BFunction((Fraction(0),), Caveat.GENERIC_BETA_ONLY)
        raise UnsupportedShapeError(
            f"no closed form for {A.entries} with tail gcd != 1")
    raise UnsupportedShapeError(f"unknown weight {weight!r}")


def generic_rank(A: CurveMatrix) -> int:
    """Number of independent holomorphic solutions at a generic point: a_n for
    both kinds (the general kind inherits the count of its auxiliary matrix
    through the x_0 = 0 substitution)."""
    return A.entries[-1]
