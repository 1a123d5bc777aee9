"""Reference implementations the tests compare the package against.

Each is the plain Fraction form of something the package computes by a faster
route, and no command runs it: the Gamma-series coefficient straight from its
falling-factorial definition, the closed form of the singular-exponent
coefficients, the finite image of the witness series under its defect
generator, contiguity as one operator application, and coefficientwise
agreement on a certified window.  Two answer questions the package settles by
proof instead: a box search for a kernel offset that shrinks a negative
support, and whether two parameters define isomorphic modules.  combine
gives the lattice vector of kernel coordinates, which the package only
enumerates.
"""

import itertools
import math
from fractions import Fraction

from gkzcurve.core import CurveError, CurveMatrix, DimensionMismatchError, record
from gkzcurve.curves import lattice_basis
from gkzcurve.exponents import negative_support
from gkzcurve.operators import WeylOperator
from gkzcurve.semigroup import BetaClass, beta_class
from gkzcurve.series import BetaNotNaturalError, FiniteSupport, FormalSeries, witness_base
from gkzcurve.weyl import apply


def falling_product(z, alpha) -> Fraction:
    """(z)_alpha = prod_i z_i (z_i - 1) ... (z_i - alpha_i + 1) for alpha in N^n."""
    out = Fraction(1)
    for zi, ai in zip(z, alpha):
        zi = Fraction(zi)
        for j in range(ai):
            out *= zi - j
            if out == 0:
                return out
    return out


def gamma_coefficient(v, u) -> Fraction:
    """Gamma[v; u]: the series coefficient attached to the offset u.

    Zero unless negative_support(v + u) == negative_support(v); under that
    guard the denominator (v+u)_{u_+} cannot vanish.  series.gamma_series
    builds the same values from integer factor tables.
    """
    v = tuple(Fraction(x) for x in v)
    u = tuple(int(x) for x in u)
    w = tuple(a + b for a, b in zip(v, u))
    if negative_support(w) != negative_support(v):
        return Fraction(0)
    u_plus = tuple(x if x > 0 else 0 for x in u)
    u_minus = tuple(-x if x < 0 else 0 for x in u)
    den = falling_product(w, u_plus)
    if den == 0:
        raise CurveError(f"pole at offset {u}: the negative-support guard failed")
    return falling_product(v, u_minus) / den


def closed_form_coefficient(A: CurveMatrix, beta, j: int, m) -> Fraction:
    """Closed form of Gamma[v^j; u(m)] on m in N^{n-1}:
    ((beta-j)/a_{n-1})_{m_{n-1}} j! / (m_2! ... m_{n-2}! m_n! (x_1-exponent)!).

    Independent of the factor tables of gamma_series."""
    beta = Fraction(beta)
    n = A.n
    a = A.entries
    theta = Fraction(beta - j, a[n - 2])
    m_pen = m[n - 3] if n >= 3 else 0      # coordinate for index n-1
    x1_exp = j - sum(a[i] * m[i - 1] for i in range(1, n) if i != n - 2)
    x1_exp += a[n - 2] * m_pen
    if x1_exp < 0:
        return Fraction(0)
    num = falling_product((theta,), (m_pen,)) * math.factorial(j)
    den = Fraction(math.factorial(x1_exp))
    for i in range(1, n):
        if i != n - 2:
            den *= math.factorial(m[i - 1])
    return num / den


def witness_defect(A: CurveMatrix, beta) -> FormalSeries:
    """The image of the witness series under d_1^{a_{n-1}} - d_{n-1}: the finite sum

        sum (beta + a_{n-1})! / (m_2! .. m_{n-2}! m_n! (beta - S)!)
            * x_1^{beta - S} x_2^{m_2} .. x_{n-2}^{m_{n-2}} x_{n-1}^{-1} x_n^{m_n}

    over m in N^{n-2} with S = sum_{i != n-1} a_i m_i <= beta.  Every term has
    x_{n-1}-exponent exactly -1.  Offsets are relative to the witness base, so
    the result is directly comparable with the operator application.
    """
    beta = Fraction(beta)
    if beta.denominator != 1 or beta < 0:
        raise BetaNotNaturalError(f"beta={beta} is not a natural number")
    n = A.n
    a = A.entries
    base = witness_base(A, beta)
    b = int(beta)
    free = [i for i in range(1, n) if i != n - 2]   # 0-based slots 2..n-2, n
    terms = {}

    def rec(idx, remaining, m_acc):
        if idx == len(free):
            coeff = Fraction(math.factorial(b + a[n - 2]))
            coeff /= math.factorial(remaining)
            exponent = [Fraction(0)] * n
            exponent[0] = Fraction(remaining)
            exponent[n - 2] = Fraction(-1)
            for slot, mi in zip(free, m_acc):
                coeff /= math.factorial(mi)
                exponent[slot] = Fraction(mi)
            offset = tuple(int(e - v) for e, v in zip(exponent, base))
            terms[offset] = coeff
            return
        slot = free[idx]
        for mi in range(remaining // a[slot] + 1):
            rec(idx + 1, remaining - mi * a[slot], m_acc + [mi])

    rec(0, b, [])
    return FormalSeries(base, terms, 0, FiniteSupport())


def apply_contiguity(S: FormalSeries, w) -> FormalSeries:
    """Apply d^w termwise.  A solution for parameter beta maps to a solution for
    beta - A.w; callers track the parameter shift.  series.inverse_contiguity
    is its inverse."""
    op = WeylOperator.monomial(S.nvars, (0,) * S.nvars, tuple(int(x) for x in w))
    return apply(op, S)


def series_match_on_window(result: FormalSeries, reference: FormalSeries) -> bool:
    """Coefficientwise equality of an operator-application result against a
    complete reference series, restricted to the result's certified window."""
    return (all(reference.coefficient_known(off) == c
                for off, c in result.terms.items())
            and all(result.coefficient_known(off) in (None, c)
                    for off, c in reference.terms.items()))


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
    basis = lattice_basis(A)
    rank = basis.rank
    reach = radius if rank > 1 else max(math.ceil((abs(x) + 2) / abs(gi))
                                        for x, gi in zip(v, basis.rows[0]) if gi)
    for m in filter(any, itertools.product(range(-reach, reach + 1), repeat=rank)):
        u = combine(basis, m)
        if negative_support(tuple(b + o for b, o in zip(v, u))) < nsupp:
            return MinimalSupportAnswer(False, u, radius)
    return MinimalSupportAnswer(True if rank == 1 else None, None, radius)


def combine(basis, m) -> tuple[int, ...]:
    """u(m) = sum_i m_i u^i for integer coordinates m of length rank."""
    if len(m) != basis.rank:
        raise DimensionMismatchError(f"{len(m)} coordinates for rank {basis.rank}")
    return tuple(sum(c * row[j] for c, row in zip(m, basis.rows))
                 for j in range(basis.matrix.n))


def isomorphic_parameters(A: CurveMatrix, b1, b2) -> bool:
    """Whether b1 and b2 carry the same beta_class tag and, for non-integers,
    differ by an integer: the condition for isomorphic hypergeometric modules."""
    c1, c2 = beta_class(A, b1), beta_class(A, b2)
    if c1.category != c2.category:
        return False
    if c1.category is BetaClass.NON_INTEGER:
        return (Fraction(b1) - Fraction(b2)).denominator == 1
    return True
