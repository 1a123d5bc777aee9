"""Sparse Weyl-algebra operators: the ring, and the operators of a curve system.

Operators are finite sums of c * x^a * d^g in normal order (all x's left of all
d's), with exact rational coefficients.  Equality is structural: two operators
are equal exactly when their normal-form term maps coincide.  Their action on
series is in weyl.py.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import CurveMatrix, DimensionMismatchError, NotInKernelError, NotSmoothError


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


class WeylOperator:
    """A differential operator sum c_{a,g} x^a d^g on a fixed number of variables.

    Multiplication normal-orders with the commutation rule [d_i, x_i] = 1:

        d^g x^b = sum_k C(g, k) * b!/(b-k)! * x^{b-k} d^{g-k}

    taken coordinatewise over 0 <= k <= min(g, b).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for (a, g), c in (terms or {}).items():
            key, c = (tuple(a), tuple(g)), Fraction(c)
            self.terms[key] = self.terms[key] + c if key in self.terms else c
        self.terms = {k: v for k, v in self.terms.items() if v != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "WeylOperator":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "WeylOperator":
        z = (0,) * nvars
        return cls(nvars, {(z, z): Fraction(c)})

    @classmethod
    def monomial(cls, nvars: int, xexp, dexp, c=1) -> "WeylOperator":
        return cls(nvars, {(tuple(xexp), tuple(dexp)): Fraction(c)})

    @classmethod
    def x(cls, nvars: int, i: int) -> "WeylOperator":
        return cls.monomial(nvars, _unit(nvars, i), (0,) * nvars)

    @classmethod
    def d(cls, nvars: int, i: int) -> "WeylOperator":
        return cls.monomial(nvars, (0,) * nvars, _unit(nvars, i))

    @classmethod
    def theta(cls, nvars: int, i: int) -> "WeylOperator":
        return cls.monomial(nvars, _unit(nvars, i), _unit(nvars, i))

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "WeylOperator"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operators on {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylOperator.constant(self.nvars, other)
        self._check(other)
        merged = dict(self.terms)
        for k, c in other.terms.items():
            merged[k] = merged.get(k, Fraction(0)) + c
        return WeylOperator(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self):
        return WeylOperator(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return WeylOperator(self.nvars,
                                {k: c * Fraction(other) for k, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for (a1, g1), c1 in self.terms.items():
            for (a2, g2), c2 in other.terms.items():
                # over the per-variable contraction orders k_i
                for ks in itertools.product(*(range(min(g, b) + 1) for g, b in zip(g1, a2))):
                    coeff = c1 * c2 * math.prod(math.comb(g, k) * math.perm(b, k)
                                                for g, b, k in zip(g1, a2, ks))
                    key = (tuple(x + y - k for x, y, k in zip(a1, a2, ks)),
                           tuple(x + y - k for x, y, k in zip(g1, g2, ks)))
                    out[key] = out.get(key, Fraction(0)) + coeff
        return WeylOperator(self.nvars, out)

    def __rmul__(self, other):
        return self * other if isinstance(other, (int, Fraction)) else NotImplemented

    def __eq__(self, other):
        return (isinstance(other, WeylOperator)
                and self.nvars == other.nvars and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        parts = []
        for (a, g), c in sorted(self.terms.items()):
            bits = [] if c == 1 and (any(a) or any(g)) else [str(c)]
            for letter, exps in (("x", a), ("d", g)):
                bits += [f"{letter}{i+1}" + (f"^{e}" if e > 1 else "")
                         for i, e in enumerate(exps) if e]
            parts.append(" ".join(bits))
        return " + ".join(parts) or "0"


def euler_operator(A: CurveMatrix, beta) -> WeylOperator:
    """E(beta) = sum_i a_i x_i d_i - beta.  On a monomial x^w it acts by the
    scalar A.w - beta."""
    n = A.n
    terms = {(_unit(n, i),) * 2: Fraction(a) for i, a in enumerate(A.entries)}
    terms[(0,) * n, (0,) * n] = -Fraction(beta)
    return WeylOperator(n, terms)


def box_operator(A: CurveMatrix, u) -> WeylOperator:
    """d^{u_+} - d^{u_-} for a kernel vector u of A."""
    if len(u) != A.n:
        raise DimensionMismatchError(f"vector of length {len(u)} for {A.n} variables")
    u = tuple(int(x) for x in u)
    if sum(a * x for a, x in zip(A.entries, u)):
        raise NotInKernelError(f"{u} is not in ker_Z{A.entries}")
    if not any(u):
        return WeylOperator.zero(A.n)
    z = (0,) * A.n
    return WeylOperator(A.n, {(z, tuple(max(x, 0) for x in u)): 1,
                              (z, tuple(max(-x, 0) for x in u)): -1})


def toric_generators(A: CurveMatrix) -> list[WeylOperator]:
    """Generators d_1^{a_i} - d_i (i = 2..n) of the toric ideal of a smooth matrix."""
    if not A.is_smooth:
        raise NotSmoothError(f"{A.entries} is not smooth")
    n = A.n
    return [box_operator(A, [A.entries[i]] + [-1 if j == i else 0 for j in range(1, n)])
            for i in range(1, n)]
