"""Sparse Weyl-algebra operators and their exact action on formal series.

Operators are finite sums of c * x^a * d^g in normal order (all x's left of all
d's), with exact rational coefficients.  Equality is structural: two operators
are equal exactly when their normal-form term maps coincide.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

# lazily loaded: only apply builds a series, so printing operators does not
# compile series.py
from . import series as _series
from .curves import (
    CurveMatrix,
    DimensionMismatchError,
    NotInKernelError,
    CurveError,
    LatticeBasis,
    clip,
    lattice_basis,
    lattice_points,
)
from .records import record


class NotSmoothError(CurveError):
    """Operation defined only for smooth matrices."""


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


# ---------------------------------------------------------------------------
# Action on series


# A kernel keys every offset by one int: coordinate i sits in bits
# [64 i, 64 i + 64) as u_i + 2^63.  Packing is linear, so a monomial's shift is
# one integer addition and a window contributor one subtraction.  Stored
# offsets, shifts and queried offsets are checked against +-OFFSET_LIMIT; every
# offset derived from them has coordinates below 3 * OFFSET_LIMIT < 2^63.
OFFSET_LIMIT = 1 << 61
_WIDTH = 64
_BIAS = 1 << 63
_MASK = (1 << _WIDTH) - 1


def _pack(offset) -> int:
    key = 0
    for c in reversed(offset):
        if not -OFFSET_LIMIT <= c <= OFFSET_LIMIT:
            raise CurveError(f"offset coordinate {c} is outside the kernel's "
                             f"range [-2^61, 2^61]")
        key = key << _WIDTH | c + _BIAS
    return key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_WIDTH * i) & _MASK) - _BIAS for i in range(nvars))


class _Certainty(dict):
    """packed offset -> None where the series certifies its coefficient, else
    the offset's coordinates; filled on demand, so each offset is classified by
    the series' descriptor at most once.  Stored offsets are certified."""

    def __init__(self, S: _series.FormalSeries, keys):
        super().__init__(dict.fromkeys(keys))
        self.series = S

    def __missing__(self, key: int):
        offset = _unpack(key, self.series.nvars)
        out = self[key] = None if self.series.certifies(offset) else offset
        return out


class _SeriesKernel:
    """Integer-scaled view of one series, shared by every operator
    applied to it.

    With the base exponent p_i/q_i per coordinate, the falling factor of the
    exponent at offset u is

        (p_i/q_i + u_i)_g = prod_{j<g} (p_i + q_i u_i - q_i j) / q_i^g,

    an integer over q_i^g, and the stored coefficients are integers over one
    common denominator; so an operator image accumulates integers over one
    denominator per operator.  Offsets are packed ints (see _pack)."""

    def __init__(self, S: _series.FormalSeries):
        self.num = tuple(b.numerator for b in S.base)
        self.den = tuple(b.denominator for b in S.base)
        self.scale = math.lcm(*(c.denominator for c in S.terms.values()))
        self.terms = [(_pack(u), u, c.numerator * (self.scale // c.denominator))
                      for u, c in S.terms.items()]
        self.known = _Certainty(S, (key for key, _, _ in self.terms))
        self.by_coordinate = {}     # i -> (the terms sorted by u_i, their u_i)
        for i, q in enumerate(self.den):
            if q == 1:
                ordered = sorted(self.terms, key=lambda t: t[1][i])
                self.by_coordinate[i] = ordered, [t[1][i] for t in ordered]
        self.falling: dict[tuple[int, int], _series._FallingFactors] = {}
        self.monomials: dict = {}
        self.formed = 0             # falling-factor products, over all monomials
        self._zero = _pack((0,) * S.nvars)

    def monomial(self, key):
        """(shift, q^g, slots, image) of the monomial key = (a, g), memoized
        whichever operators hold it.  image maps each offset where a stored
        term lands with a nonzero falling factor to the integer product.  Where
        p_i/q_i is an integer the factor vanishes exactly for
        -p_i <= u_i < g_i - p_i, and the scan skips that slice of the terms
        sorted by u_i."""
        a, g = key
        scan, skipped, slots = self.terms, 0, []
        for i, gi in enumerate(g):
            if gi:
                if (i, gi) not in self.falling:
                    self.falling[i, gi] = _series._FallingFactors(self.num[i], self.den[i], gi)
                slots.append((i, self.falling[i, gi]))
            if gi and i in self.by_coordinate:
                ordered, coords = self.by_coordinate[i]
                lo = bisect_left(coords, -self.num[i])
                hi = bisect_left(coords, gi - self.num[i])
                if hi - lo > skipped:
                    scan, skipped = ordered[:lo] + ordered[hi:], hi - lo
        shift = _pack([ai - gi for ai, gi in zip(a, g)]) - self._zero
        image = {}
        for w, u, f in scan:
            for i, table in slots:
                f *= table[u[i]]
                if not f:
                    break
            else:
                image[w + shift] = f
        self.formed += len(scan)
        out = self.monomials[key] = (
            shift, math.prod(q ** gi for q, gi in zip(self.den, g)), slots, image)
        return out

    def image(self, P: WeylOperator):
        """P applied to the series: (sums, denominator, plan).

        sums maps every packed offset that received a nonzero contribution to
        the integer numerator of its coefficient over denominator (zero where
        the contributions cancel); plan holds P's monomials, in term order."""
        if P.nvars != len(self.num):
            raise DimensionMismatchError(
                f"operator on {P.nvars} variables against {len(self.num)}-variable series")
        plan = [self.monomials.get(key) or self.monomial(key) for key in P.terms]
        scales = [c.denominator * m[1] for m, c in zip(plan, P.terms.values())]
        lcm = math.lcm(*scales)
        sums: dict[int, int] = {}
        for (_, _, _, image), c, s in zip(plan, P.terms.values(), scales):
            mult = c.numerator * (lcm // s)
            get = sums.get
            for w, f in image.items():
                sums[w] = get(w, 0) + f * mult
        return sums, self.scale * lcm, plan

    def inexact(self, keys, plan) -> set:
        """The packed offsets among keys where the image of plan is not exact: a
        monomial that did not land there has an uncertain contributor with a
        nonzero falling factor (one that landed has a stored contributor)."""
        known, out = self.known, set()
        for shift, _, slots, image in plan:
            for w in keys - image.keys():
                contrib = known[w - shift]
                if contrib is not None:
                    for i, table in slots:
                        if not table[contrib[i]]:
                            break
                    else:
                        out.add(w)
        return out


def apply(P: WeylOperator, S: _series.FormalSeries) -> _series.FormalSeries:
    """Exact term-by-term action of an operator on a series.

    x^a d^g sends the coefficient c at exponent e to c * (e)_g at e - g + a,
    with fractional entries of e handled exactly.  An output offset is kept
    only when every operator term's unique contributor offset is certified by
    the input (stored, provably outside the support, or killed by a zero
    falling factorial); everything else is dropped, so all stored output
    coefficients are exact values of P applied to the full series."""
    kernel = _SeriesKernel(S)
    sums, den, plan = kernel.image(P)
    inexact = kernel.inexact(sums.keys(), plan)
    # the offsets in the order term-by-term action lands on them
    landed = dict.fromkeys(key + shift for key, _, _ in kernel.terms
                           for shift, _, _, image in plan if key + shift in image)
    kept = {_unpack(w, S.nvars): Fraction(sums[w], den)
            for w in landed if sums[w] and w not in inexact}

    def exact(offset) -> bool:          # the same rule at any offset
        key = _pack([int(x) for x in offset])
        return key not in (inexact if key in sums else kernel.inexact({key}, plan))
    return _series.FormalSeries(S.base, kept, S.truncation, _series.WindowSupport(exact))


@record
class GeneratorViolation:
    """One generator applied to a series: the largest certified coefficient of
    the image (violation), how many certified coefficients are nonzero
    (trusted_terms), and at how many certified offsets some contribution
    landed (certified; 0 means the window held no evidence at all)."""

    name: str
    violation: Fraction
    trusted_terms: int
    certified: int


@record
class AnnihilationReport:
    max_violation: Fraction
    per_generator: tuple[GeneratorViolation, ...]

    @property
    def annihilated(self) -> bool:
        return self.max_violation == 0


def annihilation_report(generators, S: _series.FormalSeries) -> AnnihilationReport:
    """Apply each generator and report the largest coefficient surviving on the
    trusted window; 0 means annihilation is verified there.

    generators: iterable of WeylOperator or (name, WeylOperator) pairs.  All of
    them run against one integer-scaled kernel of the series."""
    kernel = _SeriesKernel(S)
    generators = [gen if isinstance(gen, tuple) else (f"generator[{idx}]", gen)
                  for idx, gen in enumerate(generators)]
    # a monomial's image is dropped after the last generator that holds it
    last = {key: idx for idx, (_, op) in enumerate(generators) for key in op.terms}
    rows = []
    zero = Fraction(0)
    for idx, (name, op) in enumerate(generators):
        sums, den, plan = kernel.image(op)
        inexact = kernel.inexact(sums.keys(), plan)
        tops = [abs(n) for w, n in sums.items() if n and w not in inexact]
        violation = Fraction(max(tops), den) if tops else zero
        rows.append(GeneratorViolation(name, violation, len(tops),
                                       len(sums) - len(inexact)))
        for key in op.terms:
            if last[key] == idx:
                del kernel.monomials[key]
    return AnnihilationReport(max((r.violation for r in rows), default=zero), tuple(rows))


# Largest checking set built, counted before any operator is made: (1,...,6)
# has 115 box operators at radius 3 and 6 536 at radius 8, ~0.9 kB each.
BOX_OPERATOR_CAP = 10_000


def named_generators(A: CurveMatrix, beta, ball_radius: int = 3):
    """The checking set for the hypergeometric system: Euler, the named toric
    generators (smooth matrices), and all box operators of kernel vectors with
    coordinate level sum |m_i| <= ball_radius.

    Box operators come in +/- pairs carrying the same information; only the
    representative whose first nonzero coordinate is positive is built.  There
    are sum_k 2^(k-1) C(rank, k) C(ball_radius, k) of them, and more than
    BOX_OPERATOR_CAP raise CurveError."""
    rows = lattice_basis(A).rows
    count = sum(2 ** (k - 1) * math.comb(len(rows), k) * math.comb(max(ball_radius, 0), k)
                for k in range(1, len(rows) + 1))
    if count > BOX_OPERATOR_CAP:
        raise CurveError(f"ball radius {clip(ball_radius)} gives {clip(count)} "
                         f"box operators, more than the cap of {BOX_OPERATOR_CAP}")
    out = [("euler", euler_operator(A, beta))]
    if A.is_smooth:
        for i, op in enumerate(toric_generators(A), start=2):
            out.append((f"toric[{i}]", op))
    # m = (0, ..., 0, c, tail) with c > 0 in lexicographic order: the later its
    # first nonzero coordinate k, the earlier m comes; the tail runs over the
    # ball of radius - c spanned by the rows after k
    for k in range(len(rows) - 1, -1, -1):
        for c in range(1, ball_radius + 1):
            for m, u in lattice_points(LatticeBasis(A, rows[k + 1:]), ball_radius - c):
                u = tuple(c * a + b for a, b in zip(rows[k], u))
                out.append((f"box{[0] * k + [c, *m]}", box_operator(A, u)))
    return out
