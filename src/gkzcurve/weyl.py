"""Sparse Weyl-algebra operators and their exact action on formal series.

Operators are finite sums of c * x^a * d^g in normal order (all x's left of all
d's), with exact rational coefficients.  Equality is structural: two operators
are equal exactly when their normal-form term maps coincide.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curves import (
    CurveMatrix,
    DimensionMismatchError,
    NotInKernelError,
    CurveError,
    lattice_ball,
    lattice_basis,
)
from .records import record
from .series import FormalSeries, WindowSupport


class NotSmoothError(CurveError):
    """Operation defined only for smooth matrices."""


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
        if terms:
            for (a, g), c in terms.items():
                c = Fraction(c)
                if c != 0:
                    key = (tuple(a), tuple(g))
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
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.monomial(nvars, e, (0,) * nvars)

    @classmethod
    def d(cls, nvars: int, i: int) -> "WeylOperator":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.monomial(nvars, (0,) * nvars, e)

    @classmethod
    def theta(cls, nvars: int, i: int) -> "WeylOperator":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.monomial(nvars, e, e)

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
        if isinstance(other, (int, Fraction)):
            other = WeylOperator.constant(self.nvars, other)
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
                base = c1 * c2
                # iterate over the per-variable contraction orders k_i
                ranges = [range(min(g, b) + 1) for g, b in zip(g1, a2)]

                def rec(i, coeff, kvec):
                    if i == self.nvars:
                        xe = tuple(x + y - k for x, y, k in zip(a1, a2, kvec))
                        de = tuple(x + y - k for x, y, k in zip(g1, g2, kvec))
                        key = (xe, de)
                        out[key] = out.get(key, Fraction(0)) + coeff
                        return
                    for k in ranges[i]:
                        rec(i + 1,
                            coeff * math.comb(g1[i], k) * math.perm(a2[i], k),
                            kvec + [k])

                rec(0, base, [])
        return WeylOperator(self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        out = WeylOperator.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, WeylOperator)
                and self.nvars == other.nvars and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def order_bound(self) -> int:
        """max |a|_1 + |g|_1 over the terms; 0 for the zero operator."""
        return max((sum(a) + sum(g) for a, g in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, g), c in sorted(self.terms.items()):
            bits = [] if c == 1 and (any(a) or any(g)) else [str(c)]
            bits += [f"x{i+1}" + (f"^{e}" if e > 1 else "")
                     for i, e in enumerate(a) if e]
            bits += [f"d{i+1}" + (f"^{e}" if e > 1 else "")
                     for i, e in enumerate(g) if e]
            parts.append(" ".join(bits))
        return " + ".join(parts)


def euler_operator(A: CurveMatrix, beta) -> WeylOperator:
    """E(beta) = sum_i a_i x_i d_i - beta.  On a monomial x^w it acts by the
    scalar A.w - beta."""
    n = A.n
    terms = {}
    for i, a in enumerate(A.entries):
        e = tuple(1 if j == i else 0 for j in range(n))
        terms[(e, e)] = Fraction(a)
    z = (0,) * n
    terms[(z, z)] = -Fraction(beta)
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
    plus = tuple(x if x > 0 else 0 for x in u)
    minus = tuple(-x if x < 0 else 0 for x in u)
    z = (0,) * A.n
    return WeylOperator(A.n, {(z, plus): 1, (z, minus): -1})


def toric_generators(A: CurveMatrix) -> list[WeylOperator]:
    """Generators d_1^{a_i} - d_i (i = 2..n) of the toric ideal of a smooth matrix."""
    if not A.is_smooth:
        raise NotSmoothError(f"{A.entries} is not smooth")
    n = A.n
    out = []
    for i in range(1, n):
        u = [0] * n
        u[0] = A.entries[i]
        u[i] = -1
        out.append(box_operator(A, u))
    return out


def initial_form(P: WeylOperator, omega) -> WeylOperator:
    """Sub-sum of the terms of maximal (-omega, omega)-weight omega.(g - a)."""
    if P.is_zero():
        return P
    omega = [Fraction(w) for w in omega]

    def wt(key):
        a, g = key
        return sum(w * (gi - ai) for w, ai, gi in zip(omega, a, g))

    top = max(wt(k) for k in P.terms)
    return WeylOperator(P.nvars, {k: c for k, c in P.terms.items() if wt(k) == top})


# ---------------------------------------------------------------------------
# Action on series


@record
class TrustedSeries:
    """A formal series together with the level up to which its stored
    coefficients exhaust the support exactly."""

    series: FormalSeries
    trusted_level: int

    @classmethod
    def from_series(cls, series: FormalSeries) -> "TrustedSeries":
        return cls(series, series.truncation)

    @property
    def nvars(self) -> int:
        return self.series.nvars

    def coefficient_known(self, offset):
        return self.series.coefficient_known(offset, self.trusted_level)


class _FallingFactors(dict):
    """t -> prod_{j<g} (p + q t - q j), i.e. q^g (p/q + t)_g, filled on demand."""

    def __init__(self, p: int, q: int, g: int):
        super().__init__()
        self.p, self.q, self.g = p, q, g

    def __missing__(self, t: int) -> int:
        z = self.p + self.q * t
        f = self[t] = math.prod(range(z, z - self.q * self.g, -self.q))
        return f


# A kernel keys every offset by one int: coordinate i sits in bits
# [64 i, 64 i + 64) as u_i + 2^63.  Packing is linear, so an operator term's
# shift is one integer addition and a window contributor one subtraction.
# Stored offsets, operator shifts and queried offsets are checked against
# +-OFFSET_LIMIT; every offset the kernel derives from them (an image offset,
# then its contributors) has coordinates of size at most 3 * OFFSET_LIMIT < 2^63,
# so it still fits its field.
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

    def __init__(self, S: TrustedSeries, keys):
        super().__init__(dict.fromkeys(keys))
        self.series, self.level = S.series, S.trusted_level

    def __missing__(self, key: int):
        offset = _unpack(key, self.series.nvars)
        out = self[key] = None if self.series.certifies(offset, self.level) else offset
        return out


class _Window(dict):
    """packed offset -> whether an operator image is exact there, filled on
    demand.

    That holds when every operator term's unique contributor offset is
    certified by the series, or the term's falling factor vanishes on it.
    Called with any integer sequence, it is the image's trust predicate."""

    def __init__(self, known: _Certainty, plan):
        super().__init__()
        self.known, self.plan = known, plan

    def __missing__(self, key: int) -> bool:
        known = self.known
        ok = True
        for shift, _, slots in self.plan:
            contrib = known[key - shift]
            if contrib is not None and all(table[contrib[i]] for i, table in slots):
                ok = False
                break
        self[key] = ok
        return ok

    def __call__(self, offset) -> bool:
        return self[_pack([int(x) for x in offset])]


class _SeriesKernel:
    """Integer-scaled view of one trusted series, shared by every operator
    applied to it.

    With the base exponent p_i/q_i per coordinate, the falling factor of the
    exponent at offset u is

        (p_i/q_i + u_i)_g = prod_{j<g} (p_i + q_i u_i - q_i j) / q_i^g,

    an integer over q_i^g, and the stored coefficients are integers over one
    common denominator; so an operator image accumulates integers over one
    denominator per operator.  Offsets are packed ints (see _pack); the integer
    falling factors and the certainty of each offset are memoized per series,
    whatever the operators.
    """

    def __init__(self, S: TrustedSeries):
        src = S.series
        self.nvars = src.nvars
        self.num = tuple(b.numerator for b in src.base)
        self.den = tuple(b.denominator for b in src.base)
        self.scale = math.lcm(*(c.denominator for c in src.terms.values()))
        self.terms = [(_pack(u), u, c.numerator * (self.scale // c.denominator))
                      for u, c in src.terms.items()]
        self.known = _Certainty(S, (key for key, _, _ in self.terms))
        self._falling: dict[tuple[int, int], _FallingFactors] = {}
        self._zero = _pack((0,) * self.nvars)

    def falling(self, i: int, g: int) -> _FallingFactors:
        table = self._falling.get((i, g))
        if table is None:
            table = self._falling[(i, g)] = _FallingFactors(self.num[i], self.den[i], g)
        return table

    def image(self, P: WeylOperator):
        """P applied to the series: (sums, denominator, window).

        sums maps every packed offset that received a nonzero contribution to
        the integer numerator of its coefficient over denominator (zero where
        the contributions cancel); the coefficient is exact where window holds.
        """
        if P.nvars != self.nvars:
            raise DimensionMismatchError(
                f"operator on {P.nvars} variables against {self.nvars}-variable series")
        scales = [c.denominator * math.prod(q ** gi for q, gi in zip(self.den, g))
                  for (_, g), c in P.terms.items()]
        lcm = math.lcm(*scales)
        plan = []
        for ((a, g), c), s in zip(P.terms.items(), scales):
            slots = tuple((i, self.falling(i, gi)) for i, gi in enumerate(g) if gi)
            shift = _pack([ai - gi for ai, gi in zip(a, g)]) - self._zero
            plan.append((shift, c.numerator * (lcm // s), slots))

        sums: dict[int, int] = {}
        for key, u, n in self.terms:
            for shift, mult, slots in plan:
                f = 1
                for i, table in slots:
                    f *= table[u[i]]
                    if not f:
                        break
                if f:
                    w = key + shift
                    sums[w] = sums.get(w, 0) + n * mult * f
        return sums, self.scale * lcm, _Window(self.known, plan)


def _trusted(S) -> TrustedSeries:
    return TrustedSeries.from_series(S) if isinstance(S, FormalSeries) else S


def apply(P: WeylOperator, S) -> TrustedSeries:
    """Exact term-by-term action of an operator on a (trusted) series.

    x^a d^g sends the coefficient c at exponent e to c * (e)_g at e - g + a,
    with fractional entries of e handled exactly.  An output offset is kept
    only when every operator term's unique contributor offset is certified by
    the input (stored, provably outside the support, or killed by a zero
    falling factorial); everything else is dropped, so all stored output
    coefficients are exact values of P applied to the full series.
    """
    S = _trusted(S)
    sums, den, window = _SeriesKernel(S).image(P)
    src = S.series
    kept = {_unpack(w, src.nvars): Fraction(n, den)
            for w, n in sums.items() if n and window[w]}
    out = FormalSeries(src.base, kept, src.truncation, WindowSupport(window))
    return TrustedSeries(out, max(-1, S.trusted_level - P.order_bound()))


@record(frozen=True)
class GeneratorViolation:
    """One generator applied to a series: the largest certified coefficient of
    the image (violation), how many certified coefficients are nonzero
    (trusted_terms), and at how many certified offsets some contribution
    landed (certified; 0 means the window held no evidence at all)."""

    name: str
    violation: Fraction
    trusted_terms: int
    certified: int


@record(frozen=True)
class AnnihilationReport:
    max_violation: Fraction
    per_generator: tuple[GeneratorViolation, ...]

    @property
    def annihilated(self) -> bool:
        return self.max_violation == 0


def annihilation_report(generators, S) -> AnnihilationReport:
    """Apply each generator and report the largest coefficient surviving on the
    trusted window; 0 means annihilation is verified there.

    generators: iterable of WeylOperator or (name, WeylOperator) pairs.  All of
    them run against one integer-scaled kernel of the series.
    """
    kernel = _SeriesKernel(_trusted(S))
    rows = []
    worst = Fraction(0)
    for idx, gen in enumerate(generators):
        if isinstance(gen, tuple):
            name, op = gen
        else:
            name, op = f"generator[{idx}]", gen
        sums, den, window = kernel.image(op)
        count = nonzero = top = 0
        for w, n in sums.items():
            if window[w]:
                count += 1
                if n:
                    nonzero += 1
                    top = max(top, abs(n))
        violation = Fraction(top, den)
        rows.append(GeneratorViolation(name, violation, nonzero, count))
        worst = max(worst, violation)
    return AnnihilationReport(worst, tuple(rows))


def named_generators(A: CurveMatrix, beta, ball_radius: int = 3):
    """The checking set for the hypergeometric system: Euler, the named toric
    generators (smooth matrices), and all box operators of kernel vectors with
    coordinate level sum |m_i| <= ball_radius.

    Box operators come in +/- pairs carrying the same information; only the
    representative whose first nonzero coordinate is positive is kept.
    """
    out = [("euler", euler_operator(A, beta))]
    if A.is_smooth:
        for i, op in enumerate(toric_generators(A), start=2):
            out.append((f"toric[{i}]", op))
    basis = lattice_basis(A)
    seen = set()
    for m, u in lattice_ball(basis, ball_radius):
        first = next(x for x in m if x)
        if first < 0:
            continue
        if u in seen:
            continue
        seen.add(u)
        out.append((f"box{list(m)}", box_operator(A, u)))
    return out


def series_match_on_window(result: TrustedSeries, reference: FormalSeries) -> bool:
    """Coefficientwise equality of an operator-application result against a
    complete reference series, restricted to the result's certified window."""
    for off, c in result.series.terms.items():
        ref = reference.coefficient_known(off)
        if ref is None or ref != c:
            return False
    for off, c in reference.terms.items():
        mine = result.coefficient_known(off)
        if mine is not None and mine != c:
            return False
    return True
