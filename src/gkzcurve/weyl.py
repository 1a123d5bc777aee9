"""The exact action of Weyl operators on formal series, and the
annihilation check of a series against the operators of a curve system.

The operators themselves (the ring, Euler, box and toric operators) are in
operators.py.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from fractions import Fraction

# lazily loaded: its names are read at call time
from . import series as _series
from .core import (
    CurveError,
    CurveMatrix,
    DimensionMismatchError,
    clip,
    record,
)
from .curves import LatticeBasis, lattice_basis, lattice_points
from .operators import WeylOperator, box_operator, euler_operator, toric_generators


# A kernel keys every offset by one int: coordinate i sits in bits
# [64 i, 64 i + 64) as u_i + 2^63.  Packing is linear, so a monomial's shift is
# one integer addition and a window contributor one subtraction.  Stored
# offsets, shifts and queried offsets are checked against +-OFFSET_LIMIT; every
# offset derived from them has coordinates below 3 * OFFSET_LIMIT < 2^63.
OFFSET_LIMIT = 1 << 61
_WIDTH = 64
_BIAS = 1 << 63


def _pack(offset) -> int:
    key = 0
    for c in reversed(offset):
        if not -OFFSET_LIMIT <= c <= OFFSET_LIMIT:
            raise CurveError(f"offset coordinate {c} is outside the kernel's "
                             f"range [-2^61, 2^61]")
        key = key << _WIDTH | c + _BIAS
    return key


_FIELDS: dict[int, tuple] = {}     # nvars -> (its struct unpack, every field's top bit, bytes)


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    # field i, u_i + 2^63, is u_i's two's complement with its top bit flipped
    fields = _FIELDS.get(nvars)
    if fields is None:
        fields = _FIELDS[nvars] = (struct.Struct(f"<{nvars}q").unpack,
                                   int.from_bytes(b"\0\0\0\0\0\0\0\x80" * nvars, "little"),
                                   8 * nvars)
    unpack, flips, size = fields
    return unpack((key ^ flips).to_bytes(size, "little"))


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


# Largest g whose falling-factor table a kernel builds from the table of g - 1
# when it holds none.  It bounds the recursion and the tables held: a box
# operator of (1, 1000) at radius 3 asks for g = 1000, 2000 and 3000 alone,
# which are filled directly.  The verify windows ask for g up to 24.
_CHAIN_LIMIT = 32


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
        # i -> the distinct stored u_i, where each table of coordinate i is filled
        self.values = [set(column) for column in zip(*S.terms)] or [()] * S.nvars
        self.by_coordinate = {}     # i -> (the terms sorted by u_i, their u_i)
        for i, q in enumerate(self.den):
            if q == 1:
                ordered = sorted(self.terms, key=lambda t: t[1][i])
                self.by_coordinate[i] = ordered, [t[1][i] for t in ordered]
        self.falling: dict[tuple[int, int], _series._FallingFactors] = {}
        self.monomials: dict = {}
        self.formed = 0             # falling-factor products, over all monomials
        self._zero = _pack((0,) * S.nvars)

    def table(self, i: int, g: int) -> _series._FallingFactors:
        """The falling-factor table of (i, g), memoized: filled at the stored
        values of u_i from the table of (i, g - 1), one multiply per entry.
        Up to g = _CHAIN_LIMIT that table is built first, the same way; past
        it, a table the kernel does not hold is filled directly."""
        out = self.falling.get((i, g))
        if out is None:
            below = (self.table(i, g - 1) if 1 < g <= _CHAIN_LIMIT
                     else self.falling.get((i, g - 1)))
            out = self.falling[i, g] = _series._FallingFactors(
                self.num[i], self.den[i], g, self.values[i], below)
        return out

    def monomial(self, key):
        """(shift, q^g, slots, image) of the monomial key = (a, g), memoized
        whichever operators hold it.  image maps each offset where a stored
        term lands with a nonzero falling factor to the integer product.  Where
        p_i/q_i is an integer the factor vanishes exactly for
        -p_i <= u_i < g_i - p_i, and the scan skips that slice of the terms
        sorted by u_i.  The falling-factor tables come from table."""
        a, g = key
        scan, skipped, slots = self.terms, 0, []
        for i, gi in enumerate(g):
            if gi:
                slots.append((i, self.table(i, gi)))
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

    def check(self, P: WeylOperator):
        if P.nvars != len(self.num):
            raise DimensionMismatchError(
                f"operator on {P.nvars} variables against {len(self.num)}-variable series")

    def image(self, P: WeylOperator):
        """P applied to the series: (sums, denominator, plan).

        sums maps every packed offset that received a nonzero contribution to
        the integer numerator of its coefficient over denominator (zero where
        the contributions cancel); plan holds P's monomials, in term order."""
        self.check(P)
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

    def missed_exact(self, key: int, slots) -> bool:
        """Whether a monomial that did not land at an offset leaves the image
        exact there: its contributor, the packed key, is certified or has a
        zero falling factor.  The one exactness rule of the kernel."""
        contrib = self.known[key]
        if contrib is None:
            return True
        for i, table in slots:
            if not table[contrib[i]]:
                return True
        return False

    def inexact(self, keys, plan) -> set:
        """The packed offsets among keys where the image of plan is not exact:
        some monomial missed them (one that landed has a stored contributor)
        and missed_exact says no."""
        exact = self.missed_exact
        return {w for shift, _, slots, image in plan
                for w in keys - image.keys() if not exact(w - shift, slots)}

    def binomial(self, P: WeylOperator):
        """A two-term P's row in one pass over its two monomial images:
        (largest |numerator|, trusted_terms, certified, denominator), as image
        and inexact give them, over the offsets where the image of P is exact."""
        self.check(P)
        (k1, c1), (k2, c2) = P.terms.items()
        shift1, q1, slots1, image1 = self.monomials.get(k1) or self.monomial(k1)
        shift2, q2, slots2, image2 = self.monomials.get(k2) or self.monomial(k2)
        s1, s2 = c1.denominator * q1, c2.denominator * q2
        lcm = math.lcm(s1, s2)
        mult1, mult2 = c1.numerator * (lcm // s1), c2.numerator * (lcm // s2)
        exact = self.missed_exact
        hi = lo = trusted = certified = 0      # hi, lo: the extreme exact numerators
        for w, f in image1.items():
            g = image2.get(w)
            if g is not None:
                n = f * mult1 + g * mult2
            elif exact(w - shift2, slots2):
                n = f * mult1
            else:
                continue
            certified += 1
            if n:
                trusted += 1
                if n > hi:
                    hi = n
                elif n < lo:
                    lo = n
        # a monomial image holds nonzero products only, so a lone one is nonzero
        for w, g in image2.items():
            if w not in image1 and exact(w - shift1, slots1):
                certified += 1
                trusted += 1
                n = g * mult2
                if n > hi:
                    hi = n
                elif n < lo:
                    lo = n
        return max(hi, -lo), trusted, certified, self.scale * lcm


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
        if len(op.terms) == 2:
            top, trusted, certified, den = kernel.binomial(op)
        else:
            sums, den, plan = kernel.image(op)
            inexact = kernel.inexact(sums.keys(), plan)
            tops = [abs(n) for w, n in sums.items() if n and w not in inexact]
            top, trusted, certified = max(tops, default=0), len(tops), len(sums) - len(inexact)
        rows.append(GeneratorViolation(name, Fraction(top, den) if top else zero,
                                       trusted, certified))
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
