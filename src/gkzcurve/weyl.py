"""The exact action of Weyl operators on formal series, and the
annihilation check of a series against the operators of a curve system.

The operators themselves (the ring, Euler, box and toric operators) are in
operators.py.
"""

from __future__ import annotations

import contextlib
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
from .operators import WeylOperator, euler_operator, toric_generators


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
            raise CurveError(f"offset coordinate {clip(c)} is outside the kernel's "
                             f"range [-2^61, 2^61]")
        key = key << _WIDTH | c + _BIAS
    return key


_FIELDS: dict[int, tuple] = {}     # nvars -> (its struct, every field's top bit, bytes)


def _fields(nvars: int) -> tuple:
    # field i, u_i + 2^63, is u_i's two's complement with its top bit flipped
    out = _FIELDS.get(nvars)
    if out is None:
        out = _FIELDS[nvars] = (struct.Struct(f"<{nvars}q"),
                                int.from_bytes(b"\0\0\0\0\0\0\0\x80" * nvars, "little"),
                                8 * nvars)
    return out


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    layout, flips, size = _fields(nvars)
    return layout.unpack((key ^ flips).to_bytes(size, "little"))


class _Certainty(dict):
    """packed offset -> None where the series certifies its coefficient, else
    the offset's coordinates; filled on demand, so each offset is classified by
    the series' descriptor at most once.  Stored offsets are certified.

    On a lattice support an offset's coordinates and level (the descriptor's
    level) are the same for every series of the lattice: levels keeps them, so
    each offset is unpacked and decomposed once per basis, and the descriptor's
    certifies_at decides per series."""

    def __init__(self, S: _series.FormalSeries, keys, levels: dict):
        super().__init__(dict.fromkeys(keys))
        self.series = S
        self.levels = (levels.setdefault(S.descriptor.basis, {})
                       if type(S.descriptor) is _series.LatticeGammaSupport else None)

    def __missing__(self, key: int):
        S = self.series
        if self.levels is None:
            offset = _unpack(key, S.nvars)
            certified = S.certifies(offset)
        else:
            known = self.levels.get(key)
            if known is None:
                offset = _unpack(key, S.nvars)
                known = self.levels[key] = offset, S.descriptor.level(offset)
            offset, level = known
            certified = S.descriptor.certifies_at(offset, level, S.truncation)
        out = self[key] = None if certified else offset
        return out


# Inside _basis_tables() every kernel reads one falling-factor table per (q, g),
# one packed shift per monomial key (a, g) and one level per offset of a lattice
# (_Certainty), which depend on nothing else, so the members of a basis form
# each entry once; outside, a kernel holds its own.
_shared = None


@contextlib.contextmanager
def _basis_tables():
    global _shared
    outer = _shared
    _shared = outer or ({}, {}, {})
    try:
        yield
    finally:
        _shared = outer


class _SeriesKernel:
    """Integer-scaled view of one series, shared by every operator
    applied to it.

    With the base exponent p_i/q_i per coordinate, the falling factor of the
    exponent at offset u is

        (p_i/q_i + u_i)_g = prod_{j<g} (z_i - q_i j) / q_i^g,   z_i = p_i + q_i u_i,

    an integer over q_i^g, and the stored coefficients are integers over one
    common denominator; so an operator image accumulates integers over one
    denominator per operator.  The kernel holds each stored offset packed (see
    _pack) and by its z-coordinates, in which the falling-factor tables are
    keyed."""

    def __init__(self, S: _series.FormalSeries):
        self.tables, self.shifts, levels = _shared or ({}, {}, {})
        self.num = tuple(b.numerator for b in S.base)
        self.den = tuple(b.denominator for b in S.base)
        self.scale = math.lcm(*(c.denominator for c in S.terms.values()))
        # _pack's range check on the least and the largest value of each
        # coordinate, then one struct pack per offset
        columns = list(zip(*S.terms))
        for bound in (min, max):
            _pack(list(map(bound, columns)))
        layout, flips, _ = _fields(S.nvars)
        keys = [int.from_bytes(layout.pack(*u), "little") ^ flips for u in S.terms]
        columns = [column if q == 1 and not p else [p + q * u for u in column]
                   for p, q, column in zip(self.num, self.den, columns)]
        self.terms = [(key, z, c.numerator * (self.scale // c.denominator))
                      for key, z, c in zip(keys, zip(*columns), S.terms.values())]
        self.known = _Certainty(S, keys, levels)
        self.by_coordinate = {}     # integer i -> (the terms sorted by z_i, their z_i)
        for i, q in enumerate(self.den):
            if q == 1:
                ordered = sorted(self.terms, key=lambda t: t[1][i])
                self.by_coordinate[i] = ordered, [t[1][i] for t in ordered]
        self.monomials: dict = {}
        self.formed = 0             # falling-factor products, over all monomials
        self._zero = _pack((0,) * S.nvars)

    def table(self, i: int, g: int) -> _series._FallingFactors:
        """The shared falling-factor table of (q_i, g), created when absent."""
        key = self.den[i], g
        out = self.tables.get(key)
        if out is None:
            out = self.tables[key] = _series._FallingFactors(*key)
        return out

    def monomial(self, key):
        """(shift, q^g, vanishing, image) of the monomial key = (a, g), memoized
        whichever operators hold it.  image maps each offset where a stored
        term lands with a nonzero falling factor to the integer product.  A
        factor vanishes exactly where p_i/q_i is an integer and 0 <= z_i < g_i,
        that is -p_i <= u_i < g_i - p_i: vanishing holds these ranges, and the
        scan skips the largest such slice of the terms sorted by z_i."""
        a, g = key
        scan, skipped, slots, vanishing, qg = self.terms, 0, [], [], 1
        for i, gi in enumerate(g):
            if gi:
                slots.append((i, self.table(i, gi)))
                qg *= self.den[i] ** gi
            if gi and i in self.by_coordinate:
                vanishing.append((i, -self.num[i], gi - self.num[i]))
                ordered, coords = self.by_coordinate[i]
                lo, hi = bisect_left(coords, 0), bisect_left(coords, gi)
                if hi - lo > skipped:
                    scan, skipped = ordered[:lo] + ordered[hi:], hi - lo
        shift = self.shifts.get(key)
        if shift is None:
            shift = self.shifts[key] = _pack([ai - gi for ai, gi in zip(a, g)]) - self._zero
        image = {}
        for w, z, f in scan:
            for i, table in slots:
                f *= table[z[i]]
                if not f:
                    break
            else:
                image[w + shift] = f
        self.formed += len(scan)
        out = self.monomials[key] = shift, qg, vanishing, image
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

    def missed_exact(self, key: int, vanishing) -> bool:
        """Whether a monomial that did not land at an offset leaves the image
        exact there: its contributor, the packed key, is certified or has a
        zero falling factor (see monomial).  The one exactness rule of the
        kernel."""
        contrib = self.known[key]
        if contrib is None:
            return True
        for i, lo, hi in vanishing:
            if lo <= contrib[i] < hi:
                return True
        return False

    def inexact(self, keys, plan) -> set:
        """The packed offsets among keys where the image of plan is not exact:
        some monomial missed them (one that landed has a stored contributor)
        and missed_exact says no."""
        exact = self.missed_exact
        return {w for shift, _, vanishing, image in plan
                for w in keys - image.keys() if not exact(w - shift, vanishing)}

    def binomial(self, P: WeylOperator):
        """A two-term P's row in one pass over its two monomial images:
        (largest |numerator|, trusted_terms, certified, denominator), as image
        and inexact give them, over the offsets where the image of P is exact."""
        self.check(P)
        (k1, c1), (k2, c2) = P.terms.items()
        shift1, q1, vanishing1, image1 = self.monomials.get(k1) or self.monomial(k1)
        shift2, q2, vanishing2, image2 = self.monomials.get(k2) or self.monomial(k2)
        s1, s2 = c1.denominator * q1, c2.denominator * q2
        lcm = math.lcm(s1, s2)
        mult1, mult2 = c1.numerator * (lcm // s1), c2.numerator * (lcm // s2)
        exact = self.missed_exact
        hi = lo = trusted = certified = 0      # hi, lo: the extreme exact numerators
        for w, f in image1.items():
            g = image2.get(w)
            if g is not None:
                n = f * mult1 + g * mult2
            elif exact(w - shift2, vanishing2):
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
            if w not in image1 and exact(w - shift1, vanishing1):
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
        return not kernel.inexact({_pack([int(x) for x in offset])}, plan)
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
    zero = worst = Fraction(0)
    for idx, (name, op) in enumerate(generators):
        if len(op.terms) == 2:
            top, trusted, certified, den = kernel.binomial(op)
        else:
            sums, den, plan = kernel.image(op)
            inexact = kernel.inexact(sums.keys(), plan)
            tops = [abs(n) for w, n in sums.items() if n and w not in inexact]
            top, trusted, certified = max(tops, default=0), len(tops), len(sums) - len(inexact)
        violation = Fraction(top, den) if top else zero
        if top and violation > worst:
            worst = violation
        rows.append(GeneratorViolation(name, violation, trusted, certified))
        for key in op.terms:
            if last[key] == idx:
                del kernel.monomials[key]
    return AnnihilationReport(worst, tuple(rows))


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
    # ball of radius - c spanned by the rows after k.  Each u(m) is a nonzero
    # vector of L_A, so it needs none of box_operator's checks.
    for k in range(len(rows) - 1, -1, -1):
        for c in range(1, ball_radius + 1):
            for m, u in lattice_points(LatticeBasis(A, rows[k + 1:]), ball_radius - c):
                u = [c * a + b for a, b in zip(rows[k], u)]
                out.append((f"box{[0] * k + [c, *m]}", WeylOperator.box(A.n, u)))
    return out
