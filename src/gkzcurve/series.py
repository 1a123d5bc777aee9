"""Gamma-series of a curve matrix: construction, supports, sections and contiguity.

A formal series here is x^v * sum_u c_u x^u with a rational base exponent v,
integer offsets u, and exact rational coefficients.  Coefficients of the
Gamma-series come from the falling-factorial ratio

    Gamma[v; u] = (v)_{u_-} / ((v + u)_{u_+}),   (z)_a = prod_i prod_{j<a_i} (z_i - j),

which is declared 0 unless u preserves the negative support of v.  Truncation
is by the enumeration level sum |m_i| of the kernel coordinates of u, and every
series carries a support descriptor so that an operator application can decide,
offset by offset, whether all contributions were inside the stored window.
The JSON reader and the whole-series entry points of the tests are in
series_io.py, which solve and verify without --input do not compile.
"""

from __future__ import annotations

import math
from fractions import Fraction

# lazily loaded: read only by __getattr__ below
from . import series_io as _series_io
from .core import CurveError, CurveMatrix, DimensionMismatchError, check_size
from .curves import LatticeBasis, lattice_basis, lattice_decompose, lattice_points


class BetaNotNaturalError(CurveError):
    """The construction needs a natural-number parameter."""


class WrongAuxiliaryShapeError(CurveError):
    """Series/matrix pair does not match the auxiliary (1, a_1, ..., a_n) setup."""


class TermLimitError(CurveError):
    """A construction exceeded the configured term budget."""


class ContiguityError(CurveError):
    """Formal division by a derivative hit a zero falling factorial."""


# ---------------------------------------------------------------------------
# Support descriptors
#
# certifies(offset, truncation) says whether the coefficient at an offset that
# is not stored is certified to be exactly 0: the offset is provably outside
# the support, or a support point whose enumeration level is <= truncation.


class LatticeGammaSupport:
    """Support of a Gamma-series: offsets in L_A whose Gamma[v; u] survives."""

    def __init__(self, basis: LatticeBasis, base):
        self.basis = basis
        self.base = tuple(Fraction(x) for x in base)
        self._bounds = tuple((i, lo, hi) for i, (lo, hi)
                             in _support_bounds(self.base).items())

    def level(self, offset):
        """sum |m_i| over the kernel coordinates of the offset, or None off
        L_A: the part of certifies that depends on the lattice alone."""
        m = lattice_decompose(self.basis, offset)
        return None if m is None else sum(map(abs, m))

    def certifies_at(self, offset, level, truncation: int) -> bool:
        """certifies at an offset whose level is known.  The negative-support
        guard of Gamma[v; u] in integers: the bounds gamma_series enumerates
        with (_support_bounds).  The Fraction form of the guard is
        gamma_coefficient in tests/oracles.py."""
        if level is None or level <= truncation:
            return True
        for i, lo, hi in self._bounds:
            if lo is not None and offset[i] < lo or hi is not None and offset[i] > hi:
                return True
        return False

    def certifies(self, offset, truncation: int) -> bool:
        return self.certifies_at(offset, self.level(offset), truncation)

    def json_fields(self) -> dict:
        return {"descriptor": "lattice"}


class SectionSupport:
    """Support of the x_0 = 0 section of an auxiliary-curve Gamma-series.

    An offset d of the section corresponds to the parent offset
    (-j, d_1, ..., d_n) where j is the integer x_0-exponent of the parent base.
    """

    def __init__(self, parent: LatticeGammaSupport):
        self.parent = parent
        j = parent.base[0]
        if j.denominator != 1:
            raise WrongAuxiliaryShapeError("parent base must have integer x_0 exponent")
        self.x0_offset = -int(j)

    def certifies(self, offset, truncation: int) -> bool:
        return self.parent.certifies((self.x0_offset,) + tuple(offset), truncation)

    def json_fields(self) -> dict:
        return {
            "descriptor": "x0_section",
            "aux_matrix": list(self.parent.basis.matrix.entries),
            "aux_base": [str(x) for x in self.parent.base],
        }


class FiniteSupport:
    """A complete finite series: everything not stored is exactly 0."""

    def certifies(self, offset, truncation: int) -> bool:
        return True

    def json_fields(self) -> dict:
        return {"descriptor": "finite"}


class WindowSupport:
    """Trust decided by an explicit predicate (the output of an operator
    application).  Certified offsets that were not stored are exactly 0;
    nothing outside the predicate is certified, whatever the truncation."""

    def __init__(self, predicate):
        self.predicate = predicate

    def certifies(self, offset, truncation: int) -> bool:
        return self.predicate(offset)

    def json_fields(self) -> dict:
        return {"descriptor": "window"}


class FormalSeries:
    """x^base * sum of coeff * x^offset with sparse exact terms.

    terms maps integer offset tuples to nonzero Fractions.  truncation is the
    enumeration level up to which the support was exhausted; the descriptor
    knows how to place any offset relative to that enumeration.
    """

    __slots__ = ("base", "terms", "truncation", "descriptor")

    def __init__(self, base, terms, truncation, descriptor):
        self.base = tuple(Fraction(x) for x in base)
        self.terms = {tuple(int(c) for c in off): Fraction(v)
                      for off, v in terms.items() if v != 0}
        self.truncation = truncation
        self.descriptor = descriptor

    @classmethod
    def _built(cls, base, terms, truncation, descriptor) -> "FormalSeries":
        """A series from a build that already holds a Fraction base, integer
        offset tuples and nonzero Fraction coefficients: taken as they are."""
        self = object.__new__(cls)
        self.base, self.terms = base, terms
        self.truncation, self.descriptor = truncation, descriptor
        return self

    @property
    def nvars(self) -> int:
        return len(self.base)

    def is_zero(self) -> bool:
        return not self.terms

    def exponent(self, offset) -> tuple[Fraction, ...]:
        return tuple(b + o for b, o in zip(self.base, offset))

    def absolute_terms(self) -> dict[tuple[Fraction, ...], Fraction]:
        return {self.exponent(off): c for off, c in self.terms.items()}

    def coefficient_known(self, offset):
        """Exact coefficient at the offset, or None when it cannot be certified.

        Stored values are always exact, and offsets the descriptor places
        outside the support or at a level <= the truncation are exactly 0.
        """
        offset = tuple(int(c) for c in offset)
        if offset in self.terms:
            return self.terms[offset]
        return Fraction(0) if self.certifies(offset) else None

    def certifies(self, offset: tuple[int, ...]) -> bool:
        """Whether the descriptor proves the coefficient at an offset that is
        not stored to be exactly 0."""
        return self.descriptor.certifies(offset, self.truncation)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, FormalSeries)
                and self.base == other.base and self.terms == other.terms)

    def __repr__(self):
        shown = ", ".join(f"{off}: {c}" for off, c in list(self.sorted_terms())[:4])
        more = "" if len(self.terms) <= 4 else f", ... ({len(self.terms)} terms)"
        return f"FormalSeries(base={self.base}, {{{shown}{more}}})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "base_exponent": [str(x) for x in self.base],
            "terms": [{"offset": list(off), "coeff": str(c)}
                      for off, c in self.sorted_terms()],
            "truncation": self.truncation,
        }
        out.update(self.descriptor.json_fields())
        return out


# ---------------------------------------------------------------------------
# Gamma-series construction


def _support_bounds(v) -> dict[int, tuple[int | None, int | None]]:
    """The negative-support guard of Gamma[v; u] (gamma_coefficient in
    tests/oracles.py) as bounds on the offset: v_i + u_i >= 0 where v_i is a
    natural number, v_i + u_i <= -1 where v_i is a negative integer;
    non-integer coordinates leave u_i free."""
    bounds = {}
    for i, z in enumerate(v):
        if z.denominator == 1:
            bounds[i] = (-int(z), None) if z >= 0 else (None, -1 - int(z))
    return bounds


class _GammaFactor:
    """One coordinate of Gamma[v; u] as an integer pair (numerator, denominator):
    with v_i = p/q, t >= 0 gives q^t / prod_{k=1..t} (p + k q) and t < 0 gives
    prod_{k<-t} (p - k q) / q^{-t}.

    Filled on demand by the one-step ratios g(t+1) = g(t) q / (p + (t+1) q) and
    g(t-1) = g(t) (p + t q) / q.  The support bounds keep every factor nonzero.
    """

    def __init__(self, z):
        self.p, self.q = z.numerator, z.denominator
        self.up = [(1, 1)]       # g(0), g(1), g(2), ...
        self.down = [(1, 1)]     # g(0), g(-1), g(-2), ...

    def __call__(self, t: int) -> tuple[int, int]:
        p, q = self.p, self.q
        table, i = (self.up, t) if t >= 0 else (self.down, -t)
        while len(table) <= i:
            num, den = table[-1]
            check_size(num, den)
            k = len(table)
            table.append((num * q, den * (p + k * q)) if t >= 0
                         else (num * (p - (k - 1) * q), den * q))
        return table[i]


class _FallingFactors(dict):
    """z -> prod_{j<g} (z - q j), i.e. q^g (z/q)_g, or q^g (p/q + t)_g at
    z = p + q t, each entry formed when first read."""

    def __init__(self, q: int, g: int):
        self.q, self.g = q, g

    def __missing__(self, z: int) -> int:
        f = self[z] = math.prod(range(z, z - self.q * self.g, -self.q))
        return f


def _gamma_terms(basis: LatticeBasis, base, level: int, bounds, max_terms, drop: int):
    """{u[drop:]: Gamma[base; u]} over the lattice points of level <= level
    inside bounds, in enumeration order: the term loop of every build.

    Each coefficient is a product of integer factor pairs, so the loop builds
    exactly one Fraction per stored term, and none past the size cap.  Along a
    last-level line only the coordinates of the last kernel row move, so the
    product over the others is formed once per line."""
    factors = [_GammaFactor(z) for z in base]
    moving = [(j, factors[j]) for j, x in enumerate(basis.rows[-1]) if x]
    fixed = [(j, g) for j, g in enumerate(factors) if not basis.rows[-1][j]]
    terms, line = {}, None
    for m, u in lattice_points(basis, level, bounds):
        if m[:-1] != line:
            line, line_num, line_den = m[:-1], 1, 1
            for j, g in fixed:
                if u[j]:
                    a, b = g(u[j])
                    line_num, line_den = line_num * a, line_den * b
        num, den = line_num, line_den
        for j, g in moving:
            if u[j]:
                a, b = g(u[j])
                num, den = num * a, den * b
        check_size(num, den)
        terms[u[drop:]] = Fraction(num, den)
        if max_terms is not None and len(terms) > max_terms:
            raise TermLimitError(f"more than {max_terms} stored terms")
    return terms


def gamma_series(A: CurveMatrix, base, level: int,
                 max_terms: int | None = None) -> FormalSeries:
    """The Gamma-series x^v sum_{u in L_A} Gamma[v; u] x^u truncated at the
    enumeration level sum |m_i| <= level of the kernel coordinates.

    The coefficient of x^v is 1 (the offset-0 term).  Only offsets inside the
    negative-support guard of Gamma[v; u] are enumerated, and each of them
    has a nonzero coefficient, so max_terms bounds the enumeration work too.
    """
    basis = lattice_basis(A)
    base = tuple(Fraction(x) for x in base)
    if len(base) != A.n:
        raise DimensionMismatchError(f"base of length {len(base)} for {A.n} variables")
    terms = _gamma_terms(basis, base, level, _support_bounds(base), max_terms, 0)
    return FormalSeries._built(base, terms, level, LatticeGammaSupport(basis, base))


def section_series(A: CurveMatrix, aux_base, level: int,
                   max_terms: int | None = None) -> FormalSeries:
    """The x_0 = 0 section of gamma_series(A.auxiliary(), aux_base, level),
    built without the rest of the auxiliary series.

    The kept parent offsets are those with u_0 = -v_0, one more support bound
    for lattice_points; each is stored under u[1:].  Truncation still counts
    the auxiliary kernel coordinates, so the result equals
    series_io.substitute_x0(gamma_series(A.auxiliary(), aux_base, level),
    A).series, and max_terms bounds the stored section terms.  The section is
    empty when v_0 is a negative integer (the guard then asks u_0 <= -1 - v_0).
    """
    aux = A.auxiliary()
    basis = lattice_basis(aux)
    base = tuple(Fraction(x) for x in aux_base)
    if len(base) != aux.n:
        raise DimensionMismatchError(
            f"auxiliary base of length {len(base)} for {aux.n} variables")
    descriptor = SectionSupport(LatticeGammaSupport(basis, base))
    x0 = descriptor.x0_offset
    terms = {}
    if x0 <= 0:
        bounds = _support_bounds(base)
        bounds[0] = (x0, x0)
        terms = _gamma_terms(basis, base, level, bounds, max_terms, 1)
    return FormalSeries._built(base[1:], terms, level, descriptor)


def witness_base(A: CurveMatrix, beta) -> tuple[Fraction, ...]:
    """(beta + a_{n-1}) e_1 - e_{n-1}: the shifted exponent whose Gamma-series
    witnesses the irregularity when beta is a natural number."""
    beta = Fraction(beta)
    if beta.denominator != 1 or beta < 0:
        raise BetaNotNaturalError(f"beta={beta} is not a natural number")
    n = A.n
    if n < 3:
        raise WrongAuxiliaryShapeError("witness series needs at least 3 variables")
    v = [Fraction(0)] * n
    v[0] = beta + A.entries[n - 2]
    v[n - 2] = Fraction(-1)
    return tuple(v)


# ---------------------------------------------------------------------------
# Contiguity


def inverse_contiguity(S: FormalSeries, w) -> FormalSeries:
    """Divide termwise by d^w: the unique preimage with support shifted by +w.

    The preimage coefficient at offset u + w is c_u / (v + u + w)_w; raises
    ContiguityError when a falling factorial vanishes (choose a different w).
    A solution for beta pulls back to a solution for beta + A.w, exactly on the
    Euler side and window-verified on the toric side.
    """
    w = tuple(int(x) for x in w)
    if len(w) != S.nvars or any(x < 0 for x in w):
        raise DimensionMismatchError(f"bad derivative multi-index {w}")
    # (v_i + t)_{w_i} = F_i[p_i + q_i t] / q_i^{w_i} with v_i = p_i/q_i
    slots = [(i, b.numerator, b.denominator, _FallingFactors(b.denominator, wi))
             for i, (b, wi) in enumerate(zip(S.base, w)) if wi]
    scale = math.prod(b.denominator ** wi for b, wi in zip(S.base, w))
    terms = {}
    for u, c in S.terms.items():
        target = tuple(ui + wi for ui, wi in zip(u, w))
        factor = math.prod(table[p + q * target[i]] for i, p, q, table in slots)
        if factor == 0:
            raise ContiguityError(f"zero falling factorial at offset {u}")
        terms[target] = c * scale / factor

    def trusted_at(offset):
        offset = tuple(int(x) for x in offset)
        shifted = tuple(o - wi for o, wi in zip(offset, w))
        if S.coefficient_known(shifted) is None:
            return False
        return all(table[p + q * offset[i]] for i, p, q, table in slots)

    # int offsets and nonzero Fractions (c != 0, factor != 0): taken as they are
    return FormalSeries._built(S.base, terms, S.truncation, WindowSupport(trusted_at))


# Names that perfbench/tracer.py still reads under this module; each is served
# from its home, so a command that never reads one does not compile it.
_FORWARDED = ("series_from_json", "exponent_series", "witness_series", "substitute_x0")


def __getattr__(name):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_series_io, name)
