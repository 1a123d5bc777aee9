"""Gamma-series of a curve matrix: construction, supports and substitutions.

A formal series here is x^v * sum_u c_u x^u with a rational base exponent v,
integer offsets u, and exact rational coefficients.  Coefficients of the
Gamma-series come from the falling-factorial ratio

    Gamma[v; u] = (v)_{u_-} / ((v + u)_{u_+}),   (z)_a = prod_i prod_{j<a_i} (z_i - j),

which is declared 0 unless u preserves the negative support of v.  Truncation
is by the enumeration level sum |m_i| of the kernel coordinates of u, and every
series carries a support descriptor so that an operator application can decide,
offset by offset, whether all contributions were inside the stored window.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basis import exponent_base, generic_exponent_base
from .core import (
    CurveError,
    CurveMatrix,
    DimensionMismatchError,
    check_size,
    make_curve,
    read_rational,
    record,
)
from .curves import (
    LatticeBasis,
    lattice_basis,
    lattice_decompose,
    lattice_points,
    semigroup_member,
)


class BetaNotNaturalError(CurveError):
    """The construction needs a natural-number parameter."""


class WrongAuxiliaryShapeError(CurveError):
    """Series/matrix pair does not match the auxiliary (1, a_1, ..., a_n) setup."""


class TermLimitError(CurveError):
    """A construction exceeded the configured term budget."""


class ContiguityError(CurveError):
    """Formal division by a derivative hit a zero falling factorial."""


UNKNOWN = object()   # sentinel for "outside the certifiable window"


# ---------------------------------------------------------------------------
# Support descriptors
#
# classify(offset) returns
#   - an int: the enumeration level of a potential support point (it is stored
#     whenever its level is <= the truncation level),
#   - None: provably outside the support, exact coefficient 0,
#   - UNKNOWN: nothing can be certified about this offset.


class LatticeGammaSupport:
    """Support of a Gamma-series: offsets in L_A whose Gamma[v; u] survives."""

    def __init__(self, basis: LatticeBasis, base):
        self.basis = basis
        self.base = tuple(Fraction(x) for x in base)
        self._bounds = tuple((i, lo, hi) for i, (lo, hi)
                             in _support_bounds(self.base).items())

    def classify(self, offset):
        """The negative-support guard of Gamma[v; u] in integers: the bounds
        gamma_series enumerates with (_support_bounds).  The Fraction form of
        the guard is gamma_coefficient in tests/oracles.py."""
        m = lattice_decompose(self.basis, offset)
        if m is None:
            return None
        for i, lo, hi in self._bounds:
            if lo is not None and offset[i] < lo or hi is not None and offset[i] > hi:
                return None
        return sum(map(abs, m))

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

    def classify(self, offset):
        return self.parent.classify((self.x0_offset,) + tuple(offset))

    def json_fields(self) -> dict:
        return {
            "descriptor": "x0_section",
            "aux_matrix": list(self.parent.basis.matrix.entries),
            "aux_base": [str(x) for x in self.parent.base],
        }


class FiniteSupport:
    """A complete finite series: everything not stored is exactly 0."""

    def classify(self, offset):
        return None

    def json_fields(self) -> dict:
        return {"descriptor": "finite"}


class WindowSupport:
    """Trust decided by an explicit predicate (the output of an operator
    application).  Certified offsets that were not stored are exactly 0;
    everything outside the predicate is unknown."""

    def __init__(self, predicate):
        self.predicate = predicate

    def classify(self, offset):
        return None if self.predicate(offset) else UNKNOWN

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
        level = self.descriptor.classify(offset)
        if level is None:
            return True
        if level is UNKNOWN:
            return False
        return level <= self.truncation

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


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise CurveError(f"{what} is a {type(x).__name__}, not a list")
    return x


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise CurveError(f"{what} {x!r} is not an integer")
    return x


def _json_rational(x, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise CurveError(f"{what} {repr(x)[:40]} is not an integer or a rational string")
    if isinstance(x, int):
        return Fraction(x)
    try:
        return read_rational(x)
    except ValueError:
        raise CurveError(f"{what} {x[:40]!r} is not a rational string p or p/q") from None
    except ZeroDivisionError:
        raise CurveError(f"{what} {x[:40]!r} is not a rational number") from None
    except OverflowError as exc:
        raise CurveError(f"{what} {x[:40]!r} has {exc}") from None


def series_from_json(data: dict, matrix: CurveMatrix | None = None) -> FormalSeries:
    """Rebuild a series from its JSON form; lattice descriptors need the matrix,
    and a series of any descriptor read against a matrix must have its length.

    Raises CurveError when a required key (of the series or of a term) is
    missing or holds a value of the wrong kind: exponents and coefficients are
    integers or rational strings, offsets lists of integers as long as the base
    exponent, the truncation an integer.  An x0_section series must carry the
    aux_matrix (1, a_1, ..., a_n) of the matrix and an aux_base whose entries
    after the first are the base exponent."""
    if not isinstance(data, dict):
        raise CurveError("series JSON is not an object")
    for key in ("base_exponent", "terms", "truncation"):
        if key not in data:
            raise CurveError(f"series JSON lacks {key!r}")
    base = tuple(_json_rational(x, "base_exponent entry")
                 for x in _json_list(data["base_exponent"], "base_exponent"))
    truncation = _json_int(data["truncation"], "truncation")
    terms = {}
    for t in _json_list(data["terms"], "terms"):
        if not isinstance(t, dict) or "offset" not in t or "coeff" not in t:
            raise CurveError(f"series term {t!r} lacks 'offset' or 'coeff'")
        offset = tuple(_json_int(x, "offset entry")
                       for x in _json_list(t["offset"], "offset"))
        if len(offset) != len(base):
            raise CurveError(f"offset {list(offset)} has length {len(offset)}, "
                             f"base_exponent has {len(base)}")
        terms[offset] = _json_rational(t["coeff"], "coeff")
    kind = data.get("descriptor", "finite")
    if matrix is not None and len(base) != matrix.n:
        raise CurveError(f"{kind} series of {matrix.n} variables needs a "
                         f"base_exponent of length {matrix.n}, not {len(base)}")
    if kind == "lattice":
        if matrix is None:
            raise CurveError("lattice descriptor needs the curve matrix")
        descriptor = LatticeGammaSupport(lattice_basis(matrix), base)
    elif kind == "x0_section":
        for key in ("aux_matrix", "aux_base"):
            if key not in data:
                raise CurveError(f"x0_section series JSON lacks {key!r}")
        aux = make_curve(_json_int(x, "aux_matrix entry")
                         for x in _json_list(data["aux_matrix"], "aux_matrix"))
        aux_base = tuple(_json_rational(x, "aux_base entry")
                         for x in _json_list(data["aux_base"], "aux_base"))
        if len(aux_base) != aux.n or len(base) != aux.n - 1:
            raise CurveError(f"x0_section of {aux.n} auxiliary variables needs an "
                             f"aux_base of length {aux.n} and a base_exponent of "
                             f"length {aux.n - 1}")
        # the descriptor classifies with aux_matrix and aux_base, the kernel
        # computes with base_exponent: they must describe one series
        if matrix is not None and aux.entries != (1,) + matrix.entries:
            raise CurveError("x0_section aux_matrix is not (1, a_1, ..., a_n) of the "
                             "matrix the series is read against")
        if aux_base[1:] != base:
            raise CurveError("x0_section aux_base without its first entry differs "
                             "from base_exponent")
        descriptor = SectionSupport(LatticeGammaSupport(lattice_basis(aux), aux_base))
    elif kind == "finite":
        descriptor = FiniteSupport()
    elif kind == "window":
        # the original trust predicate is not serializable; fall back to the
        # stored offsets, which stay exact (re-verification windows shrink)
        stored = frozenset(terms)
        descriptor = WindowSupport(lambda off, _s=stored: tuple(off) in _s)
    else:
        raise CurveError(f"cannot rebuild a series with descriptor {kind!r}")
    # validated above: taken as they are, only the zero coefficients dropped
    return FormalSeries._built(base, {off: c for off, c in terms.items() if c},
                               truncation, descriptor)


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
    """t -> prod_{j<g} (p + q t - q j), i.e. q^g (p/q + t)_g: filled at the
    given values of t, or from the table of g - 1 by one multiply per entry
    where it is given, and on demand at any other t."""

    def __init__(self, p: int, q: int, g: int, values=(), below=None):
        if below is None:
            super().__init__({t: math.prod(range(p + q * t, p + q * t - q * g, -q))
                              for t in values})
        else:
            step = p - q * (g - 1)
            super().__init__({t: f * (step + q * t) for t, f in below.items()})
        self.p, self.q, self.g = p, q, g

    def __missing__(self, t: int) -> int:
        z = self.p + self.q * t
        f = self[t] = math.prod(range(z, z - self.q * self.g, -self.q))
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
    substitute_x0(gamma_series(A.auxiliary(), aux_base, level), A).series, and
    max_terms bounds the stored section terms.  The section is empty when v_0
    is a negative integer (the guard then asks u_0 <= -1 - v_0).
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


def exponent_series(A: CurveMatrix, beta, j: int, level: int,
                    max_terms: int | None = None) -> FormalSeries:
    """Gamma-series at the singular exponent v^j, for smooth A."""
    if not A.is_smooth:
        raise WrongAuxiliaryShapeError("direct exponent series needs a smooth matrix")
    return gamma_series(A, exponent_base(A, beta, j), level, max_terms=max_terms)


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


def witness_series(A: CurveMatrix, beta, level: int,
                   max_terms: int | None = None) -> FormalSeries:
    """The Gamma-series at the shifted exponent (beta + a_{n-1}, 0, ..., -1, 0).

    Its base exponent does not have minimal negative support, so it is not a
    solution: the toric generator d_1^{a_{n-1}} - d_{n-1} sends it to the finite
    meromorphic series witness_defect of tests/oracles.py, while the Euler operator
    and the other toric generators annihilate it.
    """
    if not A.is_smooth:
        raise WrongAuxiliaryShapeError("witness series needs a smooth matrix")
    base = witness_base(A, beta)
    series = gamma_series(A, base, level, max_terms=max_terms)
    if series.terms.get((0,) * A.n) != 1:
        raise CurveError(f"witness series at level {level} lacks its base term 1")
    return series


# ---------------------------------------------------------------------------
# x_0 = 0 substitution and contiguity


@record
class SubstitutionResult:
    series: FormalSeries
    dropped: int                   # parent terms with nonzero x_0-exponent
    certified_zero: bool           # empty and provably so (beta in N \ NA)


def _is_polynomial_family_member(aux: CurveMatrix, base, beta) -> bool:
    """Whether the base is a singular/generic exponent of the auxiliary matrix
    whose Gamma-series terminates (the distinguished coordinate is a natural
    number, so the falling factors eventually vanish)."""
    n = aux.n
    j0 = base[0]
    if j0.denominator != 1 or j0 < 0:
        return False
    j = int(j0)
    if j < aux.entries[n - 2] and base == exponent_base(aux, beta, j):
        theta = base[n - 2]
        return theta.denominator == 1 and theta >= 0
    if j < aux.entries[n - 1] and base == generic_exponent_base(aux, beta, j):
        theta = base[n - 1]
        return theta.denominator == 1 and theta >= 0
    return False


def substitute_x0(parent: FormalSeries, A: CurveMatrix) -> SubstitutionResult:
    """Set x_0 = 0 in a series built for the auxiliary matrix (1, a_1, ..., a_n).

    Keeps exactly the terms whose x_0-exponent is 0 and reindexes them over the
    remaining n variables.  The result is a formal solution for A whenever the
    parent solved the auxiliary system.  An empty result is certified to be the
    zero series only when the parent is known to be a polynomial divisible by
    x_0, which happens exactly when beta is a natural number outside the
    semigroup of A; an empty window alone proves nothing.  section_series
    builds the same section without the rest of the parent.
    """
    if not isinstance(parent.descriptor, LatticeGammaSupport):
        raise WrongAuxiliaryShapeError("substitution needs a lattice Gamma-series")
    aux = parent.descriptor.basis.matrix
    if aux.entries != (1,) + A.entries:
        raise WrongAuxiliaryShapeError(
            f"parent matrix {aux.entries} is not the auxiliary matrix of {A.entries}")
    if parent.base[0].denominator != 1:
        raise WrongAuxiliaryShapeError("parent base must have integer x_0 exponent")
    new_base = parent.base[1:]
    kept, dropped = {}, 0
    for off, c in parent.terms.items():
        if parent.base[0] + off[0] == 0:
            kept[off[1:]] = c
        else:
            dropped += 1
    series = FormalSeries(new_base, kept, parent.truncation,
                          SectionSupport(parent.descriptor))
    beta = aux.weight(parent.base)
    certified = (not kept) and beta.denominator == 1 and beta >= 0 \
        and not semigroup_member(A, int(beta)) \
        and _is_polynomial_family_member(aux, parent.base, beta)
    return SubstitutionResult(series, dropped, certified)


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
    # (v_i + t)_{w_i} = F_i[t] / q_i^{w_i} with v_i = p_i/q_i
    slots = [(i, _FallingFactors(b.numerator, b.denominator, wi))
             for i, (b, wi) in enumerate(zip(S.base, w)) if wi]
    scale = math.prod(b.denominator ** wi for b, wi in zip(S.base, w))
    terms = {}
    for u, c in S.terms.items():
        target = tuple(ui + wi for ui, wi in zip(u, w))
        factor = math.prod(table[target[i]] for i, table in slots)
        if factor == 0:
            raise ContiguityError(f"zero falling factorial at offset {u}")
        terms[target] = c * scale / factor

    def trusted_at(offset):
        offset = tuple(int(x) for x in offset)
        shifted = tuple(o - wi for o, wi in zip(offset, w))
        if S.coefficient_known(shifted) is None:
            return False
        return all(table[offset[i]] for i, table in slots)

    # int offsets and nonzero Fractions (c != 0, factor != 0): taken as they are
    return FormalSeries._built(S.base, terms, S.truncation, WindowSupport(trusted_at))
