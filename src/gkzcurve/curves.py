"""Monomial-curve matrices, their integer kernels and numerical-semigroup arithmetic.

A curve matrix is a single row A = (a_1 ... a_n) of strictly increasing positive
integers.  Everything downstream (series supports, toric operators, parameter
classification) is driven by the integer kernel L_A = ker_Z(A) and by the
numerical semigroup N*a_1 + ... + N*a_n.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction

from .records import record

# solve writes rationals as str(Fraction): "p" or "p/q", and the CLI's rational
# flags take the same.  Fraction itself would also parse decimals and
# exponents, and "1e999999999" builds a billion-digit integer before anything
# can check it.  The series build and the Gevrey streams stop at 3 * DIGIT_CAP
# bits, fewer than DIGIT_CAP digits, so whatever solve prints reads back.
RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
DIGIT_CAP = 50_000      # int() reads 50 000 digits in ~21 ms, 10^6 in ~7 s


def read_integer(text: str) -> int:
    """int(text); OverflowError past DIGIT_CAP digits, before any is read."""
    if len(text) - text.startswith("-") > DIGIT_CAP:
        raise OverflowError(f"more than {DIGIT_CAP} digits")
    return int(text)


def read_rational(text: str) -> Fraction:
    """p or p/q (RATIONAL_TEXT): ValueError for other text, OverflowError past
    DIGIT_CAP digits, ZeroDivisionError for q = 0."""
    match = RATIONAL_TEXT.fullmatch(text)
    if not match:
        raise ValueError("not p or p/q")
    p, q = read_integer(match[1]), read_integer(match[2] or "1")
    if not q:
        raise ZeroDivisionError("zero denominator")
    return Fraction(p, q)


def clip(value) -> str:
    """str(value)[:40] for an error line.  An int, or each part of a Fraction,
    is cut to its leading digits before it is formatted, since str() of an int
    past CPython's 4 300-digit limit raises ValueError outside cli.main."""
    if isinstance(value, Fraction):
        head = clip(value.numerator)
        if value.denominator == 1 or len(head) == 40:
            return head
        return (head + "/" + clip(value.denominator))[:40]
    if not isinstance(value, int):
        return str(value)[:40]
    # |value| // 10^k keeps more than 40 of its leading digits, as
    # (bits - 1) * log10(2) - k > 39
    k = (abs(value).bit_length() - 1) * 30102 // 100_000 - 40
    if k <= 0:
        return str(value)[:40]
    return (("-" if value < 0 else "") + str(abs(value) // 10 ** k))[:40]


def check_size(num: int, den: int) -> None:
    """CurveError before a build table or stream grows past 3 * DIGIT_CAP bits."""
    if num.bit_length() > 3 * DIGIT_CAP or den.bit_length() > 3 * DIGIT_CAP:
        raise CurveError(f"an integer passes the size cap of {3 * DIGIT_CAP} bits")


class CurveError(Exception):
    """Base class for domain errors raised by this package."""


class TooShortError(CurveError):
    """Fewer than two entries."""


class NotIncreasingError(CurveError):
    """Entries not positive or not strictly increasing."""


class GcdNotOneError(CurveError):
    """Entries of a non-smooth matrix must have gcd 1."""


class NotInKernelError(CurveError):
    """A vector expected in ker_Z(A) is not."""


class DimensionMismatchError(CurveError):
    """Vector or operator length does not match the number of variables."""


class CurveKind(Enum):
    SMOOTH = "smooth"
    GENERAL = "general"


@record
class CurveMatrix:
    """Row matrix A = (a_1 ... a_n), 0 < a_1 < ... < a_n, n >= 2.

    Smooth kind means a_1 = 1 (the curve t -> (t, t^{a_2}, ...) is smooth);
    general kind means a_1 > 1, in which case gcd(a_1, ..., a_n) = 1 is required.
    """

    entries: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def kind(self) -> CurveKind:
        return CurveKind.SMOOTH if self.entries[0] == 1 else CurveKind.GENERAL

    @property
    def is_smooth(self) -> bool:
        return self.entries[0] == 1

    def weight(self, vector) -> Fraction:
        """The product A.v of the row with a rational vector of length n."""
        if len(vector) != self.n:
            raise DimensionMismatchError(
                f"vector of length {len(vector)} against {self.n} variables"
            )
        return sum((Fraction(a) * Fraction(x) for a, x in zip(self.entries, vector)),
                   Fraction(0))

    def auxiliary(self) -> "CurveMatrix":
        """The matrix A' = (1, a_1, ..., a_n) used to reduce a general curve to a
        smooth one by one extra variable x_0."""
        if self.is_smooth:
            raise CurveError("auxiliary matrix is only defined for general kind")
        return CurveMatrix((1,) + self.entries)

    def __str__(self) -> str:
        return "(" + " ".join(str(a) for a in self.entries) + ")"


def make_curve(entries) -> CurveMatrix:
    """Validate a list of integers as a curve matrix.

    Raises TooShortError (n < 2), NotIncreasingError, or GcdNotOneError
    (general kind with gcd > 1).
    """
    entries = list(entries)
    if any(a != int(a) for a in entries):
        raise NotIncreasingError(f"entries must be integers: {entries}")
    tup = tuple(int(a) for a in entries)
    if len(tup) < 2:
        raise TooShortError(f"need at least 2 entries, got {len(tup)}")
    if tup[0] < 1 or any(b <= a for a, b in zip(tup, tup[1:])):
        raise NotIncreasingError(f"entries must be positive and strictly increasing: {tup}")
    if tup[0] > 1 and math.gcd(*tup) != 1:
        raise GcdNotOneError(f"gcd{tup} = {math.gcd(*tup)} != 1")
    return CurveMatrix(tup)


# ---------------------------------------------------------------------------
# Integer kernel


@record
class LatticeBasis:
    """A Z-basis (u^2, ..., u^n) of L_A = ker_Z(A), one row per index i = 2..n.

    For smooth matrices the rows have the fixed shape
        u^i     = -a_i e_1 + e_i          (i = 2..n-2 and i = n)
        u^{n-1} = a_{n-1} e_1 - e_{n-1}
    Both kinds are lower triangular: row k (0-based) has a nonzero entry in
    slot k+1 and zeros beyond it, so coordinates come from back-substitution.
    """

    matrix: CurveMatrix
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def combine(self, m) -> tuple[int, ...]:
        """u(m) = sum_i m_i u^i for integer coordinates m of length n-1."""
        if len(m) != self.rank:
            raise DimensionMismatchError(f"{len(m)} coordinates for rank {self.rank}")
        return tuple(sum(c * row[j] for c, row in zip(m, self.rows))
                     for j in range(self.matrix.n))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def lattice_basis(A: CurveMatrix) -> LatticeBasis:
    """A Z-basis of ker_Z(A).

    Smooth matrices get the fixed curve-shaped rows; general matrices fall back
    to a gcd-chain construction (row k kills the running gcd of a_1..a_{k-1}
    against a_k), which is a Z-basis for any gcd-1 row.
    """
    n = A.n
    a = A.entries
    rows: list[tuple[int, ...]] = []
    if A.is_smooth:
        for i in range(2, n + 1):           # 1-based variable index
            row = [0] * n
            if i == n - 1:
                row[0] = a[n - 2]
                row[n - 2] = -1
            else:
                row[0] = -a[i - 1]
                row[i - 1] = 1
            rows.append(tuple(row))
    else:
        coeffs = [1]                        # running solution of sum c_j a_j = g
        g = a[0]
        for k in range(1, n):
            x, y, g_new = _xgcd(g, a[k])
            row = [a[k] // g_new * c for c in coeffs] + [0] * (n - k)
            row[k] = -(g // g_new)
            rows.append(tuple(row))
            coeffs = [x * c for c in coeffs] + [y]
            g = g_new
    for k, row in enumerate(rows):
        if A.weight(row) != 0 or row[k + 1] == 0 or any(row[k + 2:]):
            raise CurveError(f"kernel row {k} = {row} is not a lower-triangular "
                             f"element of L_A")
    return LatticeBasis(A, tuple(rows))


def lattice_decompose(basis: LatticeBasis, u) -> tuple[int, ...] | None:
    """Coordinates m with u = sum m_i u^i, or None when u is not in L_A.

    Back-substitution on the lower-triangular rows: slot k+1 of u, once the
    rows above k are subtracted, fixes m_k; a remainder, a fractional entry or
    a leftover in slot 0 means u is not in L_A."""
    rows = basis.rows
    if len(u) != basis.matrix.n:
        raise DimensionMismatchError(
            f"vector of length {len(u)} for {basis.matrix.n} variables")
    res = list(u)
    m = [0] * len(rows)
    for k in range(len(rows) - 1, -1, -1):
        row = rows[k]
        q, r = divmod(res[k + 1], row[k + 1])
        if r:
            return None
        m[k] = q
        for j in range(k + 2):
            res[j] -= q * row[j]
    return tuple(m) if res[0] == 0 else None


def lattice_points(basis: LatticeBasis, radius: int,
                   bounds: dict[int, tuple[int | None, int | None]] | None = None):
    """Yield (m, u(m)) for every m in Z^rank with sum |m_i| <= radius, in
    lexicographic order of m, keeping only the points whose u(m) obeys bounds.

    bounds maps a coordinate j of u to (lo, hi), either end None for unbounded.
    The bound is enforced on the last coordinate m_k whose basis row touches j:
    once m_1..m_{k-1} are fixed, u_j is affine in m_k and no later row changes
    it, so the bound cuts the range of m_k to an integer interval.
    """
    rows = basis.rows
    rank = len(rows)
    closing = [[] for _ in rows]     # per level k: (j, sign, |row_k[j]|, lo, hi)
    for j, (lo, hi) in (bounds or {}).items():
        k = max(k for k, row in enumerate(rows) if row[j])   # L_A has no zero column
        r = rows[k][j]
        if r > 0:
            closing[k].append((j, 1, r, lo, hi))
        else:                        # lo <= p + c r <= hi  <=>  -hi <= -p + c|r| <= -lo
            closing[k].append((j, -1, -r,
                               None if hi is None else -hi,
                               None if lo is None else -lo))

    def line(prefixes, level):
        # one more level: m_level runs over an integer interval, along which
        # u moves by the row in the coordinates where the row is nonzero
        moving = [(j, x) for j, x in enumerate(rows[level]) if x]
        for m, u, budget in prefixes:
            c_lo, c_hi = -budget, budget
            for j, sign, r, lo, hi in closing[level]:
                q = sign * u[j]      # need lo <= q + c r <= hi
                if lo is not None:
                    c_lo = max(c_lo, -((q - lo) // r))
                if hi is not None:
                    c_hi = min(c_hi, (hi - q) // r)
            point = list(u)
            for j, x in moving:
                point[j] += c_lo * x
            for c in range(c_lo, c_hi + 1):
                yield m + (c,), tuple(point), budget - abs(c)
                for j, x in moving:
                    point[j] += x

    points = [((), (0,) * basis.matrix.n, radius)]
    for level in range(rank):
        points = line(points, level)
    for m, u, _ in points:
        yield m, u


# ---------------------------------------------------------------------------
# Numerical semigroup


@record
class SemigroupTable:
    """Membership of 0..bound = frobenius + a_1 in N*a_1 + ... + N*a_n."""

    entries: tuple[int, ...]
    bound: int
    membership: tuple[bool, ...]
    frobenius: int


# Largest membership table built, checked before it grows: filling 5 million
# entries takes ~90 MB and ~5 s.  (2, 100001) fills 100 002.
MEMBERSHIP_TABLE_CAP = 5_000_000
_TABLES: dict[tuple[int, ...], bytearray] = {}      # one per reduced generator set


def _reduced_member(gens: tuple[int, ...], top: int) -> bool:
    """Whether top is in the semigroup of increasing gcd-1 gens, whose table grows
    to entry top but not past the first run of a_1 members, from the conductor on.

    v is a member iff v = 0 or v - a is one for some generator a >= a_1, so
    entries v .. v + a_1 - 1 read only entries below v: a block of up to a_1
    new entries is the OR of one earlier slice per generator, with zeros
    before entry 0."""
    if top >= MEMBERSHIP_TABLE_CAP:
        raise CurveError(f"semigroup table of {gens} up to {top} exceeds "
                         f"{MEMBERSHIP_TABLE_CAP} entries")
    first = gens[0]
    table = _TABLES.setdefault(gens, bytearray(b"\1"))
    run = len(table) - 1 - table.rfind(0)        # members ending the table
    while len(table) <= top and run < first:
        v = len(table)
        size = min(first, top + 1 - v)
        block = 0
        for a in gens:
            if a < v + size:
                block |= int.from_bytes(table[max(v - a, 0):v - a + size], "big")
        new = block.to_bytes(size, "big")
        lead = new.find(0)                       # members starting the block
        if run + (size if lead < 0 else lead) >= first:
            table += new[:first - run]           # the first run of a_1 members ends
            break
        table += new
        run = run + size if lead < 0 else size - 1 - new.rfind(0)
    return top >= len(table) or table[top] == 1


def _in_semigroup(gens: tuple[int, ...], b: int) -> bool:
    """b in N*g_1 + ... + N*g_k for increasing gens: with d = gcd, iff d | b and
    b/d is in the semigroup of gens/d, which holds every value from a_1*a_n on
    (Schur's bound; Ramirez Alfonsin, The Diophantine Frobenius Problem, 2005)."""
    d = math.gcd(*gens)
    if b < 0 or b % d:
        return False
    gens, b = tuple(g // d for g in gens), b // d
    return b >= gens[0] * gens[-1] or _reduced_member(gens, b)


def semigroup_table(A: CurveMatrix) -> SemigroupTable:
    """The table, refused before it grows when a_n*(a_1 - 1) reaches the cap.
    Schur's bound puts the conductor at (a_1 - 1)(a_n - 1) at most, so the run
    of a_1 members that ends the table ends by a_n*(a_1 - 1)."""
    entries = A.entries
    if math.gcd(*entries) != 1:
        raise GcdNotOneError(f"gcd{entries} != 1, no Frobenius number")
    _reduced_member(entries, entries[-1] * (entries[0] - 1))    # fills to the conductor
    membership = tuple(map(bool, _TABLES[entries]))
    bound = len(membership) - 1
    return SemigroupTable(entries, bound, membership, bound - entries[0])


def semigroup_member(A: CurveMatrix, b: int) -> bool:
    """Whether b lies in the numerical semigroup of the entries.  Negative b is out."""
    return _in_semigroup(A.entries, b)


def frobenius_number(A: CurveMatrix) -> int:
    """Largest integer outside the semigroup; -1 when the semigroup is all of N."""
    return semigroup_table(A).frobenius


def semigroup_gaps(A: CurveMatrix) -> tuple[int, ...]:
    table = semigroup_table(A)
    return tuple(v for v in range(table.frobenius + 1) if not table.membership[v])


# ---------------------------------------------------------------------------
# Delta exponents: the smallest delta_i with 1 + delta_i a_i representable by
# the other entries; used to present a general curve as a slice of its
# auxiliary smooth curve.


@record
class DeltaExponent:
    position: int                 # 0-based index into entries
    delta: int
    witness: tuple[int, ...]      # coefficients over the other entries, in order


def _lex_witness(gens: tuple[int, ...], value: int) -> tuple[int, ...]:
    """Lexicographically smallest c in N^len(gens) with c . gens = value, for
    a value in the semigroup of gens."""
    witness = []
    for i, g in enumerate(gens[:-1]):   # value stays in the semigroup of gens[i:]
        witness.append(next(c for c in range(value // g + 1)
                            if _in_semigroup(gens[i + 1:], value - c * g)))
        value -= witness[-1] * g
    return tuple(witness) + (value // gens[-1],)


def _least_delta(others: tuple[int, ...], a_i: int) -> int:
    """The least delta >= 0 with 1 + delta*a_i in the semigroup of others.
    With d = gcd(others), coprime to a_i, only one residue class mod d can
    qualify, and along it the search ends by the conductor of others/d."""
    d = math.gcd(*others)
    delta = -pow(a_i, -1, d) % d
    while not _in_semigroup(others, 1 + delta * a_i):
        delta += d
    return delta


def delta_exponents(A: CurveMatrix) -> tuple[DeltaExponent, ...]:
    """For each entry a_i the least delta >= 0 with 1 + delta*a_i in the semigroup
    of the remaining entries, together with the lexicographically smallest witness;
    gcd(a_1, ..., a_n) = 1 guarantees both exist."""
    if math.gcd(*A.entries) != 1:
        raise GcdNotOneError(f"gcd{A.entries} != 1")
    out = []
    for i, a_i in enumerate(A.entries):
        others = tuple(a for j, a in enumerate(A.entries) if j != i)
        delta = _least_delta(others, a_i)
        target = 1 + delta * a_i
        witness = _lex_witness(others, target)
        if sum(c * g for c, g in zip(witness, others)) != target:
            raise CurveError(f"no witness of {target} over {others}")
        out.append(DeltaExponent(i, delta, witness))
    return tuple(out)


# ---------------------------------------------------------------------------
# Parameter classification


class BetaClass(Enum):
    IN_SEMIGROUP = "in_semigroup"
    INTEGER_OUTSIDE = "integer_outside_semigroup"
    NON_INTEGER = "non_integer"


@record
class BetaClassification:
    category: BetaClass
    residue: Fraction | None      # beta mod 1, only for NON_INTEGER


def beta_class(A: CurveMatrix, beta) -> BetaClassification:
    """Classify a rational parameter: in the semigroup, an integer outside it,
    or a non-integer (recording its residue mod 1).

    Two parameters define isomorphic hypergeometric modules exactly when they
    carry the same tag and, for non-integers, differ by an integer.
    """
    beta = Fraction(beta)
    if beta.denominator == 1:
        b = int(beta)
        if b >= 0 and semigroup_member(A, b):
            return BetaClassification(BetaClass.IN_SEMIGROUP, None)
        return BetaClassification(BetaClass.INTEGER_OUTSIDE, None)
    return BetaClassification(BetaClass.NON_INTEGER, beta - math.floor(beta))


def isomorphic_parameters(A: CurveMatrix, b1, b2) -> bool:
    c1, c2 = beta_class(A, b1), beta_class(A, b2)
    if c1.category != c2.category:
        return False
    if c1.category is BetaClass.NON_INTEGER:
        return (Fraction(b1) - Fraction(b2)).denominator == 1
    return True
