"""The integer kernel and the numerical semigroup of a monomial-curve matrix.

A curve matrix (core.CurveMatrix) is a single row A = (a_1 ... a_n) of
strictly increasing positive integers.  The series supports, the toric
operators and the parameter classification are driven by the integer kernel
L_A = ker_Z(A) and by the numerical semigroup N*a_1 + ... + N*a_n.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .core import CurveError, CurveMatrix, DimensionMismatchError, GcdNotOneError, record


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

    @cached_property
    def substitution(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """lattice_decompose's steps, last row first: (k, the pivot row[k+1],
        the nonzero (j, row[j]) with j <= k), worked out once per basis."""
        return tuple((k, row[k + 1], tuple((j, x) for j, x in enumerate(row[:k + 1]) if x))
                     for k, row in reversed(tuple(enumerate(self.rows))))


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
        if sum(x * y for x, y in zip(a, row)) or row[k + 1] == 0 or any(row[k + 2:]):
            raise CurveError(f"kernel row {k} = {row} is not a lower-triangular "
                             f"element of L_A")
    return LatticeBasis(A, tuple(rows))


def lattice_decompose(basis: LatticeBasis, u) -> tuple[int, ...] | None:
    """Coordinates m with u = sum m_i u^i, or None when u is not in L_A.

    Back-substitution on the lower-triangular rows: slot k+1 of u, once the
    rows above k are subtracted, fixes m_k; a remainder, a fractional entry or
    a leftover in slot 0 means u is not in L_A.  Row k is subtracted only
    where it is nonzero below its pivot (LatticeBasis.substitution): a smooth
    row touches slot 0 alone, and slot k+1 is read no more."""
    if len(u) != basis.matrix.n:
        raise DimensionMismatchError(
            f"vector of length {len(u)} for {basis.matrix.n} variables")
    res = list(u)
    m = [0] * len(basis.rows)
    for k, pivot, rest in basis.substitution:
        q, r = divmod(res[k + 1], pivot)
        if r:
            return None
        m[k] = q
        for j, x in rest:
            res[j] -= q * x
    return tuple(m) if res[0] == 0 else None


def lattice_points(basis: LatticeBasis, radius: int,
                   bounds: dict[int, tuple[int | None, int | None]] | None = None):
    """Yield (m, u(m)) for every m in Z^rank with sum |m_i| <= radius, in
    lexicographic order of m, keeping only the points whose u(m) obeys bounds.

    bounds maps a coordinate j of u to (lo, hi), either end None for unbounded.
    The last row k that touches j closes the bound: once m_1..m_{k-1} are
    fixed, u_j is affine in m_k, so the bound cuts m_k to an integer interval.
    An earlier m_l = c is cut to where u_j can still meet it, as the rows
    l+1..k move u_j by at most step * (budget - |c|), step their largest
    |row[j]|, and by multiples of their gcd g (README, Series build).
    """
    rows = basis.rows
    cuts = [[] for _ in rows]        # per level: (j, sign, step, edge, slopes)
    residues = [[] for _ in rows]    # per level: (j, g, lo) of a bound lo == hi
    for j, (lo, hi) in (bounds or {}).items():
        col = [row[j] for row in rows]
        close = max(k for k, x in enumerate(col) if x)       # L_A has no zero column
        for level in range(close + 1):
            later = col[level + 1:close + 1]
            step = max(map(abs, later), default=0)
            for sign, edge in ((1, lo), (-1, None if hi is None else -hi)):
                # m_level = c keeps sign u_j + step (budget - |c|) >= edge iff
                # k c >= edge - sign u_j - step budget for both slopes k; a zero
                # slope only prunes, and a u_j = 0 that meets the edge needs none
                if edge is not None and (edge > 0 or any(col[:level + 1])):
                    r = sign * col[level]
                    cuts[level].append((j, sign, step, edge, {r - step, r + step} - {0}))
            if lo == hi is not None and math.gcd(*later) > 1:
                residues[level].append((j, math.gcd(*later), lo))
    # depth first, smallest m_level popped first, at most 2 radius + 1 stacked
    # per level; along m_level, u moves where the level's row is nonzero
    moving = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    last = len(rows) - 1
    stack = [((), (0,) * basis.matrix.n, radius)]
    while stack:
        m, u, budget = stack.pop()
        level = len(m)
        if level > last:             # rank 0
            yield m, u
            continue
        c_lo, c_hi = -budget, budget
        for j, sign, step, edge, slopes in cuts[level]:
            d = edge - sign * u[j] - step * budget
            for k in slopes:
                if k > 0:
                    c_lo = max(c_lo, -(-d // k))
                else:
                    c_hi = min(c_hi, d // k)
        point, move = list(u), moving[level]
        if level == last:
            for j, x in move:
                point[j] += c_lo * x
            for c in range(c_lo, c_hi + 1):
                yield m + (c,), tuple(point)
                for j, x in move:
                    point[j] += x
            continue
        for j, x in move:
            point[j] += c_hi * x
        for c in range(c_hi, c_lo - 1, -1):
            for j, g, lo in residues[level]:
                if (lo - point[j]) % g:
                    break
            else:
                stack.append((m + (c,), tuple(point), budget - abs(c)))
            for j, x in move:
                point[j] -= x


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

