"""The integer kernel of a monomial-curve matrix.

A curve matrix (core.CurveMatrix) is a single row A = (a_1 ... a_n) of
strictly increasing positive integers.  The series supports and the toric
operators are driven by the integer kernel L_A = ker_Z(A); the numerical
semigroup N*a_1 + ... + N*a_n lives in semigroup.py.
"""

from __future__ import annotations

import math
from functools import cached_property

# lazily loaded: read only by __getattr__ below
from . import semigroup as _semigroup
from .core import CurveError, CurveMatrix, DimensionMismatchError, record


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


# Names that perfbench/tracer.py still reads under this module; each is served
# from its home, so a command that never reads one does not compile it.
_FORWARDED = ("semigroup_member", "frobenius_number", "semigroup_gaps",
              "delta_exponents", "beta_class")


def __getattr__(name):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_semigroup, name)
