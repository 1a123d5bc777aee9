"""The numerical semigroup N*a_1 + ... + N*a_n of a monomial-curve matrix.

Membership, the Frobenius number and the gaps, the delta exponents that
present a general curve as a slice of its auxiliary smooth curve, and the
classification of a parameter beta.  Of solve and verify, only the gap route
of a general curve reads this module.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .core import CurveError, CurveMatrix, GcdNotOneError, record


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

