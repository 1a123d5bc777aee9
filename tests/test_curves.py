import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from gkzcurve import (
    BetaClass,
    GcdNotOneError,
    NotIncreasingError,
    TooShortError,
    beta_class,
    delta_exponents,
    frobenius_number,
    lattice_basis,
    lattice_decompose,
    make_curve,
    semigroup_gaps,
    semigroup_member,
    semigroup_table,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzcurve import semigroup
from gkzcurve.core import CurveError, clip
from gkzcurve.curves import LatticeBasis, lattice_points
from gkzcurve.semigroup import MEMBERSHIP_TABLE_CAP, _in_semigroup, _lex_witness
from oracles import combine, isomorphic_parameters


SMOOTH = [(1, 2, 3), (1, 2, 5), (1, 3, 4, 5), (1, 5), (1, 3, 4)]
GENERAL = [(2, 3), (3, 5, 7), (2, 3, 5), (4, 6, 9)]


def test_make_curve_kinds():
    assert make_curve((1, 2, 3)).is_smooth
    assert not make_curve((3, 5, 7)).is_smooth


def test_make_curve_rejections():
    with pytest.raises(GcdNotOneError):
        make_curve((2, 4, 6))
    with pytest.raises(TooShortError):
        make_curve((5,))
    with pytest.raises(NotIncreasingError):
        make_curve((1, 3, 3))
    with pytest.raises(NotIncreasingError):
        make_curve((3, 2))
    with pytest.raises(NotIncreasingError):
        make_curve((0, 2))
    with pytest.raises(NotIncreasingError):
        make_curve((1.5, 2.5))


def _random_matrices(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        entries = sorted(rng.sample(range(1, 30), n))
        if entries[0] > 1 and math.gcd(*entries) != 1:
            continue
        out.append(tuple(entries))
    return out


def test_lattice_invariants_over_random_matrices():
    for entries in _random_matrices(30, seed=61):
        A = make_curve(entries)
        B = lattice_basis(A)
        for row in B.rows:
            assert A.weight(row) == 0
        rng = random.Random(sum(entries))
        for _ in range(10):
            m = tuple(rng.randint(-10, 10) for _ in range(B.rank))
            assert lattice_decompose(B, combine(B, m)) == m


def test_lattice_basis_shapes():
    assert lattice_basis(make_curve((1, 2, 3))).rows == ((2, -1, 0), (-3, 0, 1))
    assert lattice_basis(make_curve((1, 2, 3, 5))).rows == (
        (-2, 1, 0, 0), (3, 0, -1, 0), (-5, 0, 0, 1))


@pytest.mark.parametrize("entries", SMOOTH + GENERAL)
def test_lattice_rows_in_kernel(entries):
    A = make_curve(entries)
    for row in lattice_basis(A).rows:
        assert A.weight(row) == 0


@pytest.mark.parametrize("entries", SMOOTH + GENERAL)
def test_lattice_basis_is_a_basis(entries):
    # signed maximal minors of a kernel basis reproduce +-A (gcd 1 rows)
    A = make_curve(entries)
    rows = lattice_basis(A).rows
    n = A.n

    def minor(skip):
        cols = [j for j in range(n) if j != skip]
        mat = [[Fraction(r[j]) for j in cols] for r in rows]
        # Bareiss-free: plain fraction elimination
        det = Fraction(1)
        m = [row[:] for row in mat]
        for c in range(n - 1):
            piv = next((r for r in range(c, n - 1) if m[r][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, n - 1):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return det

    signed = [(-1) ** j * minor(j) for j in range(n)]
    scale = signed[0] / A.entries[0]
    assert abs(scale) == 1
    assert all(s == scale * a for s, a in zip(signed, A.entries))


def test_lattice_decompose_examples():
    B = lattice_basis(make_curve((1, 2, 3)))
    assert lattice_decompose(B, (2, -1, 0)) == (1, 0)
    assert lattice_decompose(B, (-1, -1, 1)) == (1, 1)
    assert lattice_decompose(B, (1, 0, 0)) is None


@pytest.mark.parametrize("entries", SMOOTH + GENERAL)
def test_lattice_decompose_roundtrip(entries):
    A = make_curve(entries)
    B = lattice_basis(A)
    rng = random.Random(hash(entries) & 0xFFFF)
    for _ in range(50):
        m = tuple(rng.randint(-10, 10) for _ in range(B.rank))
        u = combine(B, m)
        assert lattice_decompose(B, u) == m
        # off L_A: one coordinate moved, so A.u != 0
        off = list(u)
        off[rng.randrange(A.n)] += rng.choice([-1, 1])
        assert lattice_decompose(B, tuple(off)) is None
        # A.u = 0 but not integral: a half of a lattice vector with an odd entry
        half = tuple(Fraction(x, 2) for x in combine(B, tuple(2 * c + 1 for c in m)))
        assert A.weight(half) == 0
        if any(x.denominator != 1 for x in half):
            assert lattice_decompose(B, half) is None


def lattice_ball(basis, radius):
    """All nonzero u(m) with sum |m_i| <= radius and their coordinates, in
    lexicographic order of m: the oracle the box operators were once built from."""
    return [(m, u) for m, u in lattice_points(basis, radius) if any(m)]


def test_lattice_ball_levels():
    B = lattice_basis(make_curve((1, 2, 3)))
    ball = lattice_ball(B, 2)
    assert all(sum(abs(c) for c in m) <= 2 for m, _ in ball)
    assert all(any(m) for m, _ in ball)
    # crosspolytope count minus origin
    assert len(ball) == 13 - 1
    assert [m for m, _ in ball] == sorted(m for m, _ in ball)


@settings(max_examples=80, deadline=None)
@given(
    entries=st.sampled_from([(1, 2, 3), (1, 3, 4, 5), (2, 3), (3, 5, 7), (4, 6, 9)]),
    radius=st.integers(0, 5),
    raw=st.lists(st.tuples(st.none() | st.integers(-12, 12),
                           st.none() | st.integers(-12, 12)), min_size=4, max_size=4),
)
def test_lattice_points_equal_the_filtered_ball(entries, radius, raw):
    B = lattice_basis(make_curve(entries))
    bounds = dict(enumerate(raw[:len(entries)]))

    def inside(u):
        return all((lo is None or lo <= u[j]) and (hi is None or u[j] <= hi)
                   for j, (lo, hi) in bounds.items())

    cube = itertools.product(range(-radius, radius + 1), repeat=B.rank)   # lexicographic
    expected = [(m, combine(B, m)) for m in cube
                if sum(abs(c) for c in m) <= radius and inside(combine(B, m))]
    assert list(lattice_points(B, radius, bounds)) == expected


def l1_ball(rank, radius):
    """Every m in Z^rank with sum |m_i| <= radius, in lexicographic order."""
    if rank == 0:
        yield ()
        return
    for c in range(-radius, radius + 1):
        for rest in l1_ball(rank - 1, radius - abs(c)):
            yield (c,) + rest


def filtered_ball(B, radius, bounds):
    return [(m, u) for m, u in ((m, combine(B, m)) for m in l1_ball(B.rank, radius))
            if all((lo is None or lo <= u[j]) and (hi is None or u[j] <= hi)
                   for j, (lo, hi) in bounds.items())]


# ranks 1 to 5: smooth curves and the auxiliary curves (1, a_1, ..., a_n) of
# general ones, whose rows drive every section build
PRUNED_CURVES = [(1, 2), (1, 2, 3), (1, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6),
                 (1, 3, 5, 7), (1, 4, 6, 9), (1, 2, 5, 7, 9), (3, 5, 7), (2, 5, 7, 9)]


@settings(max_examples=120, deadline=None)
@given(
    entries=st.sampled_from(PRUNED_CURVES),
    radius=st.integers(0, 6),
    raw=st.lists(st.tuples(st.none() | st.integers(-12, 12), st.none() | st.integers(-12, 12),
                           st.booleans()), min_size=6, max_size=6),
)
def test_pruned_lattice_points_equal_the_ball_under_equalities(entries, radius, raw):
    # a bound with lo == hi prunes by divisibility as well as by reach
    B = lattice_basis(make_curve(entries))
    bounds = {j: (lo, lo) if equal and lo is not None else (lo, hi)
              for j, (lo, hi, equal) in enumerate(raw[:len(entries)])}
    assert list(lattice_points(B, radius, bounds)) == filtered_ball(B, radius, bounds)


@settings(max_examples=120, deadline=None)
@given(
    entries=st.sampled_from([e for e in PRUNED_CURVES if e[0] == 1]),
    radius=st.integers(0, 6),
    kind=st.sampled_from(["singular", "generic", "witness"]),
    beta=st.sampled_from([Fraction(1, 2), Fraction(-7, 3), 0, 1, 2, 4, 5, 9]),
    j=st.integers(0, 8),
    section=st.booleans(),
)
def test_pruned_lattice_points_equal_the_ball_under_support_bounds(
        entries, radius, kind, beta, j, section):
    # the bounds every build enumerates with: the negative-support guard of a
    # basis exponent, and u_0 = -v_0 for the x_0 = 0 section
    from gkzcurve.basis import exponent_base, generic_exponent_base
    from gkzcurve.series import _support_bounds, witness_base

    A = make_curve(entries)
    if kind == "witness":
        if len(entries) < 3 or beta < 0 or Fraction(beta).denominator != 1:
            return
        base = witness_base(A, beta)
    else:
        choose = exponent_base if kind == "singular" else generic_exponent_base
        base = choose(A, beta, j % entries[-2 if kind == "singular" else -1])
    bounds = _support_bounds(base)
    if section:
        bounds[0] = (-int(base[0]), -int(base[0]))
    B = lattice_basis(A)
    assert list(lattice_points(B, radius, bounds)) == filtered_ball(B, radius, bounds)


def test_pruning_where_a_row_is_as_long_as_the_rows_after_it():
    # rows of (1, 2, 3) spanning a sublattice with |row_0[0]| = |row_1[0]|:
    # one slope of the cut on m_0 is 0, so a prefix is kept or dropped whole
    B = LatticeBasis(make_curve((1, 2, 3)), ((-2, 1, 0), (2, 2, -2)))
    for radius in range(5):
        for lo in range(-9, 10):
            for bounds in ({0: (lo, None)}, {0: (None, lo)}, {0: (lo, lo)},
                           {0: (lo, lo + 3), 2: (-1, None)}):
                assert list(lattice_points(B, radius, bounds)) == \
                    filtered_ball(B, radius, bounds), (radius, bounds)


def test_section_bounds_of_a_general_basis_keep_the_ball_points():
    # solve (3,5,7) beta=1/2 L32: the five section builds prune almost every
    # prefix and keep the 161 points of the filtered ball
    from gkzcurve import PointClass, slope, solution_basis
    from gkzcurve.series import _support_bounds

    A = make_curve((3, 5, 7))
    members = solution_basis(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM, s=slope(A),
                             level=32)
    B = lattice_basis(A.auxiliary())
    ball = [(m, combine(B, m)) for m in l1_ball(B.rank, 32)]
    kept = 0
    for member in members:
        parent = member.series.descriptor.parent
        bounds = _support_bounds(parent.base)
        bounds[0] = (-int(parent.base[0]), -int(parent.base[0]))
        expected = [(m, u) for m, u in ball if all(
            (lo is None or lo <= u[j]) and (hi is None or u[j] <= hi)
            for j, (lo, hi) in bounds.items())]
        assert list(lattice_points(B, 32, bounds)) == expected
        assert [u[1:] for _, u in expected] == list(member.series.terms)
        kept += len(expected)
    assert len(members) == 5 and kept == 161


def test_semigroup_membership_examples():
    A = make_curve((3, 5, 7))
    assert not semigroup_member(A, 4)
    assert semigroup_member(A, 8)
    assert semigroup_member(A, 0)
    assert not semigroup_member(A, -3)


@pytest.mark.parametrize("entries", GENERAL + [(1, 2, 3)])
def test_semigroup_against_enumeration(entries):
    A = make_curve(entries)
    # brute-force all sums of c . entries with every coefficient exhausted
    reachable = {0}
    for a in entries:
        reachable = {r + k * a for r in reachable for k in range(200 // a + 1)
                     if r + k * a <= 200}
    for b in range(201):
        assert semigroup_member(A, b) == (b in reachable), b


def test_frobenius_examples():
    assert frobenius_number(make_curve((3, 5, 7))) == 4
    assert frobenius_number(make_curve((1, 2, 3))) == -1
    assert frobenius_number(make_curve((2, 3))) == 1
    assert semigroup_gaps(make_curve((3, 5, 7))) == (1, 2, 4)


def test_semigroup_table_invariants():
    table = semigroup_table(make_curve((3, 5, 7)))
    assert table.membership[0]
    for v in range(table.bound + 1):
        if table.membership[v]:
            for a in table.entries:
                if v + a <= table.bound:
                    assert table.membership[v + a]
        if v > table.frobenius:
            assert table.membership[v]


def test_delta_exponents_examples():
    ds = {d.position: d for d in delta_exponents(make_curve((3, 5, 7)))}
    assert ds[0].delta == 2 and ds[0].witness == (0, 1)
    assert ds[1].delta == 1 and ds[1].witness == (2, 0)
    ds2 = {d.position: d for d in delta_exponents(make_curve((2, 3)))}
    assert ds2[0].delta == 1 and ds2[0].witness == (1,)


def reachable(gens, top):
    """Every sum of gens up to top, by breadth-first search from 0."""
    seen, frontier = {0}, {0}
    while frontier:
        frontier = {v + g for v in frontier for g in gens if v + g <= top} - seen
        seen |= frontier
    return seen


def lex_solutions(gens, value):
    """Every c in N^len(gens) with c . gens = value, in lexicographic order."""
    if not gens:
        if value == 0:
            yield ()
        return
    for c in range(value // gens[0] + 1):
        for rest in lex_solutions(gens[1:], value - c * gens[0]):
            yield (c,) + rest


@pytest.mark.parametrize("entries", GENERAL)
def test_delta_exponents_minimality(entries):
    A = make_curve(entries)
    for d in delta_exponents(A):
        a_i = entries[d.position]
        others = tuple(a for j, a in enumerate(entries) if j != d.position)
        target = 1 + d.delta * a_i
        assert sum(c * g for c, g in zip(d.witness, others)) == target
        members = reachable(others, target)
        assert not any(1 + smaller * a_i in members for smaller in range(d.delta))


@settings(max_examples=150, deadline=None)
@given(base=st.lists(st.integers(2, 12), min_size=1, max_size=4, unique=True),
       scale=st.integers(1, 3))
def test_semigroup_routines_against_brute_force(base, scale):
    # gcd-1 sets go through the public routines, and scaled ones (gcd > 1, as
    # the delta exponents' sets of other entries are) through the shared one
    gens = tuple(sorted(g * scale for g in base))
    top = 3 * gens[0] * gens[-1]
    members = reachable(gens, top)
    for b in range(-2, top + 1):
        assert _in_semigroup(gens, b) == (b in members), b
    for b in sorted(members)[:40]:
        assert _lex_witness(gens, b) == next(lex_solutions(gens, b)), b
    if math.gcd(*gens) != 1 or len(gens) < 2:
        return
    A = make_curve(gens)
    gaps = tuple(v for v in range(top + 1) if v not in members)
    assert semigroup_gaps(A) == gaps
    assert frobenius_number(A) == (gaps[-1] if gaps else -1)
    table = semigroup_table(A)
    assert table.bound == frobenius_number(A) + gens[0]
    assert table.membership == tuple(v in members for v in range(table.bound + 1))
    for d in delta_exponents(A):
        a_i = gens[d.position]
        others = gens[:d.position] + gens[d.position + 1:]
        # the least delta is at most others[0] * others[-1]: with d = gcd(others)
        # one delta of each d consecutive ones has d | 1 + delta a_i, and
        # (1 + delta a_i)/d is a member once it reaches others[0] others[-1] / d^2
        most = others[0] * others[-1]
        within = reachable(others, 1 + a_i * most)
        least = next(delta for delta in range(most + 1) if 1 + delta * a_i in within)
        assert d.delta == least
        assert d.witness == next(lex_solutions(others, 1 + least * a_i))


def test_member_past_the_cap_with_a_small_conductor(monkeypatch):
    # once a table of 5 million entries; now no table at all
    monkeypatch.setattr(semigroup, "_TABLES", {})
    A = make_curve((3, 5, 7))
    start = time.perf_counter()
    assert semigroup_member(A, 5_000_000) and semigroup_member(A, 4_999_999)
    assert beta_class(A, 5_000_001).category is BetaClass.IN_SEMIGROUP
    assert time.perf_counter() - start < 0.1
    assert semigroup._TABLES == {}


def test_one_table_per_generator_set_up_to_its_conductor(monkeypatch):
    # each queried value once built and kept a table of its own
    monkeypatch.setattr(semigroup, "_TABLES", {})
    A = make_curve((3, 5, 7))
    start = time.perf_counter()
    answers = [semigroup_member(A, b) for b in range(1, 3001)]
    assert time.perf_counter() - start < 0.1
    assert [b for b, hit in zip(range(1, 3001), answers) if not hit] == [1, 2, 4]
    assert list(semigroup._TABLES) == [(3, 5, 7)]
    assert len(semigroup._TABLES[(3, 5, 7)]) <= 4 + 3 + 1


def test_table_stops_at_the_conductor(monkeypatch):
    # it was filled to a_1 * a_n = 2 001 000 entries
    monkeypatch.setattr(semigroup, "_TABLES", {})
    entries = (1000, 1001, 1002, 1003, 2001)
    table = semigroup_table(make_curve(entries))
    assert table.frobenius == 332_999
    assert len(table.membership) == len(semigroup._TABLES[entries]) <= 332_999 + 1000 + 1


def test_table_fills_a_block_of_a1_entries_per_step(monkeypatch):
    # one entry per Python step took ~0.85 s for the table and the delta
    # exponents' (1000, 1001, 1002, 2001) table; a block fill takes ~20 ms,
    # and the bound leaves room for a loaded machine
    monkeypatch.setattr(semigroup, "_TABLES", {})
    A = make_curve((1000, 1001, 1002, 1003, 2001))
    start = time.perf_counter()
    assert semigroup_table(A).frobenius == 332_999
    assert [d.delta for d in delta_exponents(A)] == [1, 1, 1, 333, 1]
    assert time.perf_counter() - start < 0.4


def test_tables_past_the_cap_are_refused_before_they_grow(monkeypatch):
    monkeypatch.setattr(semigroup, "_TABLES", {})
    A = make_curve((1000003, 1000033))
    with pytest.raises(CurveError, match=f"up to 1000035000066 exceeds {MEMBERSHIP_TABLE_CAP}"):
        frobenius_number(A)
    with pytest.raises(CurveError, match="up to 5000000 exceeds"):
        semigroup_member(A, 5_000_000)
    assert semigroup._TABLES == {}
    assert semigroup_member(A, 1000003 * 1000033)     # past a_1 a_n: no table
    assert semigroup._TABLES == {}
    assert not semigroup_member(A, 9)                 # grown only as far as asked
    assert len(semigroup._TABLES[(1000003, 1000033)]) == 10


def test_gcd_reduction():
    assert _in_semigroup((4, 6), 8) and _in_semigroup((4, 6), 10)
    assert not _in_semigroup((4, 6), 2) and not _in_semigroup((4, 6), 7)
    assert _in_semigroup((4, 6), 10**12)
    assert _lex_witness((4, 6), 16) == (1, 2)


def test_delta_exponents_far_apart_entries():
    # a recursive membership test overflows the stack here
    ds = delta_exponents(make_curve((2, 100001)))
    assert [(d.delta, d.witness) for d in ds] == [(50000, (1,)), (1, (50001,))]


def test_beta_class_examples():
    A = make_curve((3, 5, 7))
    assert beta_class(A, 4).category is BetaClass.INTEGER_OUTSIDE
    assert beta_class(A, 8).category is BetaClass.IN_SEMIGROUP
    cls = beta_class(A, Fraction(1, 2))
    assert cls.category is BetaClass.NON_INTEGER and cls.residue == Fraction(1, 2)
    assert beta_class(A, -2).category is BetaClass.INTEGER_OUTSIDE


def test_isomorphism_is_equivalence():
    A = make_curve((3, 5, 7))
    rng = random.Random(7)
    grid = [Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3])) for _ in range(24)]
    for b1 in grid:
        assert isomorphic_parameters(A, b1, b1)
        for b2 in grid:
            assert isomorphic_parameters(A, b1, b2) == isomorphic_parameters(A, b2, b1)
            for b3 in grid:
                if isomorphic_parameters(A, b1, b2) and isomorphic_parameters(A, b2, b3):
                    assert isomorphic_parameters(A, b1, b3)


def test_beta_shift_by_entry_keeps_non_integer_class():
    A = make_curve((3, 5, 7))
    for num in (1, 2, 4, 7, -5):
        beta = Fraction(num, 3) if num % 3 else Fraction(num, 2)
        for a in A.entries:
            if beta_class(A, beta).category is BetaClass.NON_INTEGER:
                assert isomorphic_parameters(A, beta, beta + a)


def test_clip_is_the_head_of_str():
    # error lines echo clip(value); under cli.main, where the interpreter's
    # digit limit is lifted, it must read as str(value)[:40] did
    ints = [0, -7, 10**39, -10**39, 10**40, 2**132, -(2**132), 10**5000, -10**5000 + 1]
    ints += [sign * (10**k - r) for k in range(1, 6000, 97) for r in (0, 1)
             for sign in (1, -1)]
    values = ints + [Fraction(v, d) for v in ints[:40]
                     for d in (3, 10**38 + 1, 10**5000 + 1)] + ["x" * 50]
    clipped = [clip(v) for v in values]         # under the default digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert clipped == [str(v)[:40] for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
