import collections
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzcurve import (
    PointClass,
    SheafTag,
    dimension_table_diff,
    reference_dimension_table,
    gevrey_index_estimate,
    irregularity_dimension,
    make_curve,
    monodromy_rotations,
    slope,
    slope_subseries,
    solution_basis,
    verify_basis,
)
from gkzcurve.core import CurveError, IndexOutOfRangeError
from gkzcurve.basis import BasisMember, SlopeTooSmallError
from gkzcurve.gevrey import InsufficientDataError, _log_abs
from gkzcurve.series import FormalSeries


def test_slope_values():
    assert slope(make_curve((1, 2, 3))) == Fraction(3, 2)
    assert slope(make_curve((2, 3, 5))) == Fraction(5, 3)
    assert slope(make_curve((1, 5))) == 5
    assert slope(make_curve((3, 5, 7))) > 1


QUOTIENT_CASES = [
    # (entries, beta, point, s, degree, expected)
    ((1, 2, 3), Fraction(1, 2), PointClass.SMOOTH_STRATUM, 2, 0, 2),
    ((1, 2, 3), 4, PointClass.DEEP_STRATUM, None, 0, 0),
    ((2, 3, 5), 0, PointClass.SMOOTH_STRATUM, Fraction(5, 3), 0, 3),
    ((1, 2, 3), 4, PointClass.SMOOTH_STRATUM, Fraction(4, 3), 0, 0),
    ((1, 2, 3), 4, PointClass.SMOOTH_STRATUM, 2, 1, 0),
    ((3, 5, 7), Fraction(1, 3), PointClass.SMOOTH_STRATUM, None, 0, 5),
    ((1, 2, 3), 0, PointClass.GENERIC, 2, 0, 0),
]


@pytest.mark.parametrize("entries,beta,point,s,degree,expected", QUOTIENT_CASES)
def test_quotient_dimensions(entries, beta, point, s, degree, expected):
    A = make_curve(entries)
    ans = irregularity_dimension(A, beta, point, SheafTag.quotient(s), degree)
    assert ans.covered and ans.value == expected


def test_holomorphic_dimensions():
    A = make_curve((1, 2, 3))
    for point in (PointClass.SMOOTH_STRATUM, PointClass.DEEP_STRATUM):
        for degree, expected in [(0, 1), (1, 1), (2, 0), (5, 0)]:
            ans = irregularity_dimension(A, 4, point, SheafTag.holomorphic(), degree)
            assert ans.value == expected
        for degree in (0, 1, 2):
            ans = irregularity_dimension(A, Fraction(1, 2), point,
                                         SheafTag.holomorphic(), degree)
            assert ans.value == 0


def test_formal_dimensions():
    A = make_curve((1, 2, 3))
    t = SheafTag.formal(2)
    assert irregularity_dimension(A, 4, PointClass.SMOOTH_STRATUM, t, 0).value == 2
    assert irregularity_dimension(A, 4, PointClass.DEEP_STRATUM, t, 0).value == 1
    assert irregularity_dimension(A, 4, PointClass.DEEP_STRATUM, t, 1).value == 1
    assert irregularity_dimension(A, 4, PointClass.SMOOTH_STRATUM, t, 1).value == 0
    assert irregularity_dimension(A, Fraction(1, 2), PointClass.DEEP_STRATUM, t, 0).value == 0
    # below the slope only the polynomial class survives at the smooth stratum
    low = SheafTag.formal(Fraction(5, 4))
    assert irregularity_dimension(A, 4, PointClass.SMOOTH_STRATUM, low, 0).value == 1
    assert irregularity_dimension(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM, low, 0).value == 0


def test_not_covered_cases():
    A = make_curve((1, 2, 3))
    low = SheafTag.formal(Fraction(5, 4))
    assert not irregularity_dimension(A, 4, PointClass.DEEP_STRATUM, low, 0).covered
    assert not irregularity_dimension(A, 4, PointClass.SMOOTH_STRATUM,
                                      SheafTag.formal(2), 2).covered
    general = make_curve((3, 5, 7))
    assert not irregularity_dimension(general, 4, PointClass.SMOOTH_STRATUM,
                                      SheafTag.holomorphic(), 0).covered
    # quotient rows stay covered for the general kind
    assert irregularity_dimension(general, 4, PointClass.SMOOTH_STRATUM,
                                  SheafTag.quotient(None), 0).value == 5


def test_quotient_filtration_monotone():
    A = make_curve((1, 2, 5))
    orders = [1, Fraction(3, 2), Fraction(5, 2), 4, None]
    for point in PointClass:
        for degree in (0, 1):
            vals = [irregularity_dimension(A, 7, point, SheafTag.quotient(s), degree).value
                    for s in orders]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_dimension_table_matches_published():
    assert dimension_table_diff(make_curve((1, 2, 3)), 4, Fraction(1, 2), 2) == {}
    assert dimension_table_diff(make_curve((1, 3, 4, 5)), 0, Fraction(-1, 3), None) == {}


@pytest.mark.parametrize("args, line", [
    ((Fraction(1, 10**5000), Fraction(1, 2), 2), f"^beta_special = 1/1{'0' * 37} is not"),
    ((4, Fraction(1, 2), Fraction(1, 10**5000)), f"^s = 1/1{'0' * 37} is below"),
], ids=["beta_special", "s"])
def test_dimension_table_cuts_a_huge_parameter(args, line):
    # str() of the denominator raises ValueError under the interpreter's digit limit
    with pytest.raises(CurveError, match=line):
        dimension_table_diff(make_curve((1, 2, 3)), *args)


def test_reference_table_shape():
    table = reference_dimension_table(make_curve((1, 2, 3)))
    assert len(table) == 24
    assert table[("gevrey_quotient", "special", "deep", 1)] == 0
    assert table[("holomorphic", "special", "deep", 0)] == 1
    assert table[("gevrey_formal", "generic", "smooth", 0)] == 2


def test_solution_basis_smooth_cases():
    A = make_curve((1, 2, 3))
    basis = solution_basis(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM, s=Fraction(3, 2))
    assert [m.exponent for m in basis] == [(0, Fraction(1, 4), 0),
                                           (1, Fraction(-1, 4), 0)]
    assert all(m.is_solution for m in basis)

    with_witness = solution_basis(A, 4, PointClass.SMOOTH_STRATUM, s=2)
    labels = [(m.label, m.is_solution) for m in with_witness]
    assert labels == [("exponent[1]", True), ("witness", False)]
    assert with_witness[-1].exponent == (6, -1, 0)

    generic = solution_basis(A, 0, PointClass.GENERIC)
    assert len(generic) == 3

    assert solution_basis(A, 4, PointClass.DEEP_STRATUM, s=2) == []


def test_solution_basis_below_slope():
    A = make_curve((1, 2, 3))
    with pytest.raises(SlopeTooSmallError):
        solution_basis(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM, s=Fraction(5, 4))
    only_poly = solution_basis(A, 4, PointClass.SMOOTH_STRATUM, s=Fraction(5, 4))
    assert len(only_poly) == 1 and only_poly[0].label == "exponent[0]"


@pytest.mark.parametrize("entries,beta", [((1, 2, 3), Fraction(1, 2)),
                                          ((1, 2, 3), 4),
                                          ((2, 3), Fraction(1, 2)),
                                          ((3, 5, 7), 8)])
def test_basis_size_matches_quotient_dimension(entries, beta):
    A = make_curve(entries)
    basis = solution_basis(A, beta, PointClass.SMOOTH_STRATUM, s=slope(A), level=10)
    expected = irregularity_dimension(A, beta, PointClass.SMOOTH_STRATUM,
                                      SheafTag.quotient(slope(A)), 0)
    assert len(basis) == expected.value


def test_general_basis_verifies():
    A = make_curve((2, 3))
    basis = solution_basis(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM,
                           s=slope(A), level=12)
    for member, report in verify_basis(A, basis, Fraction(1, 2), 3):
        assert report.max_violation == 0, (member.label, report)


def test_verify_basis_refuses_to_check_nothing():
    # the library and the CLI share one rule: an empty basis, or a series with
    # no nonzero term, checks nothing and cannot read as verified
    A = make_curve((1, 2, 3))
    with pytest.raises(CurveError, match="the basis is empty: nothing was checked"):
        verify_basis(A, [], 4)
    basis = solution_basis(A, 4, PointClass.SMOOTH_STRATUM, s=slope(A), level=4)
    member = basis[0]
    empty = FormalSeries(member.series.base, {}, member.series.truncation,
                         member.series.descriptor)
    zero = BasisMember(empty, member.label, member.exponent, member.is_solution,
                       member.defect_generator)
    with pytest.raises(CurveError, match=re.escape(f"series {member.label!r} has no nonzero")):
        verify_basis(A, basis + [zero], 4)


def test_generic_basis_general_kind():
    A = make_curve((2, 3))
    basis = solution_basis(A, Fraction(1, 2), PointClass.GENERIC, level=12)
    assert len(basis) == 3
    for member, report in verify_basis(A, basis, Fraction(1, 2), 2):
        assert report.max_violation == 0, (member.label, report)


def test_gap_parameter_fallback_basis():
    # beta in N outside the semigroup: reached through a negative parameter
    # and an exact division by a derivative power
    A = make_curve((3, 5, 7))
    basis = solution_basis(A, 2, PointClass.SMOOTH_STRATUM, s=slope(A), level=12)
    assert len(basis) == 5
    assert all(m.caveats for m in basis)
    for member, report in verify_basis(A, basis, 2, 2):
        assert report.max_violation == 0, (member.label, report)


def test_general_basis_inside_semigroup_with_witness():
    # natural parameters inside the semigroup keep the substituted witness slot
    for entries, beta in [((3, 5, 7), 8), ((2, 3), 2), ((2, 3, 5), 4)]:
        A = make_curve(entries)
        basis = solution_basis(A, beta, PointClass.SMOOTH_STRATUM,
                               s=slope(A), level=14)
        assert len(basis) == entries[-2]
        witnesses = [m for m in basis if not m.is_solution]
        assert len(witnesses) == 1 and witnesses[0].series.terms
        for member, report in verify_basis(A, basis, beta, 2):
            assert report.max_violation == 0, (entries, member.label)


def test_generic_basis_negative_integer_parameter():
    # one generic exponent picks up a negative-integer coordinate at beta = -1
    A = make_curve((1, 2, 3))
    basis = solution_basis(A, -1, PointClass.GENERIC, level=12)
    assert len(basis) == 3
    assert any(e < 0 and Fraction(e).denominator == 1
               for m in basis for e in m.exponent)
    for member, report in verify_basis(A, basis, -1, 3):
        assert report.max_violation == 0, member.label


def test_gap_parameter_sweep_all_gaps():
    # every gap of several semigroups, both strata, stays division-safe and
    # window-verified (includes gaps above a_n, where the division power is > 1)
    from gkzcurve import semigroup_gaps

    for entries in [(2, 5), (3, 5), (3, 4), (3, 5, 7), (4, 6, 9)]:
        A = make_curve(entries)
        for beta in semigroup_gaps(A):
            for point in (PointClass.GENERIC, PointClass.SMOOTH_STRATUM):
                basis = solution_basis(A, beta, point, s=slope(A), level=8)
                expected = A.entries[-1] if point is PointClass.GENERIC \
                    else A.entries[-2]
                assert len(basis) == expected, (entries, beta, point)
                for member, report in verify_basis(A, basis, beta, 2):
                    assert report.max_violation == 0, (entries, beta, member.label)


def count_build_work(monkeypatch, run):
    """run() with the points lattice_points yields to the series build and the
    Fractions constructed inside the term loop (arithmetic included) counted."""
    from gkzcurve import series

    counts = {"points": 0, "fractions": 0}
    enumerate_points = series.lattice_points

    def counting_points(*args, **kwargs):
        for point in enumerate_points(*args, **kwargs):
            counts["points"] += 1
            yield point

    term_loop = series._gamma_terms.__code__
    fraction_new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is fraction_new:
            caller = frame.f_back
            while caller is not None and caller.f_code is not term_loop:
                caller = caller.f_back
            counts["fractions"] += caller is not None

    monkeypatch.setattr(series, "lattice_points", counting_points)
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


@pytest.mark.parametrize("beta", [Fraction(1, 2), 4])
def test_general_basis_build_work_equals_stored_terms(monkeypatch, beta):
    # (3, 5, 7) at L32 keeps 161 of the 9 289 terms of its five auxiliary
    # series; beta = 4 is a gap, built at beta' = -3 and lifted term by term
    A = make_curve((3, 5, 7))
    basis, counts = count_build_work(monkeypatch, lambda: solution_basis(
        A, beta, PointClass.SMOOTH_STRATUM, s=slope(A), level=32))
    stored = sum(len(m.series.terms) for m in basis)
    assert stored == 161
    assert counts == {"points": stored, "fractions": stored}


@pytest.mark.parametrize("entries, beta, level, terms, lookups", [
    ((1, 2, 3, 4, 5, 6), Fraction(1, 2), 8, 1338, 3945),
    ((1, 2, 3), 5, 40, 762, 1504),
])
def test_the_build_looks_up_fixed_factors_once_per_line(monkeypatch, entries, beta,
                                                        level, terms, lookups):
    # term by term over every nonzero coordinate the two builds looked up
    # 5 044 and 2 182 Gamma factors.  Along a last-level line only the two
    # coordinates of the last kernel row move, and the others' product is
    # formed once per line.
    from gkzcurve import series

    count = collections.Counter()
    lookup = series._GammaFactor.__call__

    def counting(factor, t):
        count["lookups"] += 1
        return lookup(factor, t)

    monkeypatch.setattr(series._GammaFactor, "__call__", counting)
    A = make_curve(entries)
    basis = solution_basis(A, beta, PointClass.SMOOTH_STRATUM, s=slope(A), level=level)
    assert sum(len(m.series.terms) for m in basis) == terms
    assert count["lookups"] == lookups


def test_certified_window_per_generator():
    # at truncation 0 almost no generator has a certified offset where a
    # contribution landed: max_violation 0 there rests on 6 offsets in total
    A = make_curve((1, 3, 6, 8))
    beta = Fraction(1, 3)
    counts = {}
    for level in (0, 8):
        basis = solution_basis(A, beta, PointClass.SMOOTH_STRATUM, s=slope(A),
                               level=level)
        counts[level] = [row.certified for _, report in verify_basis(A, basis, beta, 3)
                         for row in report.per_generator]
    assert len(counts[0]) == 210
    assert sum(c == 0 for c in counts[0]) == 204
    assert len(counts[8]) == 210 and min(counts[8]) >= 2


def test_monodromy_examples():
    assert monodromy_rotations(make_curve((1, 2, 3)), 0) == [0, Fraction(1, 2)]
    assert monodromy_rotations(make_curve((1, 2, 3)), Fraction(1, 2)) == [
        Fraction(1, 4), Fraction(3, 4)]
    assert monodromy_rotations(make_curve((1, 2, 3, 5)), 7) == [
        0, Fraction(1, 3), Fraction(2, 3)]


def test_monodromy_zero_iff_integer():
    A = make_curve((1, 2, 5))
    rng = random.Random(17)
    for _ in range(50):
        beta = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4]))
        rotations = monodromy_rotations(A, beta)
        zeros = sum(1 for r in rotations if r == 0)
        assert zeros == (1 if beta.denominator == 1 else 0)


def test_slope_subseries_values():
    A = make_curve((1, 2, 3))
    stream = dict(slope_subseries(A, 0, "witness", 4))
    assert stream[0] == 1
    assert stream[2] == -3          # -3!/2!
    assert stream[4] == 30          # 6!/4!


def test_slope_subseries_matches_series_coefficients():
    # the streams are exactly the Gamma-series coefficients along the ray
    # m_{n-1} = a_n mu, m_n = a_{n-1} mu of the kernel coordinates
    from gkzcurve import lattice_basis
    from oracles import combine, gamma_coefficient
    from gkzcurve.basis import exponent_base
    from gkzcurve.series import witness_base

    for entries, beta in [((1, 2, 3), 0), ((1, 2, 5), 4), ((1, 3, 4, 5), 1)]:
        A = make_curve(entries)
        basis = lattice_basis(A)
        n, a_pen, a_top = A.n, entries[-2], entries[-1]

        def ray(mu):
            m = [0] * (n - 1)
            m[n - 3] = a_top * mu
            m[n - 2] = a_pen * mu
            return combine(basis, m)

        wstream = dict(slope_subseries(A, beta, "witness", 4))
        wbase = witness_base(A, beta)
        for mu in range(4):
            assert gamma_coefficient(wbase, ray(mu)) == wstream[a_pen * mu]

        j = next(j for j in range(a_pen)
                 if Fraction(beta - j, a_pen).denominator != 1)
        estream = dict(slope_subseries(A, beta, ("exponent", j), 4))
        ebase = exponent_base(A, beta, j)
        for mu in range(4):
            assert gamma_coefficient(ebase, ray(mu)) == estream[a_pen * mu]


def test_gevrey_estimate_controls():
    grow = [(k, Fraction(math.factorial(k))) for k in range(120)]
    decay = [(k, Fraction(1, math.factorial(k))) for k in range(120)]
    assert abs(gevrey_index_estimate(grow) - 2.0) < 0.05
    assert abs(gevrey_index_estimate(decay) - 1.0) < 0.05
    with pytest.raises(InsufficientDataError):
        gevrey_index_estimate(grow[:10])


def test_gevrey_estimate_is_exact_on_a_model_stream():
    # log|k! 2^k| = lgamma(k+1) + k log 2 lies on the fitted surface with s = 2
    stream = [(k, Fraction(math.factorial(k) * 2 ** k)) for k in range(80)]
    assert abs(gevrey_index_estimate(stream) - 2.0) < 1e-9
    with pytest.raises(InsufficientDataError):
        gevrey_index_estimate(stream, window=2)


def test_gevrey_estimate_witness_stream():
    A = make_curve((1, 2, 3))
    est = gevrey_index_estimate(slope_subseries(A, 0, "witness", 120))
    assert abs(est - 1.5) < 0.05


def test_gevrey_estimate_exponent_stream():
    A = make_curve((1, 2, 3))
    est = gevrey_index_estimate(slope_subseries(A, Fraction(1, 2), ("exponent", 0), 120))
    assert abs(est - 1.5) < 0.05


def reference_slope_subseries(A, beta, which, count):
    """The direct loop: every falling factorial rebuilt from scratch."""
    a_pen, a_top = A.entries[-2], A.entries[-1]
    out = []
    if which == "witness":
        for m in range(count):
            c = Fraction((-1) ** (a_top * m) * math.factorial(a_top * m),
                         math.factorial(a_pen * m))
            out.append((a_pen * m, c))
        return out
    _, j = which
    theta = Fraction(Fraction(beta) - j, a_pen)
    for m in range(count):
        num = Fraction(1)
        for i in range(a_top * m):
            num *= theta - i
        out.append((a_pen * m, num / math.factorial(a_pen * m)))
    return out


def stream_selectors(A, beta):
    """The witness and every exponent index whose stream does not terminate."""
    a_pen = A.entries[-2]
    thetas = [Fraction(Fraction(beta) - j, a_pen) for j in range(a_pen)]
    return ["witness"] + [("exponent", j) for j, theta in enumerate(thetas)
                          if theta.denominator != 1 or theta < 0]


@pytest.mark.parametrize("entries", [(1, 2, 3), (1, 3, 5), (1, 2, 5), (1, 3, 4, 5),
                                     (3, 5, 7), (1, 2)])
def test_slope_subseries_matches_reference(entries):
    A = make_curve(entries)
    for beta in (0, Fraction(1, 2), Fraction(5, 2), 4, Fraction(-7, 3)):
        for which in stream_selectors(A, beta):
            expected = reference_slope_subseries(A, beta, which, 60)
            for count in (0, 1, 2, 60):
                assert slope_subseries(A, beta, which, count) == expected[:count], \
                    (entries, beta, which, count)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True),
    smooth=st.booleans(),
    beta=st.one_of(st.integers(-6, 12),
                   st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))),
    pick=st.integers(0, 10),
    count=st.integers(0, 80),
)
def test_slope_subseries_matches_reference_property(entries, smooth, beta, pick,
                                                    count):
    entries = sorted(entries)
    if smooth or len(entries) == 1 or math.gcd(*entries) != 1:
        entries = [1] + entries
    A = make_curve(entries)
    selectors = stream_selectors(A, beta)
    which = selectors[pick % len(selectors)]
    assert slope_subseries(A, beta, which, count) == \
        reference_slope_subseries(A, beta, which, count)


@pytest.mark.parametrize("j", [-1, 2, 7])
def test_slope_subseries_exponent_index_range(j):
    A = make_curve((1, 2, 3))
    with pytest.raises(IndexOutOfRangeError):
        slope_subseries(A, Fraction(1, 2), ("exponent", j), 4)


def test_slope_subseries_cuts_a_huge_index():
    # str() of 10^5000 raises ValueError under the interpreter's digit limit
    with pytest.raises(IndexOutOfRangeError, match=f"^j=-1{'0' * 38} outside 0..1$"):
        slope_subseries(make_curve((1, 2, 3)), Fraction(1, 2), ("exponent", -10**5000), 4)


def reference_gevrey_index_estimate(stream, window=None):
    """The Fraction loop: each float made exact, the normal equations summed
    in Fractions."""
    points = sorted((k, c) for k, c in stream if c != 0)
    if len(points) < 16:
        raise InsufficientDataError(f"{len(points)} nonzero coefficients < 16")
    points = points[-(len(points) // 2 if window is None else window):]
    rows = [(Fraction(math.lgamma(k + 1.0)), Fraction(k), Fraction(1)) for k, _ in points]
    rhs = [Fraction(_log_abs(c)) for _, c in points]
    gram = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    moment = [sum(r[i] * y for r, y in zip(rows, rhs)) for i in range(3)]

    def det3(m):
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    det = det3(gram)
    if det == 0:
        raise InsufficientDataError(f"{len(points)} points do not fix a 3-term fit")
    lead = det3([[moment[i]] + gram[i][1:] for i in range(3)]) / det
    return max(1.0, 1.0 + float(lead))


@pytest.mark.parametrize("entries", [(1, 2, 3), (1, 3, 5), (1, 2, 5), (1, 3, 4, 5),
                                     (3, 5, 7), (1, 2)])
def test_gevrey_index_estimate_matches_reference(entries):
    # the integer-scaled sums give the same rational lead, so the same float
    A = make_curve(entries)
    for beta in (0, Fraction(1, 2), Fraction(5, 2), 4, Fraction(-7, 3)):
        for which in stream_selectors(A, beta):
            stream = slope_subseries(A, beta, which, 60)
            for window in (None, 3, 17, 60):
                assert gevrey_index_estimate(stream, window) == \
                    reference_gevrey_index_estimate(stream, window), (entries, beta, which)


@settings(max_examples=60, deadline=None)
@given(
    ks=st.lists(st.integers(0, 400), min_size=0, max_size=40, unique=True),
    coeffs=st.lists(st.builds(Fraction, st.integers(-10**30, 10**30),
                              st.integers(1, 10**30)), min_size=40, max_size=40),
    window=st.one_of(st.none(), st.integers(1, 40)),
)
def test_gevrey_index_estimate_matches_reference_property(ks, coeffs, window):
    stream = list(zip(ks, coeffs))
    try:
        want = reference_gevrey_index_estimate(stream, window)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            gevrey_index_estimate(stream, window)
        return
    assert gevrey_index_estimate(stream, window) == want
