import collections
import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from gkzcurve import (
    FormalSeries,
    PointClass,
    WeylOperator,
    annihilation_report,
    apply,
    box_operator,
    euler_operator,
    exponent_series,
    inverse_contiguity,
    make_curve,
    named_generators,
    slope,
    solution_basis,
    toric_generators,
    verify_basis,
    weyl,
)
from gkzcurve.core import CurveError, DimensionMismatchError, NotInKernelError
from gkzcurve.curves import lattice_basis, lattice_points
from gkzcurve.semigroup import semigroup_member
from gkzcurve.series import ContiguityError, FiniteSupport, WindowSupport
from gkzcurve.weyl import OFFSET_LIMIT, GeneratorViolation, _pack, _unpack
from oracles import falling_product


def x(i, n=2):
    return WeylOperator.x(n, i)


def d(i, n=2):
    return WeylOperator.d(n, i)


def monomial_series(n, exponent, coeff=1):
    base = tuple(Fraction(e) for e in exponent)
    return FormalSeries(base, {(0,) * n: Fraction(coeff)}, 0, FiniteSupport())


def act_on_polynomial(P, exponents):
    """Oracle: apply P to sum x^e over the given integer exponents, by the
    calculus rules, returning exponent -> coefficient."""
    out = {}
    for e in exponents:
        for (a, g), c in P.terms.items():
            coeff = Fraction(c)
            new = list(e)
            for i in range(P.nvars):
                for _ in range(g[i]):
                    coeff *= new[i]
                    new[i] -= 1
                new[i] += a[i]
            if coeff:
                key = tuple(new)
                out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def test_commutation_rule():
    # d1 * x1 = x1 d1 + 1
    assert d(0) * x(0) == x(0) * d(0) + WeylOperator.constant(2, 1)


def test_theta_factorization():
    theta = WeylOperator.theta(2, 0)
    lhs = theta * (theta - 1)
    rhs = WeylOperator.monomial(2, (2, 0), (2, 0))
    assert lhs == rhs


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_xk_dk_equals_theta_falling(k):
    n = 1
    lhs = WeylOperator.monomial(n, (k,), (k,))
    theta = WeylOperator.theta(n, 0)
    rhs = WeylOperator.constant(n, 1)
    for j in range(k):
        rhs = rhs * (theta - j)
    assert lhs == rhs


def random_operator(rng, n=2, nterms=2, deg=2):
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randint(0, deg) for _ in range(n))
        g = tuple(rng.randint(0, deg) for _ in range(n))
        terms[(a, g)] = Fraction(rng.randint(-3, 3))
    return WeylOperator(n, terms)


def test_product_matches_composed_action_on_monomials():
    rng = random.Random(11)
    box = [tuple(e) for e in itertools.product(range(6), repeat=2)]
    for _ in range(25):
        P, Q = random_operator(rng), random_operator(rng)
        PQ = P * Q
        for e in box[::7]:
            via_product = act_on_polynomial(PQ, [e])
            via_composition = {}
            mid = act_on_polynomial(Q, [e])
            for me, mc in mid.items():
                for fe, fc in act_on_polynomial(P, [me]).items():
                    via_composition[fe] = via_composition.get(fe, Fraction(0)) + mc * fc
            via_composition = {k: v for k, v in via_composition.items() if v != 0}
            assert via_product == via_composition


def test_product_associative():
    rng = random.Random(23)
    for _ in range(20):
        P, Q, R = (random_operator(rng, nterms=2, deg=1) for _ in range(3))
        assert (P * Q) * R == P * (Q * R)


def test_euler_operator_shape():
    A = make_curve((1, 2, 3))
    E = euler_operator(A, 4)
    expected = (WeylOperator.theta(3, 0) + 2 * WeylOperator.theta(3, 1)
                + 3 * WeylOperator.theta(3, 2) - 4)
    assert E == expected
    assert euler_operator(make_curve((2, 3)), 0) == (
        2 * WeylOperator.theta(2, 0) + 3 * WeylOperator.theta(2, 1))


def test_euler_eigenvalue_on_monomials():
    A = make_curve((1, 2, 3))
    rng = random.Random(5)
    for _ in range(20):
        w = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(3))
        beta = Fraction(rng.randint(-5, 5), 2)
        S = monomial_series(3, w)
        out = apply(euler_operator(A, beta), S)
        expected = A.weight(w) - beta
        got = out.terms.get((0, 0, 0), Fraction(0))
        assert got == expected


def test_box_operator_examples():
    A = make_curve((1, 2, 3))
    assert box_operator(A, (2, -1, 0)) == (
        WeylOperator.monomial(3, (0, 0, 0), (2, 0, 0))
        - WeylOperator.monomial(3, (0, 0, 0), (0, 1, 0)))
    assert box_operator(A, (-1, -1, 1)) == (
        WeylOperator.monomial(3, (0, 0, 0), (0, 0, 1))
        - WeylOperator.monomial(3, (0, 0, 0), (1, 1, 0)))
    assert box_operator(A, (0, 0, 0)).is_zero()
    with pytest.raises(NotInKernelError):
        box_operator(A, (1, 0, 0))


def test_toric_generators_match_box_operators():
    A = make_curve((1, 2, 3))
    gens = toric_generators(A)
    assert gens[0] == box_operator(A, (2, -1, 0))
    assert gens[1] == box_operator(A, (3, 0, -1))
    assert [len(g.terms) for g in toric_generators(make_curve((1, 5)))] == [2]


def test_apply_polynomial_solution():
    A = make_curve((1, 2, 3))
    phi = exponent_series(A, 4, 0, 10)
    for op in toric_generators(A) + [euler_operator(A, 4)]:
        out = apply(op, phi)
        assert not out.terms


def test_apply_no_dependence():
    S = monomial_series(3, (Fraction(1, 2), 0, 0))
    out = apply(WeylOperator.d(3, 1), S)
    assert not out.terms


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(WeylOperator.d(2, 0), monomial_series(3, (0, 0, 0)))


def test_apply_is_linear():
    rng = random.Random(3)
    n = 2
    for _ in range(10):
        P = random_operator(rng, n=n, nterms=2, deg=2)
        t1 = {tuple(rng.randint(0, 4) for _ in range(n)): Fraction(rng.randint(-4, 4))
              for _ in range(3)}
        t2 = {tuple(rng.randint(0, 4) for _ in range(n)): Fraction(rng.randint(-4, 4))
              for _ in range(3)}
        base = (Fraction(0),) * n
        s1 = FormalSeries(base, t1, 0, FiniteSupport())
        s2 = FormalSeries(base, t2, 0, FiniteSupport())
        merged = dict(t1)
        for k, v in t2.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        s12 = FormalSeries(base, merged, 0, FiniteSupport())
        lhs = apply(P, s12).terms
        r1, r2 = apply(P, s1).terms, apply(P, s2).terms
        rhs = dict(r1)
        for k, v in r2.items():
            rhs[k] = rhs.get(k, Fraction(0)) + v
        rhs = {k: v for k, v in rhs.items() if v != 0}
        assert lhs == rhs


def test_annihilation_report_nonsolution():
    # d2 applied to x2: constant term 1 survives
    S = monomial_series(2, (0, 1))
    report = annihilation_report([("d2", WeylOperator.d(2, 1))], S)
    assert report.max_violation == 1
    assert not report.annihilated


def test_annihilation_box_ball_on_built_series():
    A = make_curve((1, 2, 3))
    for beta in (Fraction(1, 2), 4):
        phi = exponent_series(A, beta, 0, 12)
        gens = [(n, op) for n, op in named_generators(A, beta, 3)]
        report = annihilation_report(gens, phi)
        assert report.max_violation == 0, report


def test_annihilation_box_ball_on_generic_point_series():
    # the generic-exponent support runs against the kernel ray direction
    from gkzcurve.basis import generic_exponent_base
    from gkzcurve.series import gamma_series

    for entries, beta in [((1, 2, 3), Fraction(1, 2)), ((1, 2, 5), 0)]:
        A = make_curve(entries)
        for j in range(A.entries[-1]):
            phi = gamma_series(A, generic_exponent_base(A, beta, j), 12)
            report = annihilation_report(named_generators(A, beta, 3), phi)
            assert report.max_violation == 0, (entries, beta, j, report)


def test_operator_repr():
    assert repr(WeylOperator.zero(2)) == "0"
    E = euler_operator(make_curve((2, 3)), 0)
    assert "x1 d1" in repr(E)


# ---------------------------------------------------------------------------
# Oracle for the integer-scaled kernel: the Fraction loop apply used to run


def reference_apply(P, S):
    """Term-by-term action over Fractions, as apply computed it before the
    integer-scaled kernel.  Also returns the offsets where a nonzero
    contribution landed."""
    if P.nvars != S.nvars:
        raise DimensionMismatchError(
            f"operator on {P.nvars} variables against {S.nvars}-variable series")

    accum: dict[tuple[int, ...], Fraction] = {}
    for u, c in S.terms.items():
        e = S.exponent(u)
        for (a, g), pc in P.terms.items():
            f = falling_product(e, g)
            if f == 0:
                continue
            w = tuple(ui - gi + ai for ui, gi, ai in zip(u, g, a))
            accum[w] = accum.get(w, Fraction(0)) + c * pc * f

    cache: dict[tuple[int, ...], bool] = {}

    def certified(offset) -> bool:
        offset = tuple(int(x) for x in offset)
        if offset in cache:
            return cache[offset]
        ok = True
        for (a, g) in P.terms:
            contrib = tuple(o + gi - ai for o, gi, ai in zip(offset, g, a))
            if S.coefficient_known(contrib) is None:
                if falling_product(S.exponent(contrib), g) != 0:
                    ok = False
                    break
        cache[offset] = ok
        return ok

    kept = {w: c for w, c in accum.items() if c != 0 and certified(w)}
    return FormalSeries(S.base, kept, S.truncation, WindowSupport(certified)), list(accum)


def reference_rows(generators, S):
    rows = []
    for name, op in generators:
        result, landed = reference_apply(op, S)
        terms = result.terms
        window = result.descriptor.predicate
        rows.append(GeneratorViolation(
            name, max((abs(c) for c in terms.values()), default=Fraction(0)),
            len(terms), sum(1 for w in landed if window(w))))
    return rows


def fraction_operator(rng, n, nterms=2):
    """nterms terms x^a d^g (fewer where two draws coincide) with non-integer
    coefficients; a term shifts each coordinate by -5..5."""
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randint(0, 5) for _ in range(n))
        g = tuple(rng.randint(0, 5) for _ in range(n))
        terms[(a, g)] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    return WeylOperator(n, terms)


def random_generators(rng, n):
    """A random binomial beside a one-term and a three-term operator, so that
    annihilation_report runs both of its paths on non-box operators."""
    return [(f"random[{k}]", fraction_operator(rng, n, k)) for k in (2, 1, 3)]


def series_variant(S: FormalSeries, variant: str, rng) -> FormalSeries:
    """plain; perturbed (one stored coefficient off by 1/2, so generators leave
    nonzero violations); chained (the image of a derivative, whose trust is a
    window predicate)."""
    if variant == "perturbed" and S.terms:
        terms = dict(S.terms)
        off = rng.choice(sorted(terms))
        terms[off] += Fraction(1, 2)
        return FormalSeries(S.base, terms, S.truncation, S.descriptor)
    if variant == "chained":
        return apply(WeylOperator.d(S.nvars, rng.randrange(S.nvars)), S)
    return S


def assert_kernel_matches_reference(generators, S, rng):
    n = S.nvars
    reach = 1 + max(c for _, op in generators for a, g in op.terms for c in a + g)
    for name, op in generators:
        got = apply(op, S)
        want, landed = reference_apply(op, S)
        assert list(got.terms.items()) == list(want.terms.items()), name
        sample = set(landed) | set(S.terms)
        sample |= {tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(20)}
        # far coordinates; the margin keeps every contributor in range, since a
        # chained series checks the range of the offsets its predicate is asked
        far = OFFSET_LIMIT - reach
        sample |= {tuple(rng.choice([-far, far, rng.randint(-far, far),
                                     rng.randint(-4, 4)]) for _ in range(n))
                   for _ in range(20)}
        for off in sample:
            assert (got.descriptor.predicate(off)
                    == want.descriptor.predicate(off)), (name, off)
    report = annihilation_report(generators, S)
    rows = reference_rows(generators, S)
    assert list(report.per_generator) == rows
    assert report.max_violation == max((r.violation for r in rows), default=0)
    return report


def basis_series(entries, beta, point, level):
    A = make_curve(entries)
    members = solution_basis(A, beta, point, s=slope(A), level=level)
    return A, [m.series for m in members]


KERNEL_SWEEP = [
    ((1, 2, 3), Fraction(1, 2)), ((1, 2, 3), 4), ((1, 2, 3), Fraction(-7, 3)),
    ((1, 3, 6, 8), Fraction(1, 3)), ((1, 3, 6, 8), 2), ((1, 5), Fraction(1, 2)),
    ((2, 3), Fraction(1, 2)), ((2, 3), 1), ((3, 5, 7), 2), ((3, 5, 7), 8),
    # a gap-route series with base (-1, 0): the random operator has, at an offset
    # where its other term landed, an uncertain contributor whose falling factor
    # in the integer coordinate vanishes, so the image stays exact there; the
    # report rows, not only apply's predicate, see the zero-factor rule
    ((3, 4), 5),
]


@pytest.mark.parametrize("entries,beta", KERNEL_SWEEP)
def test_kernel_matches_fraction_reference(entries, beta):
    rng = random.Random(f"{entries} {beta}")
    violations = 0
    for point in (PointClass.SMOOTH_STRATUM, PointClass.GENERIC):
        for level in (0, 4):
            A, series = basis_series(entries, beta, point, level)
            gens = named_generators(A, beta, 2) + random_generators(rng, A.n)
            # the first members and the last, which is the witness when there
            # is one, sharing their tables, shifts and levels as verify_basis has
            # the members of a basis share them
            with weyl._basis_tables():
                for S in series[:2] + series[2:][-1:]:
                    for variant in ("plain", "perturbed", "chained"):
                        report = assert_kernel_matches_reference(
                            gens, series_variant(S, variant, rng), rng)
                        violations += sum(r.violation != 0 for r in report.per_generator)
    assert violations > 0


def test_an_unstored_offset_at_the_truncation_level_is_a_certified_zero():
    # a lattice series read without one of its top-level terms: the support
    # puts that offset at the truncation level, so its coefficient is
    # certified 0 for every member, as the reference has it
    A, series = basis_series((1, 2, 3, 4), Fraction(1, 2), PointClass.SMOOTH_STRATUM, 3)
    gens = named_generators(A, Fraction(1, 2), 2)
    dropped = 0
    with weyl._basis_tables():
        for S in series:
            top = [u for u in S.terms if not S.descriptor.certifies(u, S.truncation - 1)]
            for u in top[:2]:
                terms = {v: c for v, c in S.terms.items() if v != u}
                thinned = FormalSeries(S.base, terms, S.truncation, S.descriptor)
                assert (list(annihilation_report(gens, thinned).per_generator)
                        == reference_rows(gens, thinned))
                dropped += 1
    assert dropped > 0


@st.composite
def curves(draw):
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        rest = draw(st.lists(st.integers(2, 9), min_size=n - 1, max_size=n - 1,
                             unique=True))
        return (1,) + tuple(sorted(rest))
    entries = tuple(sorted(draw(st.lists(st.integers(2, 9), min_size=n, max_size=n,
                                         unique=True))))
    assume(math.gcd(*entries) == 1)
    return entries


KERNEL_PROPERTY = dict(
    entries=curves(),
    beta=st.one_of(st.integers(-3, 9),
                   st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5]))),
    point=st.sampled_from([PointClass.SMOOTH_STRATUM, PointClass.GENERIC]),
    level=st.integers(0, 5),
    variant=st.sampled_from(["plain", "perturbed", "chained"]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(**KERNEL_PROPERTY)
def test_kernel_matches_fraction_reference_property(entries, beta, point, level,
                                                    variant, seed):
    rng = random.Random(seed)
    try:
        A, series = basis_series(entries, beta, point, level)
    except CurveError:        # e.g. natural beta on a smooth 2-entry matrix
        assume(False)
    gens = named_generators(A, beta, 2) + random_generators(rng, A.n)
    for S in series[:2]:
        assert_kernel_matches_reference(gens, series_variant(S, variant, rng), rng)


# ---------------------------------------------------------------------------
# Packed offsets and their range


def test_pack_round_trips_at_the_ends_of_the_range():
    ends = (-OFFSET_LIMIT, -OFFSET_LIMIT + 1, -1, 0, 1, OFFSET_LIMIT - 1, OFFSET_LIMIT)
    for n in (1, 2, 3):
        zero = _pack((0,) * n)
        for u in itertools.product(ends, repeat=n):
            assert _unpack(_pack(u), n) == u
            # a shift is one addition, also where a sum leaves the packable range
            for s in itertools.product((-OFFSET_LIMIT, -5, 5, OFFSET_LIMIT), repeat=n):
                total = tuple(a + b for a, b in zip(u, s))
                assert _unpack(_pack(u) + _pack(s) - zero, n) == total
    for bad in (OFFSET_LIMIT + 1, -OFFSET_LIMIT - 1, 2 * OFFSET_LIMIT):
        with pytest.raises(CurveError, match="outside"):
            _pack((0, bad, 0))


def test_kernel_rejects_offsets_and_shifts_past_the_range():
    base = (Fraction(1, 2), Fraction(0))
    far = FormalSeries(base, {(OFFSET_LIMIT + 1, 0): 1}, 0, FiniteSupport())
    with pytest.raises(CurveError, match="outside"):
        apply(WeylOperator.d(2, 0), far)
    with pytest.raises(CurveError, match="outside"):
        annihilation_report([WeylOperator.d(2, 0)], far)
    edge = FormalSeries(base, {(OFFSET_LIMIT, 0): 1}, 0, FiniteSupport())
    assert apply(WeylOperator.d(2, 0), edge).terms == {
        (OFFSET_LIMIT - 1, 0): OFFSET_LIMIT + Fraction(1, 2)}
    long_shift = WeylOperator.monomial(2, (OFFSET_LIMIT + 1, 0), (0, 0))
    with pytest.raises(CurveError, match="outside"):
        apply(long_shift, monomial_series(2, (0, 0)))


def test_a_coordinate_past_the_range_is_a_clipped_curve_error():
    # str() of an int past CPython's 4 300-digit limit raises ValueError outside
    # cli.main, so the range error was a ValueError there, and inside it echoed
    # all the digits; a stored offset is checked at the kernel's set-up
    for c in (10 ** 5000, -10 ** 5000, 10 ** 4000):
        with pytest.raises(CurveError, match="outside the kernel's range") as info:
            _pack((c, 0, 0))
        assert len(str(info.value)) <= 120
        far = FormalSeries((Fraction(1, 2),) * 2, {(0, c): 1}, 0, FiniteSupport())
        with pytest.raises(CurveError, match="outside the kernel's range"):
            annihilation_report([WeylOperator.d(2, 0)], far)


def test_window_predicate_checks_the_range():
    A = make_curve((1, 2, 3))
    phi = exponent_series(A, Fraction(1, 2), 0, 4)
    predicate = apply(toric_generators(A)[0], phi).descriptor.predicate
    assert predicate((OFFSET_LIMIT, -OFFSET_LIMIT, 0)) in (True, False)
    for bad in ((OFFSET_LIMIT + 1, 0, 0), (0, 0, -OFFSET_LIMIT - 1)):
        with pytest.raises(CurveError, match="outside"):
            predicate(bad)


def test_each_offset_is_classified_at_most_once_per_series(monkeypatch):
    # an offset is placed where the kernel first asks about it: by the series'
    # descriptor, or on a lattice by the level kept for the basis and the bounds
    rng = random.Random(7)
    calls = collections.Counter()
    classify = weyl._Certainty.__missing__

    def counting(known, key):
        calls[id(known.series), key] += 1
        return classify(known, key)

    monkeypatch.setattr(weyl._Certainty, "__missing__", counting)
    classified = 0
    for entries, beta in KERNEL_SWEEP:
        A, series = basis_series(entries, beta, PointClass.SMOOTH_STRATUM, 4)
        gens = named_generators(A, beta, 2)
        for S in series:
            for S in (S, series_variant(S, "chained", rng)):
                calls.clear()
                annihilation_report(gens, S)
                assert max(calls.values(), default=1) == 1, entries
                stored = {_pack(u) for u in S.terms}
                assert not {key for _, key in calls} & stored, entries
                classified += len(calls)
    assert classified > 0


def test_the_kernel_forms_products_only_outside_the_vanishing_range(monkeypatch):
    # verify (1,...,6) beta = 1/2 L4 at radius 3: term by operator term, the
    # kernel formed 43 966 falling-factor products, 10 890 of them nonzero.
    # Once per monomial and outside the vanishing range it forms 6 083, and
    # 4 514 land.
    build = weyl._SeriesKernel.monomial
    counts = collections.Counter()

    def counting(kernel, key):
        before = kernel.formed
        out = build(kernel, key)
        counts["formed"] += kernel.formed - before
        counts["nonzero"] += len(out[3])
        return out

    monkeypatch.setattr(weyl._SeriesKernel, "monomial", counting)
    A = make_curve((1, 2, 3, 4, 5, 6))
    members = solution_basis(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM, s=slope(A),
                             level=4)
    for _, report in verify_basis(A, members, Fraction(1, 2), 3):
        assert report.max_violation == 0
    assert counts == {"formed": 6083, "nonzero": 4514}


def test_the_kernel_forms_each_table_entry_once_per_basis_and_decomposes_each_offset_once(
        monkeypatch):
    # verify (1,...,6) beta = 1/2 L4 at radius 3: filled at every stored value
    # from the table of g - 1, the falling-factor tables held 525 entries;
    # formed when first read, 390, each once, as the members of the basis
    # share one table per (q, g).  Each offset classified was decomposed once
    # per series, 692 in all; with one level per offset of the basis, 161.
    formed = []
    fill = weyl._series._FallingFactors.__missing__
    decompose = weyl._series.lattice_decompose
    decomposed = 0

    def counting_fill(table, z):
        formed.append((table.q, table.g, z))
        return fill(table, z)

    def counting_decompose(basis, u):
        nonlocal decomposed
        decomposed += 1
        return decompose(basis, u)

    monkeypatch.setattr(weyl._series._FallingFactors, "__missing__", counting_fill)
    monkeypatch.setattr(weyl._series, "lattice_decompose", counting_decompose)
    A = make_curve((1, 2, 3, 4, 5, 6))
    members = solution_basis(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM, s=slope(A),
                             level=4)
    for _, report in verify_basis(A, members, Fraction(1, 2), 3):
        assert report.max_violation == 0
    assert len(formed) == 390
    assert len(set(formed)) == len(formed)
    assert decomposed == 161


def falling_table_entries_are_products(kernels):
    for kernel in kernels:
        for (q, g), table in kernel.tables.items():
            assert table.q == q and table.g == g
            for z, f in table.items():
                assert f == falling_product([Fraction(z, q)], [g]) * q ** g, (q, g, z)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(-12, 12), q=st.integers(1, 4),
       values=st.sets(st.integers(-15, 15), min_size=1, max_size=12),
       gs=st.lists(st.integers(1, 38), min_size=1, max_size=6),
       queries=st.lists(st.integers(-20, 20), max_size=8))
def test_every_falling_factor_table_entry_is_the_product(p, q, values, gs, queries):
    # one coordinate at p/q (an integer when q = 1, so its vanishing range is
    # cut); tables in the drawn order are read at the stored z = p + q u by a
    # monomial and at other z by the queries, each entry formed when first read
    assume(math.gcd(p, q) == 1)
    S = FormalSeries((Fraction(p, q),), {(t,): 1 for t in values}, 0, FiniteSupport())
    kernel = weyl._SeriesKernel(S)
    for g in gs:
        kernel.monomial(((0,), (g,)))
        for t in queries:
            kernel.table(0, g)[p + q * t]
    falling_table_entries_are_products([kernel])


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 4), members=st.lists(
           st.tuples(st.integers(-3, 3), st.integers(0, 1),
                     st.sets(st.integers(-10, 10), min_size=1, max_size=8)),
           min_size=2, max_size=4),
       gs=st.lists(st.integers(1, 38), min_size=1, max_size=5),
       queries=st.lists(st.integers(-40, 40), max_size=8))
def test_a_table_filled_for_one_member_answers_every_other(q, members, gs, queries):
    # members of one basis at base exponents p/q in lowest terms, checked in
    # turn, share one table per (q, g) keyed by z: whatever entry one member
    # formed, at a stored z or at a query, another reads as prod_{j<g} (z - q j),
    # the falling product of z/q times q^g
    residues = [r for r in range(q) if math.gcd(r, q) == 1]
    kernels = []
    with weyl._basis_tables():
        for k, r, values in members:
            p = k * q + residues[r % len(residues)]
            S = FormalSeries((Fraction(p, q),), {(t,): 1 for t in values}, 0,
                             FiniteSupport())
            kernels.append(weyl._SeriesKernel(S))
            for g in gs:
                kernels[-1].monomial(((0,), (g,)))
        tables = {(kernel.den[0], g): kernel.table(0, g) for kernel in kernels for g in gs}
        for kernel in kernels:
            for g in gs:
                assert kernel.table(0, g) is tables[q, g]
                for z in queries:
                    assert tables[q, g][z] == falling_product([Fraction(z, q)], [g]) * q ** g
    falling_table_entries_are_products(kernels)


def test_a_vanishing_range_cut_off_by_one_is_caught(monkeypatch):
    # the mutation skips the first non-vanishing term, u_i = g_i - p_i, too;
    # the Fraction reference catches it on the fixed sweep and in the property
    monkeypatch.setattr(weyl, "bisect_left", lambda coords, x: bisect_left(coords, x + 1))
    for entries, beta in KERNEL_SWEEP[:2]:
        with pytest.raises(AssertionError):
            test_kernel_matches_fraction_reference(entries, beta)
    # the property's own body and strategies, derandomized, without shrinking
    # or the example database
    body = test_kernel_matches_fraction_reference_property.hypothesis.inner_test
    property_run = settings(max_examples=40, deadline=None, database=None, derandomize=True,
                            phases=[Phase.generate])(given(**KERNEL_PROPERTY)(body))
    with pytest.raises(AssertionError):
        property_run()


# ---------------------------------------------------------------------------
# Box operators against their construction as two subtracted monomials


def monomial_box_operator(A, u):
    """d^{u_+} - d^{u_-} as box_operator built it before: two monomials
    subtracted, membership checked by the Fraction weight."""
    u = tuple(int(x) for x in u)
    if A.weight(u) != 0:
        raise NotInKernelError(f"{u} is not in ker_Z{A.entries}")
    z = (0,) * A.n
    return (WeylOperator.monomial(A.n, z, tuple(max(x, 0) for x in u))
            - WeylOperator.monomial(A.n, z, tuple(max(-x, 0) for x in u)))


def lattice_ball(basis, radius):
    """All nonzero u(m) with sum |m_i| <= radius and their coordinates, in
    lexicographic order of m: both signs, filtered from lattice_points."""
    return [(m, u) for m, u in lattice_points(basis, radius) if any(m)]


def monomial_named_generators(A, beta, radius):
    out = [("euler", euler_operator(A, beta))]
    if A.is_smooth:
        for i in range(1, A.n):
            u = [0] * A.n
            u[0], u[i] = A.entries[i], -1
            out.append((f"toric[{i + 1}]", monomial_box_operator(A, u)))
    seen = set()
    for m, u in lattice_ball(lattice_basis(A), radius):
        if next(x for x in m if x) > 0 and u not in seen:
            seen.add(u)
            out.append((f"box{list(m)}", monomial_box_operator(A, u)))
    return out


@pytest.mark.parametrize("entries", sorted({e for e, _ in KERNEL_SWEEP}))
def test_named_generators_match_the_monomial_construction(entries):
    A = make_curve(entries)
    for beta in {b for e, b in KERNEL_SWEEP if e == entries}:
        for radius in range(4):
            got = named_generators(A, beta, radius)
            want = monomial_named_generators(A, beta, radius)
            assert [name for name, _ in got] == [name for name, _ in want]
            for (name, op), (_, ref) in zip(got, want):
                assert op == ref, (radius, name)
                assert list(op.terms.items()) == list(ref.terms.items()), (radius, name)


# ---------------------------------------------------------------------------
# Division by d^w on the gap route against the Fraction division


def fraction_inverse_contiguity(S, w):
    """inverse_contiguity as it ran over Fractions with falling_product."""
    terms = {}
    for u, c in S.terms.items():
        target = tuple(ui + wi for ui, wi in zip(u, w))
        factor = falling_product(S.exponent(target), w)
        if factor == 0:
            raise ContiguityError(f"zero falling factorial at offset {u}")
        terms[target] = c / factor

    def trusted_at(offset):
        shifted = tuple(o - wi for o, wi in zip(offset, w))
        if S.coefficient_known(shifted) is None:
            return False
        return falling_product(S.exponent(offset), w) != 0

    return FormalSeries(S.base, terms, S.truncation, WindowSupport(trusted_at))


GAP_ROUTE = [(e, b) for e, b in KERNEL_SWEEP
             if not make_curve(e).is_smooth and Fraction(b).denominator == 1
             and b >= 0 and not semigroup_member(make_curve(e), int(b))]


@pytest.mark.parametrize("entries,beta", GAP_ROUTE)
def test_inverse_contiguity_matches_fraction_reference(entries, beta):
    A = make_curve(entries)
    rng = random.Random(f"{entries} {beta}")
    t = beta // A.entries[-1] + 1
    w = (0,) * (A.n - 1) + (t,)
    for point in (PointClass.SMOOTH_STRATUM, PointClass.GENERIC):
        for level in (0, 4, 8):
            # at beta - t a_n < 0 the basis is the x_0 = 0 slice the gap route lifts
            below = solution_basis(A, beta - A.entries[-1] * t, point, s=slope(A),
                                   level=level)
            lifted = solution_basis(A, beta, point, s=slope(A), level=level)
            assert len(below) == len(lifted)
            for member, target in zip(below, lifted):
                got = inverse_contiguity(member.series, w)
                want = fraction_inverse_contiguity(member.series, w)
                assert list(got.terms.items()) == list(want.terms.items())
                assert got.terms == target.series.terms
                sample = set(got.terms) | set(member.series.terms)
                sample |= {tuple(rng.randint(-6, 6) for _ in range(A.n))
                           for _ in range(40)}
                for off in sample:
                    assert (got.descriptor.predicate(off)
                            == want.descriptor.predicate(off)), off
