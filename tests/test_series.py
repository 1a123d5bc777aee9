import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzcurve import (
    PointClass,
    annihilation_report,
    apply,
    box_operator,
    exponent_series,
    gamma_series,
    inverse_contiguity,
    make_curve,
    named_generators,
    negative_support,
    series_from_json,
    slope,
    solution_basis,
    substitute_x0,
    toric_generators,
    witness_series,
)
from gkzcurve.core import CurveError, IndexOutOfRangeError
from gkzcurve.curves import lattice_basis, lattice_decompose, lattice_points
from gkzcurve.basis import exponent_base, generic_exponent_base, polynomial_exponent_index
from gkzcurve.series import (
    BetaNotNaturalError,
    ContiguityError,
    FiniteSupport,
    FormalSeries,
    LatticeGammaSupport,
    SectionSupport,
    TermLimitError,
    WrongAuxiliaryShapeError,
    _support_bounds,
    section_series,
    witness_base,
)
from gkzcurve.operators import WeylOperator
from oracles import (
    apply_contiguity,
    closed_form_coefficient,
    combine,
    falling_product,
    gamma_coefficient,
    has_minimal_negative_support,
    series_match_on_window,
    witness_defect,
)


def test_negative_support():
    assert negative_support((1, -2, 0)) == {1}
    assert negative_support((Fraction(-1, 2), 3, -1)) == {2}
    assert negative_support((0, 0, 0)) == frozenset()


def test_minimal_negative_support_search():
    A = make_curve((1, 2, 3))
    ans = has_minimal_negative_support(A, (-1, 2, 0), radius=2)
    assert ans.status is False
    # any valid witness strictly shrinks the support
    w = ans.witness
    assert negative_support((-1 + w[0], 2 + w[1], 0 + w[2])) < {0}

    assert has_minimal_negative_support(A, (0, 2, 0)).status is True
    assert has_minimal_negative_support(A, (1, Fraction(-1, 2), 0)).status is True


def test_minimal_negative_support_rank_one_complete():
    A = make_curve((2, 3))
    # (-1, 0): kernel is Z(3, -2); u = t(3,-2) releases slot 0 only for t >= 1,
    # but then slot 1 goes to -2t < 0: stays non-minimal? no: slot1 = -2t is a
    # new negative integer so nsupp is not a subset -> minimal.
    ans = has_minimal_negative_support(A, (-1, 0))
    assert ans.status is True
    # (-3, 2): t=1 gives (0, 0): empty support, strictly smaller
    ans2 = has_minimal_negative_support(A, (-3, 2))
    assert ans2.status is False and ans2.witness == (3, -2)


def test_witness_base_not_minimal():
    A = make_curve((1, 2, 3))
    ans = has_minimal_negative_support(A, witness_base(A, 4), radius=4)
    assert ans.status is False


def test_gamma_coefficient_examples():
    assert gamma_coefficient((5, 0), (-2, 1)) == 20
    assert gamma_coefficient((5, 0), (-4, 2)) == 60
    assert gamma_coefficient((Fraction(1, 3), 7, -2), (0, 0, 0)) == 1


def gamma_ratio_oracle(v, u):
    """Independent Gamma(v+1)/Gamma(v+u+1) via telescoping, coordinatewise:
    u_i >= 0 -> 1/((v_i+1)...(v_i+u_i)), u_i < 0 -> v_i (v_i-1)...(v_i+u_i+1).
    A pole in the denominator makes the whole ratio 0."""
    out = Fraction(1)
    for vi, ui in zip(v, u):
        vi = Fraction(vi)
        if ui >= 0:
            den = Fraction(1)
            for k in range(1, ui + 1):
                den *= vi + k
            if den == 0:
                return Fraction(0)
            out /= den
        else:
            for k in range(-ui):
                out *= vi - k
    return out


def test_gamma_coefficient_against_ratio_oracle():
    rng = random.Random(91)
    checked = 0
    while checked < 200:
        n = rng.choice([2, 3, 4])
        v = []
        for _ in range(n):
            den = rng.choice([1, 1, 2, 3, 4])
            num = rng.randint(-8, 12)
            x = Fraction(num, den)
            if x.denominator == 1 and x < 0:
                x += 20          # keep nsupp(v) empty
            v.append(x)
        u = tuple(rng.randint(-5, 5) for _ in range(n))
        assert gamma_coefficient(v, u) == gamma_ratio_oracle(v, u)
        checked += 1


def test_exponent_bases():
    A = make_curve((1, 2, 3))
    assert exponent_base(A, Fraction(1, 2), 0) == (0, Fraction(1, 4), 0)
    assert exponent_base(A, Fraction(1, 2), 1) == (1, Fraction(-1, 4), 0)
    A4 = make_curve((1, 2, 3, 5))
    assert exponent_base(A4, 0, 2) == (2, 0, Fraction(-2, 3), 0)
    with pytest.raises(IndexOutOfRangeError):
        exponent_base(A, 0, 2)
    assert generic_exponent_base(A, 0, 1) == (1, 0, Fraction(-1, 3))


@pytest.mark.parametrize("base", [exponent_base, generic_exponent_base],
                         ids=["exponent_base", "generic_exponent_base"])
def test_exponent_bases_cut_a_huge_index(base):
    # str() of 10^5000 raises ValueError under the interpreter's digit limit
    with pytest.raises(IndexOutOfRangeError, match=f"^j=1{'0' * 39} outside 0"):
        base(make_curve((1, 2, 3)), 0, 10**5000)


def test_polynomial_gamma_series():
    A = make_curve((1, 2, 3))
    expected = {
        (Fraction(0), Fraction(2), Fraction(0)): Fraction(1),
        (Fraction(2), Fraction(1), Fraction(0)): Fraction(1),
        (Fraction(4), Fraction(0), Fraction(0)): Fraction(1, 12),
        (Fraction(1), Fraction(0), Fraction(1)): Fraction(2),
    }
    for level in (4, 8, 16):
        phi = exponent_series(A, 4, 0, level)
        assert phi.absolute_terms() == expected


def test_gamma_series_single_term_at_level_zero():
    A = make_curve((1, 2, 3))
    phi = gamma_series(A, (0, Fraction(1, 4), 0), 0)
    assert phi.absolute_terms() == {(0, Fraction(1, 4), 0): 1}


def test_gamma_series_base_coefficient_is_one():
    A = make_curve((1, 2, 3))
    for beta in (0, 4):
        wit = witness_series(A, beta, 6)
        assert wit.terms[(0, 0, 0)] == 1


def test_series_rebase_invariance():
    # Shifting the base along the kernel reproduces the same series up to the
    # exact scalar Gamma[v; u]: the 1/Gamma-normalized series x^v sum x^u /
    # Gamma(v+u+1) is shift-invariant, and the coefficient-1 normalization
    # used here rescales it by Gamma(v+1).
    A = make_curve((1, 2, 3))
    v = (0, Fraction(1, 4), 0)
    u = (2, -1, 0)
    scale = gamma_coefficient(v, u)
    assert scale != 0
    s1 = gamma_series(A, v, 10)
    v2 = tuple(Fraction(a) + b for a, b in zip(v, u))
    s2 = gamma_series(A, v2, 10)
    t1, t2 = s1.absolute_terms(), s2.absolute_terms()
    overlap = set(t1) & set(t2)
    assert len(overlap) >= 15
    for e in overlap:
        assert t1[e] == t2[e] * scale


def test_witness_bases():
    assert witness_series(make_curve((1, 2, 3)), 4, 2).base == (6, -1, 0)
    assert witness_series(make_curve((1, 2, 3)), 0, 2).base == (2, -1, 0)
    with pytest.raises(BetaNotNaturalError):
        witness_series(make_curve((1, 2, 3)), Fraction(1, 2), 2)
    with pytest.raises(WrongAuxiliaryShapeError):
        witness_series(make_curve((1, 5)), 3, 2)


def test_witness_defect_closed_form():
    A = make_curve((1, 2, 3))
    defect = witness_defect(A, 0)
    assert defect.absolute_terms() == {(0, -1, 0): 2}
    # every term sits at x_{n-1}-exponent exactly -1
    for beta in (0, 4, 5):
        for e in witness_defect(A, beta).absolute_terms():
            assert e[1] == -1


@pytest.mark.parametrize("entries,beta", [((1, 2, 3), 0), ((1, 2, 3), 4),
                                          ((1, 2, 5), 4), ((1, 3, 4, 5), 0)])
def test_witness_defect_matches_operator_application(entries, beta):
    A = make_curve(entries)
    wit = witness_series(A, beta, 12)
    p_last = toric_generators(A)[A.n - 3]     # d_1^{a_{n-1}} - d_{n-1}
    image = apply(p_last, wit)
    assert image.terms, "defect must be visible on the window"
    assert series_match_on_window(image, witness_defect(A, beta))


def test_witness_fails_only_on_the_last_toric_generator():
    A = make_curve((1, 2, 3))
    wit = witness_series(A, 4, 12)
    gens = dict(named_generators(A, 4, 1))
    assert annihilation_report([gens["euler"]], wit).max_violation == 0
    assert annihilation_report([gens["toric[3]"]], wit).max_violation == 0
    assert annihilation_report([gens["toric[2]"]], wit).max_violation > 0


def test_term_limit():
    A = make_curve((1, 2, 3))
    with pytest.raises(TermLimitError):
        gamma_series(A, (0, Fraction(1, 4), 0), 10, max_terms=3)


def _ball(rank, radius):
    """Every m in Z^rank with sum |m_i| <= radius, lexicographic."""
    if rank == 0:
        yield ()
        return
    for c in range(-radius, radius + 1):
        for rest in _ball(rank - 1, radius - abs(c)):
            yield (c,) + rest


def reference_gamma_terms(A, v, level):
    """Brute force: the whole sum |m_i| <= level ball, filtered by gamma_coefficient."""
    basis = lattice_basis(A)
    terms = {}
    for m in _ball(basis.rank, level):
        u = combine(basis, m)
        c = gamma_coefficient(v, u)
        if c != 0:
            terms[u] = c
    return terms


def _oracle_bases(A):
    n = A.n
    bases = [
        (0,) * n,
        tuple(Fraction(k, 3) for k in range(n)),              # non-integer
        tuple(-k for k in range(n)),                            # negative integers
        tuple((-1) ** k * (k + 1) for k in range(n)),           # mixed signs
    ]
    if A.is_smooth and n >= 3:
        for beta in (Fraction(1, 2), 4):
            bases += [exponent_base(A, beta, j) for j in range(A.entries[-2])]
            bases += [generic_exponent_base(A, beta, j) for j in range(A.entries[-1])]
        bases += [witness_base(A, 0), witness_base(A, 4)]
    return bases


@pytest.mark.parametrize("entries", [
    (1, 2, 3), (1, 3, 4, 5), (1, 3, 6, 8), (1, 2, 5),      # smooth
    (1, 3, 5, 7), (1, 2, 3, 5),                            # auxiliary (1, a_1, ...)
    (1, 5), (2, 3),                                        # n = 2
    (3, 5, 7), (4, 6, 9),                                  # general
])
def test_gamma_series_matches_ball_oracle(entries):
    A = make_curve(entries)
    for v in _oracle_bases(A):
        v = tuple(Fraction(x) for x in v)
        for level in range(7):
            got = gamma_series(A, v, level).terms
            assert got == reference_gamma_terms(A, v, level), (v, level)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.sampled_from([(1, 2, 3), (1, 3, 4, 5), (1, 3, 5, 7), (1, 5),
                             (2, 3), (3, 5, 7)]),
    coords=st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([1, 1, 2, 3])),
                    min_size=4, max_size=4),
    level=st.integers(0, 6),
)
def test_gamma_series_matches_ball_oracle_property(entries, coords, level):
    A = make_curve(entries)
    v = tuple(Fraction(num, den) for num, den in coords[:A.n])
    assert gamma_series(A, v, level).terms == reference_gamma_terms(A, v, level)


@pytest.mark.parametrize("entries,base", [
    ((1, 2, 3, 4, 5, 6), (0, 0, 0, 0, Fraction(1, 10), 0)),
    ((1, 3, 5, 7), (0, 0, Fraction(1, 10), 0)),
    ((1, 2, 3), (6, -1, 0)),
])
def test_every_enumerated_point_is_stored(entries, base):
    A = make_curve(entries)
    base = tuple(Fraction(x) for x in base)
    points = list(lattice_points(lattice_basis(A), 6, _support_bounds(base)))
    assert len(points) == len(gamma_series(A, base, 6).terms)


def _section_bases(A, beta):
    """The auxiliary bases solution_basis builds sections at: the singular and
    generic exponents of (1, a_1, ..., a_n), and the witness for natural beta."""
    aux = A.auxiliary()
    bases = [exponent_base(aux, beta, j) for j in range(aux.entries[-2])]
    bases += [generic_exponent_base(aux, beta, j) for j in range(aux.entries[-1])]
    if beta.denominator == 1 and beta >= 0:
        bases.append(witness_base(aux, beta))
    return bases


def assert_section_matches_substitution(A, v, level, rng):
    """section_series against substitute_x0 of the whole auxiliary series: terms
    in insertion order, base, truncation, JSON fields, and the descriptor."""
    got = section_series(A, v, level)
    want = substitute_x0(gamma_series(A.auxiliary(), v, level), A).series
    assert list(got.terms.items()) == list(want.terms.items()), (v, level)
    assert got.base == want.base and got.truncation == want.truncation == level
    assert got.to_json() == want.to_json()
    assert isinstance(got.descriptor, SectionSupport)
    assert got.descriptor.json_fields() == want.descriptor.json_fields()
    basis = lattice_basis(A)
    offsets = list(got.terms)
    offsets += [combine(basis, [rng.randint(-level - 2, level + 2)
                               for _ in range(basis.rank)]) for _ in range(12)]
    offsets += [tuple(rng.randint(-9, 9) for _ in range(A.n)) for _ in range(4)]
    for d in offsets:
        cls = got.descriptor.classify(d)
        assert cls == want.descriptor.classify(d), (v, d)
        # the descriptor places an offset at level <= truncation exactly when
        # the build stored it
        assert (isinstance(cls, int) and cls <= level) == (d in got.terms), (v, d)


SECTION_BETAS = (Fraction(1, 2), Fraction(-7, 3), 0, 8, 1, 2, -1, -4)


@pytest.mark.parametrize("entries", [(3, 5, 7), (2, 3), (3, 4, 5), (2, 5, 7)])
def test_section_build_matches_substitution(entries):
    # non-integer, natural (0, 8, and 2 for (2, 3) and (2, 5, 7)), gap (1,
    # and 2 for (3, 5, 7) and (3, 4, 5)) and negative-integer parameters
    A = make_curve(entries)
    rng = random.Random(str(entries))
    for beta in SECTION_BETAS:
        for v in _section_bases(A, Fraction(beta)):
            for level in range(9):
                assert_section_matches_substitution(A, v, level, rng)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.integers(2, 9), min_size=2, max_size=3, unique=True),
    beta=st.tuples(st.integers(-12, 12), st.sampled_from([1, 1, 2, 3])),
    pick=st.integers(0, 100),
    level=st.integers(0, 5),
)
def test_section_build_matches_substitution_property(entries, beta, pick, level):
    entries = sorted(entries)
    if math.gcd(*entries) != 1:
        entries.append(entries[-1] + 1)         # consecutive entries are coprime
    A = make_curve(entries)
    bases = _section_bases(A, Fraction(*beta))
    assert_section_matches_substitution(A, bases[pick % len(bases)], level,
                                        random.Random(pick))


def test_section_of_a_negative_integer_x0_exponent_is_empty():
    A = make_curve((3, 5, 7))
    for v0 in (-1, -3):
        v = (Fraction(v0), Fraction(1, 2), 0, 0)
        got = section_series(A, v, 8)
        assert got.is_zero() and got.base == v[1:] and got.truncation == 8
        assert gamma_series(A.auxiliary(), v, 8).terms    # the parent is not empty
        assert got == substitute_x0(gamma_series(A.auxiliary(), v, 8), A).series
    with pytest.raises(WrongAuxiliaryShapeError):
        section_series(A, (Fraction(1, 2), 0, 0, 0), 4)


def test_section_term_limit_counts_section_terms():
    A = make_curve((2, 3))
    v = exponent_base(A.auxiliary(), Fraction(1, 2), 0)
    stored = len(section_series(A, v, 12).terms)
    assert stored < len(gamma_series(A.auxiliary(), v, 12).terms)
    assert len(section_series(A, v, 12, max_terms=stored).terms) == stored
    with pytest.raises(TermLimitError):
        section_series(A, v, 12, max_terms=stored - 1)


def negative_support_classify(descriptor, offset):
    """LatticeGammaSupport.classify by the negative_support rule over Fractions."""
    m = lattice_decompose(descriptor.basis, offset)
    if m is None:
        return None
    w = tuple(b + o for b, o in zip(descriptor.base, offset))
    if negative_support(w) != negative_support(descriptor.base):
        return None
    return sum(abs(c) for c in m)


@pytest.mark.parametrize("entries", [(1, 2, 3), (1, 3, 6, 8), (1, 3, 5, 7), (2, 3),
                                     (3, 5, 7)])
def test_integer_classify_matches_the_negative_support_rule(entries):
    A = make_curve(entries)
    basis = lattice_basis(A)
    rng = random.Random(str(entries))
    guarded = 0
    for v in _oracle_bases(A):
        descriptor = LatticeGammaSupport(basis, v)
        offsets = [combine(basis, [rng.randint(-6, 6) for _ in range(basis.rank)])
                   for _ in range(80)]
        offsets += [tuple(rng.randint(-9, 9) for _ in range(A.n)) for _ in range(20)]
        for u in offsets:
            want = negative_support_classify(descriptor, u)
            assert descriptor.classify(u) == want, (v, u)
            guarded += want is None and lattice_decompose(basis, u) is not None
    assert guarded > 0


def _closed_form_mismatches(A, beta, j, level):
    """Stored terms of exponent_series with kernel coordinates m >= 0 that differ
    from closed_form_coefficient, and the number of such terms checked."""
    basis = lattice_basis(A)
    bad, checked = [], 0
    for u, c in exponent_series(A, beta, j, level).terms.items():
        m = lattice_decompose(basis, u)
        if all(x >= 0 for x in m):
            checked += 1
            if c != closed_form_coefficient(A, beta, j, m):
                bad.append((u, m, c))
    return bad, checked


@pytest.mark.parametrize("entries", [
    (1, 2, 3), (1, 2, 5), (1, 4, 6), (1, 3, 6, 8), (1, 2, 3, 4, 5, 6),
    (1, 3, 5, 7),                                          # auxiliary of (3, 5, 7)
])
@pytest.mark.parametrize("beta", [0, 4, Fraction(1, 2), Fraction(-7, 3)])
def test_exponent_series_matches_closed_form(entries, beta):
    A = make_curve(entries)
    for j in range(A.entries[-2]):
        for level in range(9):
            bad, checked = _closed_form_mismatches(A, beta, j, level)
            assert checked > 0 and bad == [], (j, level, bad[:3])


@settings(max_examples=40, deadline=None)
@given(
    tail=st.lists(st.integers(2, 11), min_size=2, max_size=4, unique=True),
    beta=st.tuples(st.integers(-12, 12), st.sampled_from([1, 2, 3, 5])),
    j_seed=st.integers(0, 100),
    level=st.integers(0, 5),
)
def test_exponent_series_matches_closed_form_property(tail, beta, j_seed, level):
    A = make_curve([1] + sorted(tail))
    beta = Fraction(*beta)
    j = j_seed % A.entries[-2]
    bad, checked = _closed_form_mismatches(A, beta, j, level)
    assert checked > 0 and bad == []


def test_witness_series_needs_a_nonnegative_level():
    with pytest.raises(CurveError):
        witness_series(make_curve((1, 2, 3)), 4, -1)


def test_substitution_example():
    A = make_curve((2, 3))
    parent = exponent_series(A.auxiliary(), Fraction(1, 2), 0, 12)
    sub = substitute_x0(parent, A)
    assert sub.series.base == (Fraction(1, 4), 0)
    assert sub.series.terms[(-3, 2)] == Fraction(21, 128)
    assert not sub.certified_zero
    # the substituted series solves the system of A
    report = annihilation_report(named_generators(A, Fraction(1, 2), 3), sub.series)
    assert report.max_violation == 0


def test_substitution_zero_detection():
    # beta in N outside the semigroup: the polynomial slot dies at x_0 = 0
    A = make_curve((3, 5, 7))
    beta = 2
    q = polynomial_exponent_index(A.auxiliary(), beta)
    parent = exponent_series(A.auxiliary(), beta, q, 12)
    sub = substitute_x0(parent, A)
    assert sub.series.is_zero()
    assert sub.certified_zero


def test_substitution_ray_structure():
    # Delta_0 contains the origin and, within the window, the ray step
    # (0, ..., 0, a_n, a_{n-1}) in the m-coordinates.
    A = make_curve((2, 3))
    parent = exponent_series(A.auxiliary(), Fraction(1, 2), 0, 12)
    sub = substitute_x0(parent, A).series
    assert sub.terms[(0, 0)] == 1            # lambda = 0 in Delta_0
    # m-ray step for aux (1,2,3): m -> m + (3, 2): offset step (-3, 2)
    assert (-3, 2) in sub.terms and (-6, 4) in sub.terms


def test_substitution_wrong_shape():
    A = make_curve((2, 3))
    other = exponent_series(make_curve((1, 2, 5)), Fraction(1, 2), 0, 4)
    with pytest.raises(WrongAuxiliaryShapeError):
        substitute_x0(other, A)


def test_substitution_commutes_with_x0_free_operators():
    # operators not touching x_0/d_0 commute with the substitution on the window
    A = make_curve((2, 3))
    aux = A.auxiliary()
    parent = exponent_series(aux, Fraction(1, 2), 0, 12)
    sub = substitute_x0(parent, A).series
    cases = [
        (box_operator(aux, (0, 3, -2)), box_operator(A, (3, -2))),        # annihilates
        (WeylOperator.d(3, 2), WeylOperator.d(2, 1)),                     # does not
        (WeylOperator.monomial(3, (0, 1, 0), (0, 0, 1)),
         WeylOperator.monomial(2, (1, 0), (0, 1))),
    ]
    for op_parent, op_child in cases:
        applied_then_sub = apply(op_parent, parent)
        sub_then_applied = apply(op_child, sub)
        child = sub_then_applied.terms
        x0_exp = parent.base[0]
        parent_slice = {off[1:]: c for off, c in applied_then_sub.terms.items()
                        if x0_exp + off[0] == 0}
        common = set(child) & set(parent_slice) if child or parent_slice else set()
        for off in common:
            assert child[off] == parent_slice[off]
        # at least the x0-slice of the parent image must be reproduced
        for off, c in parent_slice.items():
            got = sub_then_applied.coefficient_known(off)
            if got is not None:
                assert got == c
    # sanity: the derivative case really produces terms on both sides
    nonzero = apply(WeylOperator.d(2, 1), sub)
    assert nonzero.terms


def test_contiguity_forward():
    A = make_curve((1, 2, 3))
    # w = 0 is the identity
    phi = exponent_series(A, 4, 0, 8)
    same = apply_contiguity(phi, (0, 0, 0))
    assert same.terms == phi.terms
    # a single monomial drops its exponent
    single = gamma_series(A, (0, Fraction(1, 4), 0), 0)
    derived = apply_contiguity(single, (0, 1, 0))
    assert derived.absolute_terms() == {
        (0, Fraction(-3, 4), 0): Fraction(1, 4)}


def test_contiguity_preserves_annihilation():
    # solutions for beta' = beta - A.w map to solutions for beta
    A = make_curve((3, 5, 7))
    w = (1, 0, 0)
    beta = Fraction(1, 2)                    # target parameter
    beta_src = beta + A.weight(w)            # 7/2
    aux = A.auxiliary()
    parent = exponent_series(aux, beta_src, 0, 14)
    src = substitute_x0(parent, A).series
    assert annihilation_report(named_generators(A, beta_src, 2), src).max_violation == 0
    out = apply_contiguity(src, w)
    report = annihilation_report(named_generators(A, beta, 2), out)
    assert report.max_violation == 0
    assert out.terms, "image should not vanish on the window"


def test_inverse_contiguity_roundtrip():
    A = make_curve((1, 2, 3))
    phi = exponent_series(A, Fraction(1, 2), 0, 8)
    lifted = inverse_contiguity(phi, (0, 0, 2))
    back = apply_contiguity(lifted, (0, 0, 2))
    assert back.terms == phi.terms


def test_inverse_contiguity_raises_on_a_vanishing_factor():
    # (0 + (-1) + 1)_1 = 0 at the only term
    single = FormalSeries((Fraction(0), Fraction(1, 2)), {(-1, 0): 1}, 0, FiniteSupport())
    with pytest.raises(ContiguityError):
        inverse_contiguity(single, (1, 0))
    assert inverse_contiguity(single, (0, 1)).terms == {
        (-1, 1): Fraction(2, 3)}


def test_serialization_roundtrip():
    A = make_curve((1, 2, 3))
    phi = exponent_series(A, Fraction(1, 2), 1, 8)
    data = json.loads(json.dumps(phi.to_json()))
    back = series_from_json(data, matrix=A)
    assert back.base == phi.base
    assert back.terms == phi.terms
    assert back.truncation == phi.truncation
    # deterministic term order: strictly increasing offsets
    offsets = [tuple(t["offset"]) for t in data["terms"]]
    assert offsets == sorted(offsets)

    # section descriptor carries enough to rebuild
    Ag = make_curve((2, 3))
    sub = substitute_x0(exponent_series(Ag.auxiliary(), Fraction(1, 2), 0, 10), Ag)
    data2 = sub.series.to_json()
    back2 = series_from_json(json.loads(json.dumps(data2)), matrix=Ag)
    assert back2.terms == sub.series.terms
    report = annihilation_report(named_generators(Ag, Fraction(1, 2), 2), back2)
    assert report.max_violation == 0


@pytest.mark.parametrize("entries", [(1, 3, 6, 8), (1, 2)])
def test_lattice_series_of_another_length_is_refused_at_read_time(entries):
    # a 3-entry base read against a 4- or 2-entry matrix used to give a series
    # whose descriptor has another length than its offsets
    data = json.loads(json.dumps(
        exponent_series(make_curve((1, 2, 3)), Fraction(1, 2), 1, 4).to_json()))
    A = make_curve(entries)
    with pytest.raises(CurveError, match=f"^lattice series of {A.n} variables needs a "
                                         f"base_exponent of length {A.n}, not 3$"):
        series_from_json(data, A)


@pytest.mark.parametrize("entries", [(1, 3, 6, 8), (1, 2)])
def test_window_and_section_series_of_another_length_are_refused_at_read_time(entries):
    # the (3,5,7) series of both kinds were read against any matrix: a verify
    # of another length failed only at its first operator
    Ag = make_curve((3, 5, 7))
    section = substitute_x0(exponent_series(Ag.auxiliary(), Fraction(1, 2), 0, 4), Ag).series
    window = solution_basis(Ag, 2, PointClass.GENERIC, s=slope(Ag), level=4)[0].series
    A = make_curve(entries)
    for kind, series in (("x0_section", section), ("window", window)):
        data = json.loads(json.dumps(series.to_json()))
        assert data["descriptor"] == kind
        assert series_from_json(data, Ag).terms == series.terms
        with pytest.raises(CurveError, match=f"^{kind} series of {A.n} variables needs a "
                                             f"base_exponent of length {A.n}, not 3$"):
            series_from_json(data, A)


@pytest.mark.parametrize("field, index, value, match", [
    ("aux_matrix", None, [1, 2, 3, 4], "aux_matrix is not"),
    ("aux_base", 2, "7/3", "aux_base without its first entry differs"),
])
def test_a_section_whose_descriptor_contradicts_its_series_is_refused_at_read_time(
        field, index, value, match):
    # both used to be read: the descriptor then classified offsets of another
    # lattice or base than the kernel computed with, so verify reported a
    # violation on a true solution, or certified a series it did not check
    Ag = make_curve((3, 5, 7))
    section = substitute_x0(exponent_series(Ag.auxiliary(), Fraction(1, 2), 0, 4), Ag).series
    data = json.loads(json.dumps(section.to_json()))
    assert series_from_json(data, Ag).terms == section.terms
    target, key = (data, field) if index is None else (data[field], index)
    assert target[key] != value
    target[key] = value
    with pytest.raises(CurveError, match=f"^x0_section {match}"):
        series_from_json(data, Ag)


@pytest.mark.parametrize("truncation", [-1, -5, -10 ** 60])
def test_a_negative_truncation_is_refused_at_read_time(truncation):
    # a level below 0 certifies no offset that is not stored, so most rows of
    # a verify would check nothing and still read 0
    A = make_curve((1, 2, 3))
    data = json.loads(json.dumps(
        solution_basis(A, Fraction(1, 2), PointClass.SMOOTH_STRATUM, s=slope(A),
                       level=4)[0].series.to_json()))
    data["truncation"] = 0
    assert series_from_json(data, A).truncation == 0
    data["truncation"] = truncation
    with pytest.raises(CurveError, match=f"^truncation must be >= 0, got "
                                         f"{str(truncation)[:40]}$"):
        series_from_json(data, A)


@pytest.mark.parametrize("term, match", [
    ({"offset": [10 ** 5000, 0], "coeff": 1}, "^offset list has length 2, "),
    ({"offset": [[10 ** 5000], 0, 0], "coeff": 1}, "^offset entry list is not an integer$"),
    ({"offset": [0, 0, 0], "coeff": [10 ** 5000]}, "^coeff list is not an integer or "),
    ({"offset": [10 ** 5000]}, "^terms entry dict lacks 'offset' or 'coeff'$"),
    ({"offset": list(range(10 ** 5)), "coeff": 1}, r"^offset \[0, 1, 2, .* has length 100000"),
], ids=["length-long-integer", "entry-long-integer", "coeff-long-integer",
        "no-coeff-long-integer", "length-long"])
def test_a_bad_term_is_a_short_curve_error(term, match):
    # each line echoed the value whole, and where it held an int past CPython's
    # 4 300-digit str limit, series_from_json raised ValueError instead
    data = {"base_exponent": ["1/2", 0, 0], "truncation": 2, "terms": [term]}
    with pytest.raises(CurveError, match=match) as info:
        series_from_json(data)
    assert len(str(info.value)) <= 120


def test_series_from_json_takes_the_validated_values_as_they_are():
    # the same series as the converting constructor builds from the raw values:
    # p/q strings reduced, zero coefficients dropped, a repeated offset's last
    # coefficient kept, in the order of first appearance
    terms = [([0, 0, 0], "6/4"), ([1, -1, 0], 0), ([2, 0, 1], "-7"), ([0, 1, 0], 3),
             ([2, 0, 1], "0/5"), ([1, -1, 0], "-10/4"), ([3, 0, 0], "-0")]
    data = {"base_exponent": ["1/2", 0, "-3"], "truncation": 2, "descriptor": "finite",
            "terms": [{"offset": off, "coeff": c} for off, c in terms]}
    got = series_from_json(data)
    raw = {}
    for off, c in terms:
        raw[tuple(off)] = Fraction(c)
    want = FormalSeries(data["base_exponent"], raw, 2, FiniteSupport())
    assert got.base == want.base and got.truncation == 2
    assert list(got.terms.items()) == list(want.terms.items()) == [
        ((0, 0, 0), Fraction(3, 2)), ((1, -1, 0), Fraction(-5, 2)), ((0, 1, 0), 3)]
    assert all(type(c) is Fraction for c in got.terms.values())


def test_falling_product():
    assert falling_product((5, 3), (2, 1)) == 60
    assert falling_product((Fraction(1, 2),), (2,)) == Fraction(-1, 4)
    assert falling_product((3,), (5,)) == 0
