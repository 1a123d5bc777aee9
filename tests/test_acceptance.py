"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (test names identify the
criteria) or `pytest -s` to see the PASS lines directly.
"""

import math
import random
import time
from fractions import Fraction

from gkzcurve import (
    BetaClass,
    Caveat,
    PointClass,
    WeightTag,
    WeylOperator,
    annihilation_report,
    apply,
    b_function,
    beta_class,
    exponent_series,
    dimension_table_diff,
    frobenius_number,
    generic_exponents,
    generic_rank,
    gevrey_index_estimate,
    make_curve,
    monodromy_rotations,
    named_generators,
    polynomial_exponent_index,
    restrict_first_variable,
    restrict_to_plane,
    singular_exponents,
    slope,
    slope_subseries,
    solution_basis,
    substitute_x0,
    verify_basis,
)
from oracles import gamma_coefficient, series_match_on_window, witness_defect

MATRICES = [(1, 2, 3), (1, 2, 5), (1, 3, 4, 5)]
BETAS = [0, 4, Fraction(1, 2), -1]


def _report(name, detail=""):
    print(f"[acceptance] {name}: PASS {detail}".rstrip())


def test_criterion_01_exponent_counts_and_shapes():
    start = time.monotonic()
    for entries in MATRICES:
        A = make_curve(entries)
        n, a_pen, a_top = A.n, entries[-2], entries[-1]
        for beta in BETAS:
            sing = singular_exponents(A, beta)
            assert len(sing) == a_pen
            for j, e in enumerate(sing):
                v = e.vector
                assert v[0] == j
                assert v[n - 2] == Fraction(Fraction(beta) - j, a_pen)
                assert all(v[i] == 0 for i in range(1, n) if i != n - 2)
                assert A.weight(v) == Fraction(beta)
            gen = generic_exponents(A, beta)
            assert len(gen) == a_top
            for e in gen:
                assert A.weight(e.vector) == Fraction(beta)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report("criterion 1 (exponent counts)", f"({elapsed:.2f}s)")


def test_criterion_02_annihilation_of_solution_bases():
    for entries in MATRICES:
        A = make_curve(entries)
        for beta in BETAS:
            start = time.monotonic()
            basis = solution_basis(A, beta, PointClass.SMOOTH_STRATUM,
                                   s=slope(A), level=12)
            witness_members = [m for m in basis if not m.is_solution]
            for member, report in verify_basis(A, basis, beta, ball_radius=3):
                assert report.max_violation == 0, (entries, beta, member.label)
            if polynomial_exponent_index(A, beta) is not None:
                assert len(witness_members) == 1
                wit = witness_members[0]
                defect_op = dict(named_generators(A, beta, 1))[wit.defect_generator]
                image = apply(defect_op, wit.series)
                assert image.terms, "defect must be nonzero on the window"
                assert series_match_on_window(image, witness_defect(A, beta))
                # no other named toric generator fails
                for name, op in named_generators(A, beta, 0):
                    if name == wit.defect_generator or name.startswith("box"):
                        continue
                    rep = annihilation_report([op], wit.series)
                    assert rep.max_violation == 0, (entries, beta, name)
            elapsed = time.monotonic() - start
            assert elapsed < 10.0, f"case {entries} beta={beta}: {elapsed:.2f}s"
    _report("criterion 2 (annihilation + witness defect)")


def test_criterion_03_polynomial_case():
    A = make_curve((1, 2, 3))
    expected = {
        (Fraction(0), Fraction(2), Fraction(0)): Fraction(1),
        (Fraction(2), Fraction(1), Fraction(0)): Fraction(1),
        (Fraction(4), Fraction(0), Fraction(0)): Fraction(1, 12),
        (Fraction(1), Fraction(0), Fraction(1)): Fraction(2),
    }
    for level in (4, 6, 9, 12, 20):
        phi = exponent_series(A, 4, 0, level)
        assert phi.absolute_terms() == expected, level
    _report("criterion 3 (polynomial case x2^2 + x1^2 x2 + x1^4/12 + 2 x1 x3)")


def test_criterion_04_gevrey_index_regression():
    start = time.monotonic()
    for entries in [(1, 2, 3), (1, 2, 5), (1, 3, 4)]:
        A = make_curve(entries)
        est = gevrey_index_estimate(slope_subseries(A, 0, "witness", 200))
        assert abs(est - float(slope(A))) < 0.05, (entries, est)
    grow = [(k, Fraction(math.factorial(k))) for k in range(200)]
    decay = [(k, Fraction(1, math.factorial(k))) for k in range(200)]
    assert abs(gevrey_index_estimate(grow) - 2.0) < 0.05
    assert abs(gevrey_index_estimate(decay) - 1.0) < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"criterion 4 took {elapsed:.2f}s"
    _report("criterion 4 (Gevrey index regression)", f"({elapsed:.2f}s)")


def test_criterion_05_published_table_reproduction():
    diff = dimension_table_diff(make_curve((1, 2, 3)), 4, Fraction(1, 2), 2)
    assert diff == {}, diff
    _report("criterion 5 (published dimension table, 24 cells)")


def test_criterion_06_b_functions_and_weyl_identity():
    assert b_function(make_curve((1, 4, 6)), WeightTag.FIRST_COORDINATE).roots == (0, 1)
    assert b_function(make_curve((1, 2, 3)), ("standard_basis", 2)).roots == (0,)
    theta = WeylOperator.theta(1, 0)
    for k in range(1, 6):
        lhs = WeylOperator.monomial(1, (k,), (k,))
        rhs = WeylOperator.constant(1, 1)
        for j in range(k):
            rhs = rhs * (theta - j)
        assert lhs == rhs, k
    _report("criterion 6 (b-function roots + x^k d^k identity)")


def test_criterion_07_restriction_consistency():
    A = make_curve((1, 4, 6))
    summands = restrict_first_variable(A, Fraction(2, 7))
    assert generic_rank(A) == 6 == sum(generic_rank(d.matrix) for d in summands)
    assert [d.matrix.entries for d in summands] == [(2, 3), (2, 3)]

    beta = Fraction(5, 3)
    plane = restrict_to_plane(make_curve((1, 3, 6, 8)), beta)
    assert [d.parameter for d in plane] == [beta / 2, (beta - 1) / 2]
    assert all(d.caveat is Caveat.GENERIC_BETA_ONLY for d in plane)
    _report("criterion 7 (rank additivity + plane restriction)")


def test_criterion_08_semigroup_and_monodromy():
    A = make_curve((3, 5, 7))
    assert frobenius_number(A) == 4
    assert beta_class(A, 4).category is BetaClass.INTEGER_OUTSIDE
    assert beta_class(A, 8).category is BetaClass.IN_SEMIGROUP
    rng = random.Random(29)
    B = make_curve((1, 2, 5))
    for _ in range(50):
        beta = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 5]))
        zeros = sum(1 for r in monodromy_rotations(B, beta) if r == 0)
        assert zeros == (1 if beta.denominator == 1 else 0), beta
    _report("criterion 8 (semigroup classification + monodromy)")


def test_criterion_09_gamma_coefficient_oracle():
    # independent oracle: telescoped Gamma(v+1)/Gamma(v+u+1)
    def oracle(v, u):
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

    rng = random.Random(4096)
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        v = []
        for _ in range(n):
            x = Fraction(rng.randint(-9, 14), rng.choice([1, 1, 2, 3, 5]))
            if x.denominator == 1 and x < 0:
                x += 25            # empty negative support
            v.append(x)
        u = tuple(rng.randint(-6, 6) for _ in range(n))
        assert gamma_coefficient(v, u) == oracle(v, u), (v, u)
    _report("criterion 9 (Gamma coefficient vs gamma-ratio oracle, 500 samples)")


def test_criterion_10_substitution():
    A = make_curve((2, 3))
    parent = exponent_series(A.auxiliary(), Fraction(1, 2), 0, 12)
    sub = substitute_x0(parent, A)
    assert sub.series.terms[(-3, 2)] == Fraction(21, 128)
    report = annihilation_report(named_generators(A, Fraction(1, 2), 3), sub.series)
    assert report.max_violation == 0
    _report("criterion 10 (x0 = 0 substitution, 21/128 coefficient)")
