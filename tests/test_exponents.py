import random
from fractions import Fraction

import pytest

from gkzcurve import (
    WeylOperator,
    exponent_series,
    generic_exponents,
    has_minimal_negative_support,
    initial_ideal_generators,
    make_curve,
    polynomial_exponent_index,
    singular_exponents,
    standard_pairs,
    standard_weight,
)
from gkzcurve.exponents import InvalidWeightError, WeightVector, weight_is_admissible


SMOOTH = [(1, 2, 3), (1, 2, 5), (1, 3, 4, 5), (1, 3, 4), (1, 5)]


def test_standard_weight_example_conditions():
    # the reference weight for (1,2,3): a2*w1 > w2 > w1 and w3 > a3*w1
    A = make_curve((1, 2, 3))
    assert weight_is_admissible(A, (1, Fraction(3, 2), 4))
    w = standard_weight(A)
    assert weight_is_admissible(A, w.entries)


@pytest.mark.parametrize("entries", SMOOTH + [(1, 2), (1, 6, 7, 8, 9)])
def test_standard_weight_admissible(entries):
    A = make_curve(entries)
    w = standard_weight(A).entries
    assert weight_is_admissible(A, w)
    # homogeneous conditions: positive scaling preserves admissibility
    assert weight_is_admissible(A, tuple(3 * x for x in w))
    assert weight_is_admissible(A, tuple(Fraction(2, 7) * x for x in w))


def test_initial_ideal_generators():
    n3 = initial_ideal_generators(make_curve((1, 2, 3)))
    assert n3 == [WeylOperator.monomial(3, (0,) * 3, (2, 0, 0)),
                  WeylOperator.monomial(3, (0,) * 3, (0, 0, 1))]
    n4 = initial_ideal_generators(make_curve((1, 2, 3, 5)))
    assert n4 == [WeylOperator.monomial(4, (0,) * 4, (0, 1, 0, 0)),
                  WeylOperator.monomial(4, (0,) * 4, (3, 0, 0, 0)),
                  WeylOperator.monomial(4, (0,) * 4, (0, 0, 0, 1))]


def test_initial_ideal_rejects_bad_weight():
    A = make_curve((1, 2, 3))
    with pytest.raises(InvalidWeightError):
        initial_ideal_generators(A, WeightVector((1, 4, 4)))


def test_standard_pairs():
    pairs = standard_pairs(make_curve((1, 2, 3)))
    assert [(p.monomial, set(p.face)) for p in pairs] == [
        ((0, 0, 0), {2}), ((1, 0, 0), {2})]
    assert len(standard_pairs(make_curve((1, 3, 4, 5)))) == 4
    assert all(p.face == frozenset({3}) for p in standard_pairs(make_curve((1, 3, 4, 5))))


def test_singular_exponents_examples():
    A = make_curve((1, 2, 3))
    vecs = [e.vector for e in singular_exponents(A, Fraction(1, 2))]
    assert vecs == [(0, Fraction(1, 4), 0), (1, Fraction(-1, 4), 0)]
    A4 = make_curve((1, 2, 3, 5))
    vecs4 = [e.vector for e in singular_exponents(A4, 7)]
    assert vecs4 == [(0, 0, Fraction(7, 3), 0), (1, 0, 2, 0), (2, 0, Fraction(5, 3), 0)]


@pytest.mark.parametrize("entries", SMOOTH)
@pytest.mark.parametrize("beta", [0, 4, Fraction(1, 2), -1])
def test_exponent_counts_and_weights(entries, beta):
    A = make_curve(entries)
    sing = singular_exponents(A, beta)
    gen = generic_exponents(A, beta)
    assert len(sing) == A.entries[A.n - 2]
    assert len(gen) == A.entries[-1]
    for e in sing + gen:
        assert A.weight(e.vector) == Fraction(beta)
    for e in sing:
        assert e.minimal is True


def test_generic_exponents_are_minimal():
    # asserted from the proof in generic_exponents' docstring; the box search
    # is the oracle and must never find a shrinking offset
    rng = random.Random(16)
    for _ in range(40):
        entries = [1] + sorted(rng.sample(range(2, 9), rng.randint(1, 3)))
        A = make_curve(entries)
        beta = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))
        for e in generic_exponents(A, beta):
            assert e.minimal is True
            assert has_minimal_negative_support(A, e.vector, radius=2).status is not False
    assert [e.minimal for e in generic_exponents(make_curve((1, 2, 3)), -1)] == [True] * 3


def test_generic_exponents_example():
    A = make_curve((1, 2, 3))
    vecs = [e.vector for e in generic_exponents(A, 0)]
    assert vecs == [(0, 0, 0), (1, 0, Fraction(-1, 3)), (2, 0, Fraction(-2, 3))]


def test_general_kind_routes_through_auxiliary():
    A = make_curve((2, 3))
    sing = singular_exponents(A, Fraction(1, 2))
    assert all(e.auxiliary for e in sing)
    assert len(sing) == 2                       # a_{n-1} of the auxiliary (1,2,3)
    assert all(len(e.vector) == 3 for e in sing)
    gen = generic_exponents(A, Fraction(1, 2))
    assert len(gen) == 3                        # a_n
    assert all(A.auxiliary().weight(e.vector) == Fraction(1, 2) for e in gen)


def test_polynomial_exponent_index():
    A = make_curve((1, 2, 3))
    assert polynomial_exponent_index(A, 4) == 0
    assert polynomial_exponent_index(A, 5) == 1
    assert polynomial_exponent_index(A, Fraction(1, 2)) is None
    assert polynomial_exponent_index(A, -3) is None
    a_pen = A.entries[A.n - 2]
    for beta in range(101):
        q = polynomial_exponent_index(A, beta)
        hits = [j for j in range(a_pen) if (beta - j) % a_pen == 0]
        assert hits == [q]


def test_initial_term_of_exponent_series():
    # the offset-0 term has coefficient 1 and minimal weight on the window
    for entries, beta in [((1, 2, 3), Fraction(1, 2)), ((1, 2, 5), 4),
                          ((1, 3, 4, 5), -1)]:
        A = make_curve(entries)
        omega = standard_weight(A).entries
        for j in range(A.entries[A.n - 2]):
            phi = exponent_series(A, beta, j, 8)
            assert phi.terms[(0,) * A.n] == 1
            for off in phi.terms:
                if any(off):
                    assert sum(w * o for w, o in zip(omega, off)) > 0
