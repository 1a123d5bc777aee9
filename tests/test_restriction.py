import math
from fractions import Fraction

import pytest

from gkzcurve import (
    BetaClass,
    Caveat,
    UnsupportedShapeError,
    WeightTag,
    auxiliary_restriction,
    b_function,
    beta_class,
    generic_rank,
    lattice_decompose,
    lattice_basis,
    make_curve,
    restrict_first_variable,
    restrict_hyperplane,
    restrict_to_plane,
)
from gkzcurve.core import IndexOutOfRangeError, NotSmoothError
from gkzcurve.restriction import WrongShapeError


def test_restrict_hyperplane_examples():
    d = restrict_hyperplane(make_curve((1, 2, 3)), Fraction(1, 2), 2)
    assert d.matrix.entries == (1, 3)
    assert d.parameter == Fraction(1, 2)
    assert d.caveat is Caveat.PROVEN_FOR_THIS_BETA
    d2 = restrict_hyperplane(make_curve((1, 2, 3, 5)), 0, 4)
    assert d2.matrix.entries == (1, 2, 3)
    assert d2.matrix.is_smooth


def test_restrict_hyperplane_errors():
    with pytest.raises(IndexOutOfRangeError):
        restrict_hyperplane(make_curve((1, 2, 3)), 0, 1)
    with pytest.raises(NotSmoothError):
        restrict_hyperplane(make_curve((2, 3, 5)), 0, 2)


def test_not_smooth_error_is_one_class_in_core_and_operators():
    from gkzcurve import core, operators
    assert operators.NotSmoothError is core.NotSmoothError
    for restrict in (lambda A: restrict_hyperplane(A, 1, 2), lambda A: restrict_to_plane(A, 1),
                     operators.toric_generators):
        with pytest.raises(core.NotSmoothError, match=r"^\(2, 3, 5\) is not smooth$"):
            restrict(make_curve((2, 3, 5)))


# str() of 10^5000 raises ValueError under the interpreter's digit limit
HUGE_INDEX_LINE = f"^i=1{'0' * 39} outside 2..3$"


def test_restrict_hyperplane_cuts_a_huge_index():
    with pytest.raises(IndexOutOfRangeError, match=HUGE_INDEX_LINE):
        restrict_hyperplane(make_curve((1, 2, 3)), 0, 10**5000)


def test_b_function_cuts_a_huge_index():
    with pytest.raises(IndexOutOfRangeError, match=HUGE_INDEX_LINE):
        b_function(make_curve((1, 2, 3)), ("standard_basis", 10**5000))


def test_restrict_hyperplane_commutes():
    A = make_curve((1, 2, 3, 5))
    # drop column 3 then column 3-of-the-result vs drop 4 then 3
    first = restrict_hyperplane(A, 1, 3).matrix           # (1,2,5)
    than = restrict_hyperplane(first, 1, 3).matrix        # (1,2)
    other = restrict_hyperplane(restrict_hyperplane(A, 1, 4).matrix, 1, 3).matrix
    assert than.entries == (1, 2) == other.entries


def test_restrict_first_variable():
    ds = restrict_first_variable(make_curve((1, 4, 6)), Fraction(1, 3))
    assert [(d.matrix.entries, d.parameter) for d in ds] == [
        ((2, 3), Fraction(1, 6)), ((2, 3), Fraction(-1, 3))]
    assert all(d.caveat is Caveat.GENERIC_BETA_ONLY for d in ds)
    single = restrict_first_variable(make_curve((1, 2, 3)), Fraction(7, 5))
    assert [(d.matrix.entries, d.parameter) for d in single] == [
        ((2, 3), Fraction(7, 5))]
    with pytest.raises(WrongShapeError):
        restrict_first_variable(make_curve((1, 2, 3, 5)), 0)


def test_restrict_to_plane():
    ds = restrict_to_plane(make_curve((1, 3, 6, 8)), Fraction(1, 2))
    assert [(d.matrix.entries, d.parameter) for d in ds] == [
        ((3, 4), Fraction(1, 4)), ((3, 4), Fraction(-1, 4))]
    assert all(d.caveat is Caveat.GENERIC_BETA_ONLY for d in ds)
    one = restrict_to_plane(make_curve((1, 2, 3, 5)), 9)
    assert [(d.matrix.entries, d.parameter) for d in one] == [((3, 5), 9)]
    # for n = 3 this is the same statement as the x1 restriction
    a, b = restrict_to_plane(make_curve((1, 4, 6)), 2), restrict_first_variable(
        make_curve((1, 4, 6)), 2)
    assert [(d.matrix.entries, d.parameter) for d in a] == \
        [(d.matrix.entries, d.parameter) for d in b]


def test_auxiliary_restriction_small_example():
    desc, witness = auxiliary_restriction(make_curve((2, 3)), Fraction(1, 2))
    assert desc.matrix.entries == (2, 3) and desc.parameter == Fraction(1, 2)
    assert witness.auxiliary.entries == (1, 2, 3)


def test_auxiliary_restriction_witness():
    A = make_curve((3, 5, 7))
    desc, witness = auxiliary_restriction(A, Fraction(1, 2))
    assert desc.matrix is A and desc.parameter == Fraction(1, 2)
    assert witness.auxiliary.entries == (1, 3, 5, 7)
    # Q_1 = d_0 d_1^2 - d_3 encodes 1 + 2*3 = 7
    q1 = witness.q_operators[0]
    assert set(q1.terms) == {((0,) * 4, (1, 2, 0, 0)), ((0,) * 4, (0, 0, 0, 1))}
    # every Q_i and P_1 is a binomial with exponent difference in ker(A')
    basis = lattice_basis(witness.auxiliary)
    for op in witness.q_operators + (witness.p1,):
        (a1, g1), (a2, g2) = sorted(op.terms)
        diff = tuple(x - y for x, y in zip(g1, g2))
        assert lattice_decompose(basis, diff) is not None
    with pytest.raises(WrongShapeError):
        auxiliary_restriction(make_curve((1, 2, 3)), 0)


def test_b_function_examples():
    bf = b_function(make_curve((1, 4, 6)), WeightTag.FIRST_COORDINATE)
    assert bf.roots == (0, 1)
    assert bf.caveat is Caveat.GENERIC_BETA_ONLY
    assert b_function(make_curve((1, 2, 3)), ("standard_basis", 2)).roots == (0,)
    assert b_function(make_curve((1, 3, 5, 7)), WeightTag.FIRST_COORDINATE).roots == (0,)


def test_b_function_root_count_is_gcd():
    for a2, a3 in [(4, 6), (2, 4), (6, 9), (2, 3)]:
        A = make_curve((1, a2, a3))
        bf = b_function(A, WeightTag.FIRST_COORDINATE)
        assert bf.degree == math.gcd(a2, a3)
        assert bf.roots == tuple(range(math.gcd(a2, a3)))


def test_b_function_unsupported():
    with pytest.raises(UnsupportedShapeError):
        b_function(make_curve((1, 2, 4, 6)), WeightTag.FIRST_COORDINATE)
    with pytest.raises(UnsupportedShapeError):
        b_function(make_curve((2, 3)), WeightTag.FIRST_COORDINATE)
    with pytest.raises(UnsupportedShapeError):
        b_function(make_curve((3, 5, 7)), ("standard_basis", 2))


def test_generic_rank():
    assert generic_rank(make_curve((1, 2, 3))) == 3
    assert generic_rank(make_curve((1, 4, 6))) == 6
    assert generic_rank(make_curve((2, 3))) == 3


def test_rank_additivity_over_x1_split():
    for entries in [(1, 4, 6), (1, 2, 3), (1, 6, 9), (1, 2, 8)]:
        A = make_curve(entries)
        summands = restrict_first_variable(A, Fraction(1, 7))
        assert generic_rank(A) == sum(generic_rank(d.matrix) for d in summands)


def test_restriction_parameter_classes_consistent():
    # if beta is not an integer then no summand parameter (beta - i)/k is an
    # integer... unless k divides into it; the caveat flag covers the rest
    A = make_curve((1, 3, 6, 8))
    for num in range(-10, 11):
        beta = Fraction(num, 7)          # never an integer unless 7 | num
        summands = restrict_to_plane(A, beta)
        if beta.denominator != 1:
            for d in summands:
                assert beta_class(d.matrix, d.parameter).category is BetaClass.NON_INTEGER \
                    or d.caveat is Caveat.GENERIC_BETA_ONLY
