import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzcurve import (
    exponent_series,
    generic_exponents,
    make_curve,
    polynomial_exponent_index,
    singular_exponents,
)
from oracles import has_minimal_negative_support


SMOOTH = [(1, 2, 3), (1, 2, 5), (1, 3, 4, 5), (1, 3, 4), (1, 5)]


# ---------------------------------------------------------------------------
# Oracle: the initial ideal in_w(I_A) of the toric ideal, derived from the
# Graver basis of ker(a_1 ... a_n), which contains every reduced Groebner basis
# of I_A (Sturmfels, Groebner Bases and Convex Polytopes, 1996).  The fake
# exponents are read off its top-dimensional standard pairs (Saito-Sturmfels-
# Takayama, Groebner Deformations of Hypergeometric Differential Equations,
# ch. 3).  Monomials d^p are exponent tuples p; variable indices are 1-based.


def dot(w, p):
    return sum(x * y for x, y in zip(w, p))


def divides(g, m):
    return all(x <= y for x, y in zip(g, m))


def monomials(n, top):
    """The exponents in N^n of 1-norm at most top."""
    if n == 0:
        yield ()
        return
    for k in range(top + 1):
        for rest in monomials(n - 1, top - k):
            yield (k,) + rest


def subsums(a, p):
    """{a.p' : 0 <= p' <= p}."""
    sums = {0}
    for a_i, p_i in zip(a, p):
        sums = {s + k * a_i for s in sums for k in range(p_i + 1)}
    return sums


def graver_basis(a):
    """The binomials d^p - d^q, p > q lexicographically, of the primitive
    relations of ker(a): a.p = a.q = d, disjoint supports, and no p' <= p,
    q' <= q with 0 < a.p' = a.q' < d.  Each part of a primitive relation has
    1-norm at most a_n, so the monomials up to that norm hold every part."""
    by_degree = defaultdict(list)
    for p in monomials(len(a), a[-1]):
        by_degree[dot(a, p)].append(p)
    out = []
    for d, parts in by_degree.items():
        sums = {p: subsums(a, p) for p in parts}
        out += [(p, q) for q, p in itertools.combinations(parts, 2)     # parts ascend
                if not any(x and y for x, y in zip(p, q)) and sums[p] & sums[q] == {0, d}]
    return out


def initial_ideal(a, w):
    """The minimal generators of in_w(I_A) and the Graver binomials whose two
    monomials tie under w.  The w-initial forms of the Graver basis generate
    in_w(I_A); a tied form is the binomial itself, so the ideal is the monomial
    ideal of the other forms only when both monomials of every tie lie in it,
    which is asserted."""
    leads, ties = set(), []
    for p, q in graver_basis(a):
        if dot(w, p) == dot(w, q):
            ties.append((p, q))
        else:
            leads.add(max(p, q, key=lambda m: dot(w, m)))
    gens = {m for m in leads if not any(g != m and divides(g, m) for g in leads)}
    for p, q in ties:
        assert all(any(divides(g, m) for g in gens) for m in (p, q)), (a, w, p, q)
    return gens, ties


def top_standard_pairs(gens, n):
    """The standard pairs (d^b, {i}) of a monomial ideal: b_i = 0 and no
    generator divides any d^b d_i^t.  Membership depends on each exponent only
    up to the largest power of that variable among the generators, so a pair
    with b_j at that power would free d_j too; asserting that none does shows
    the pairs are top-dimensional."""
    top = [max(g[j] for g in gens) for j in range(n)]
    pairs = []
    for i in range(n):
        for b in itertools.product(*(range(1) if j == i else range(top[j] + 1)
                                     for j in range(n))):
            if not any(all(g[j] <= b[j] for j in range(n) if j != i) for g in gens):
                assert all(b[j] < top[j] for j in range(n) if j != i), (gens, b, i)
                pairs.append((b, i + 1))
    return sorted(pairs)


def fake_exponents(a, beta, pairs):
    """v_j = b_j off the face and v_i = (beta - a.b)/a_i on it."""
    out = []
    for b, i in pairs:
        v = [Fraction(x) for x in b]
        v[i - 1] = Fraction(beta - dot(a, b), a[i - 1])
        out.append(tuple(v))
    return sorted(out)


def unit(n, i, k=1):
    """d_i^k, i 1-based."""
    return tuple(k if j == i - 1 else 0 for j in range(n))


def singular_weight(a):
    """(1, a_2 + 1/4, ..., a_{n-2} + 1/4, a_{n-1} - 1/4, a_n + 1); (1, a_2 + 1) for n = 2."""
    n = len(a)
    w = [Fraction(1)] + [a[k] + Fraction(1, 4) for k in range(1, n - 2)]
    if n >= 3:
        w.append(a[n - 2] - Fraction(1, 4))
    return tuple(w + [Fraction(a[-1] + 1)])


def singular_ideal(a):
    """<d_2, ..., d_{n-2}, d_1^{a_{n-1}}, d_n>; <d_2> for n = 2."""
    n = len(a)
    if n == 2:
        return {unit(2, 2)}
    return {unit(n, i) for i in range(2, n - 1)} | {unit(n, 1, a[n - 2]), unit(n, n)}


def generic_weight(a):
    """(1, a_2 + 1/4, a_3 + 1/5, ..., a_{n-1} + 1/(n+1), a_n - 1/7)."""
    n = len(a)
    return tuple([Fraction(1)] + [a[k] + Fraction(1, k + 3) for k in range(1, n - 1)]
                 + [a[-1] - Fraction(1, 7)])


def generic_ideal(a):
    """<d_2, ..., d_{n-1}, d_1^{a_n}>."""
    n = len(a)
    return {unit(n, i) for i in range(2, n)} | {unit(n, 1, a[-1])}


def check_exponents(a, beta):
    """Both weights give their ideal, and its pairs give exactly the exponent
    lists of the package."""
    A, n = make_curve(a), len(a)
    for weight, ideal, find in [(singular_weight, singular_ideal, singular_exponents),
                                (generic_weight, generic_ideal, generic_exponents)]:
        gens, _ = initial_ideal(a, weight(a))
        assert gens == ideal(a), (a, weight.__name__)
        pairs = top_standard_pairs(gens, n)
        assert fake_exponents(a, beta, pairs) == sorted(e.vector for e in find(A, beta)), (
            a, beta, find.__name__)


# ---------------------------------------------------------------------------
# The oracle on its own: literal ideals and pairs, positive scaling, ties and
# a weight outside the cone.


def test_standard_weight_example_conditions():
    # for (1,2,3) the cone is a2*w1 > w2 > w1 and w3 > a3*w1; two weights in it
    for w in [(1, Fraction(3, 2), 4), singular_weight((1, 2, 3))]:
        assert initial_ideal((1, 2, 3), w)[0] == {(2, 0, 0), (0, 0, 1)}


@pytest.mark.parametrize("entries", SMOOTH + [(1, 2), (1, 6, 7, 8, 9)])
def test_standard_weight_admissible(entries):
    w = singular_weight(entries)
    # the initial ideal is unchanged by a positive scaling of the weight
    for scale in (1, 3, Fraction(2, 7)):
        gens, _ = initial_ideal(entries, tuple(scale * x for x in w))
        assert gens == singular_ideal(entries)


def test_initial_ideal_generators():
    assert initial_ideal((1, 2, 3), singular_weight((1, 2, 3)))[0] == {
        (2, 0, 0), (0, 0, 1)}
    assert initial_ideal((1, 2, 3, 5), singular_weight((1, 2, 3, 5)))[0] == {
        (0, 1, 0, 0), (3, 0, 0, 0), (0, 0, 0, 1)}
    # d_1^{a_i} - d_i is in the Graver basis; so is the tied d_3 d_4 - d_2^3
    graver = graver_basis((1, 3, 4, 5))
    assert ((3, 0, 0, 0), (0, 1, 0, 0)) in graver
    assert ((0, 3, 0, 0), (0, 0, 1, 1)) in graver


def test_initial_ideal_rejects_bad_weight():
    # (1,4,4) breaks a2*w1 > w2: d_2 leads d_1^2 - d_2, and the only pair frees d_1
    gens, _ = initial_ideal((1, 2, 3), (1, 4, 4))
    assert gens == {(0, 1, 0), (0, 0, 1)} != singular_ideal((1, 2, 3))
    assert top_standard_pairs(gens, 3) == [((0, 0, 0), 1)]


def test_standard_pairs():
    gens = singular_ideal((1, 2, 3))
    assert top_standard_pairs(gens, 3) == [((0, 0, 0), 2), ((1, 0, 0), 2)]
    pairs = top_standard_pairs(singular_ideal((1, 3, 4, 5)), 4)
    assert pairs == [((j, 0, 0, 0), 3) for j in range(4)]


@pytest.mark.parametrize("entries, count", [((1, 3, 4, 5), 1), ((1, 2, 3, 4, 5), 2),
                                             ((1, 2, 3, 4, 5, 6), 6)])
def test_ties_of_the_singular_weight(entries, count):
    # the weight is not generic: a tied form is a binomial, both of whose
    # monomials initial_ideal checks to lie in the monomial ideal
    _, ties = initial_ideal(entries, singular_weight(entries))
    assert len(ties) == count                   # one binomial per sign
    if entries == (1, 3, 4, 5):                 # weight (1, 13/4, 15/4, 6)
        assert ties == [((0, 3, 0, 0), (0, 0, 1, 1))]
    check_exponents(entries, Fraction(2, 3))


@settings(max_examples=60, deadline=None)
@given(rest=st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True),
       num=st.integers(-12, 12), den=st.integers(1, 5))
def test_exponents_are_the_fake_exponents_of_the_initial_ideal(rest, num, den):
    check_exponents((1,) + tuple(sorted(rest)), Fraction(num, den))


# ---------------------------------------------------------------------------
# The oracle on a general curve itself.  The commands route a general curve
# through its auxiliary matrix (1, a_1, ..., a_n).  Run on A directly, both
# smooth-curve weights give one monomial ideal whose top-dimensional pairs all
# free d_1: fake exponents ((beta - A.b)/a_1, b_2, ..., b_n), no more of them
# than the package's lists hold in the auxiliary coordinates.  Recorded here,
# changing no output; which of the two the paper's series start from is open.


@pytest.mark.parametrize("entries, ideal, direct, singular, generic", [
    ((2, 3), {(0, 2)}, 2, 2, 3),
    ((2, 5), {(0, 2)}, 2, 2, 5),
    ((3, 5, 7), {(0, 0, 2), (0, 1, 1), (0, 2, 0)}, 3, 5, 7),
])
def test_the_oracle_on_a_general_curve_itself(entries, ideal, direct, singular, generic):
    A, beta, n = make_curve(entries), Fraction(1, 2), len(entries)
    for weight in (singular_weight, generic_weight):
        gens, _ = initial_ideal(entries, weight(entries))
        assert gens == ideal, weight.__name__
        pairs = top_standard_pairs(gens, n)
        assert [i for _, i in pairs] == [1] * direct
        for pair in pairs:
            (v,) = fake_exponents(entries, beta, [pair])
            assert v[1:] == pair[0][1:] and A.weight(v) == beta
    for find, count in ((singular_exponents, singular), (generic_exponents, generic)):
        vectors = find(A, beta)
        assert len(vectors) == count
        assert all(e.auxiliary and len(e.vector) == n + 1 for e in vectors)


# ---------------------------------------------------------------------------
# The exponent lists


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
        assert has_minimal_negative_support(A, e.vector, radius=2).status is not False


def test_generic_exponents_are_minimal():
    # asserted from the proof in generic_exponents' docstring; the box search
    # is the oracle and must never find a shrinking offset
    rng = random.Random(16)
    for _ in range(40):
        entries = [1] + sorted(rng.sample(range(2, 9), rng.randint(1, 3)))
        A = make_curve(entries)
        beta = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))
        for e in generic_exponents(A, beta):
            assert has_minimal_negative_support(A, e.vector, radius=2).status is not False
    # w^2 = (2, 0, -1) keeps its negative support, but the box search over a
    # rank-2 kernel can only answer unknown
    A = make_curve((1, 2, 3))
    assert [has_minimal_negative_support(A, e.vector).status
            for e in generic_exponents(A, -1)] == [True, True, None]


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
        omega = singular_weight(entries)
        for j in range(A.entries[A.n - 2]):
            phi = exponent_series(A, beta, j, 8)
            assert phi.terms[(0,) * A.n] == 1
            for off in phi.terms:
                if any(off):
                    assert sum(w * o for w, o in zip(omega, off)) > 0
