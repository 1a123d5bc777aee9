"""Gevrey diagnostics along Y = (x_n = 0): the exact coefficient streams of
the slope ray and the least-squares fit of their Gevrey index.

The fit is the one place floats enter: it reads log|c_k| of exact
coefficients and solves its normal equations exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import CurveError, CurveMatrix, IndexOutOfRangeError, check_size, clip


class InsufficientDataError(CurveError):
    """Too few coefficients for a growth-rate fit."""


def slope_subseries(A: CurveMatrix, beta, which, count: int = 200):
    """Exact coefficient stream of the one-variable subsum along the ray
    (0, ..., 0, a_n, a_{n-1}) of the kernel coordinates, indexed by the
    x_n-exponent k.

    which = "witness": c_m = (-1)^{a_n m} (a_n m)! / (a_{n-1} m)! at k = a_{n-1} m.
    which = ("exponent", j): c_m = ((beta-j)/a_{n-1})_{a_n m} / (a_{n-1} m)!
    (falling factorial), defined for 0 <= j < a_{n-1} when (beta-j)/a_{n-1} is
    not a natural number.

    Both streams realize the Gevrey index a_n/a_{n-1}.  Returns a list of
    (k, Fraction) pairs.

    Both are one recurrence: the witness stream is the exponent stream of
    theta = -1, since (-1)_k = (-1)^k k!, and with theta = p/q
        c_{m+1} / c_m = prod_{a_n m <= i < a_n (m+1)} (p - q i)
                        / (q^{a_n} prod_{a_{n-1} m < i <= a_{n-1} (m+1)} i),
    the Gamma-series ratio along the ray.  So a stream of `count` terms costs
    O(count * a_n) multiplies, and Fraction's normalisation only takes gcds
    against the small step factors.
    """
    a_pen, a_top = A.entries[-2], A.entries[-1]
    if which == "witness":
        theta = Fraction(-1)
    else:
        kind, j = which
        if kind != "exponent":
            raise CurveError(f"unknown subseries selector {which!r}")
        if not 0 <= j < a_pen:
            raise IndexOutOfRangeError(f"j={clip(j)} outside 0..{a_pen - 1}")
        theta = Fraction(Fraction(beta) - j, a_pen)
        if theta.denominator == 1 and theta >= 0:
            raise CurveError("the exponent-ray stream terminates for the polynomial slot")
    p, q = theta.numerator, theta.denominator
    out = []
    c = Fraction(1)
    for m in range(count):
        out.append((a_pen * m, c))
        check_size(c.numerator, c.denominator)
        c *= Fraction(math.prod(p - q * i for i in range(a_top * m, a_top * (m + 1))),
                      q ** a_top * math.prod(range(a_pen * m + 1, a_pen * (m + 1) + 1)))
    return out


def _log_abs(c: Fraction) -> float:
    """log |c| for possibly huge exact rationals."""

    def log_int(n: int) -> float:
        bits = n.bit_length()
        if bits <= 512:
            return math.log(n)
        shift = bits - 512
        return math.log(n >> shift) + shift * math.log(2)

    return log_int(abs(c.numerator)) - log_int(c.denominator)


def gevrey_index_estimate(stream, window: int | None = None) -> float:
    """Least-squares Gevrey-order fit of a coefficient stream.

    Fits log|c_k| = (s - 1) * lgamma(k + 1) + C*k + D over the nonzero entries
    (top half by default) and returns max(s, 1): the Gevrey index is at least 1,
    so convergent streams report 1.  Raises InsufficientDataError below 16
    nonzero coefficients."""
    points = [(k, c) for k, c in stream if c != 0]
    if len(points) < 16:
        raise InsufficientDataError(f"{len(points)} nonzero coefficients < 16")
    points.sort()
    if window is None:
        window = len(points) // 2
    points = points[-window:]
    # exact normal equations (X^T X) b = X^T y on the float data, solved for
    # b_0 by Cramer's rule.  The lgamma column is scaled to integers by 2^ex
    # and y by 2^ey, which scales b_0 by 2^(ey - ex): all sums are in int.
    lgammas, ex = _dyadic_integers([math.lgamma(k + 1.0) for k, _ in points])
    rhs, ey = _dyadic_integers([_log_abs(c) for _, c in points])
    rows = [(x, k, 1) for x, (k, _) in zip(lgammas, points)]
    gram = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    moment = [sum(r[i] * y for r, y in zip(rows, rhs)) for i in range(3)]
    det = _det3(gram)
    if det == 0:
        raise InsufficientDataError(f"{len(points)} points do not fix a 3-term fit")
    lead = Fraction(_det3([[moment[i]] + gram[i][1:] for i in range(3)]) << ex, det << ey)
    return max(1.0, 1.0 + float(lead))


def _dyadic_integers(values: list[float]) -> tuple[list[int], int]:
    """Integers n_i and one e >= 0 with values[i] == n_i / 2^e exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(d.bit_length() - 1 for _, d in ratios)
    return [n << (e - d.bit_length() + 1) for n, d in ratios], e


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
