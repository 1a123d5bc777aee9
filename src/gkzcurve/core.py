"""Curve matrices, input readers, the error family and value records.

What every gkz command runs: the flag readers' integer and rational parsing,
the CurveError classes, the row matrix A = (a_1 ... a_n) of strictly
increasing positive integers, and `@record`; also the point classes and the
slope, which the solution bases and the dimension tables both read.  The
closed forms in the entries of A and in beta (starting exponents, Gevrey
slope, dimension tables, monodromy, b-functions) need nothing more; the
integer kernel L_A lives in curves.py and the numerical semigroup in
semigroup.py.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from operator import attrgetter

# ---------------------------------------------------------------------------
# Value records: `@record` makes a class's annotated names its fields.
#
# The installed methods are shared closures, so defining a record compiles no
# code.  Semantics are those of a plain dataclass: __init__ takes the fields
# positionally or by keyword (annotations with a class value are defaults) and
# then calls __post_init__ if the class has one; __eq__ holds only between
# instances of one class; __repr__ is Name(field=value, ...).  Every record is
# frozen: __hash__ hashes the field tuple and assignment is refused.  Methods
# the class defines itself are kept.


class FrozenRecordError(AttributeError):
    """Assignment to a field of a frozen record."""


def record(cls):
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    if len(names) == 1:
        get_one = get
        get = lambda self: (get_one(self),)  # noqa: E731

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            if len(args) > len(names):
                raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
            given = dict(zip(names, args))
            for name in kwargs:
                if name not in names or name in given:
                    raise TypeError(f"{cls.__name__}() got a bad or repeated argument {name!r}")
            given.update(kwargs)
            missing = [n for n in names if n not in given and n not in defaults]
            if missing:
                raise TypeError(f"{cls.__name__}() missing arguments {missing}")
            args = [given[n] if n in given else defaults[n] for n in names]
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, get(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __hash__(self):
        return hash(get(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __repr__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls


# ---------------------------------------------------------------------------
# Input readers and size caps

# solve writes rationals as str(Fraction): "p" or "p/q", and the CLI's rational
# flags take the same.  Fraction itself would also parse decimals and
# exponents, and "1e999999999" builds a billion-digit integer before anything
# can check it.  The series build and the Gevrey streams stop at 3 * DIGIT_CAP
# bits, fewer than DIGIT_CAP digits, so whatever solve prints reads back.
RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
DIGIT_CAP = 50_000      # int() reads 50 000 digits in ~21 ms, 10^6 in ~7 s

# Most exponent values exponents or monodromy builds, checked before the
# first: vectors times their entries, or rotation numbers.  At the cap,
# `gkz exponents --matrix 1,60000 --point generic` takes ~1.0 s and prints
# 1.5 MB, `gkz monodromy --matrix 1,120000,120001` ~0.65 s (CPython 3.11).
EXPONENT_VALUE_CAP = 120_000


def read_integer(text: str) -> int:
    """int(text); OverflowError past DIGIT_CAP digits, before any is read."""
    if len(text) - text.startswith("-") > DIGIT_CAP:
        raise OverflowError(f"more than {DIGIT_CAP} digits")
    return int(text)


def read_rational(text: str) -> Fraction:
    """p or p/q (RATIONAL_TEXT): ValueError for other text, OverflowError past
    DIGIT_CAP digits, ZeroDivisionError for q = 0."""
    match = RATIONAL_TEXT.fullmatch(text)
    if not match:
        raise ValueError("not p or p/q")
    p, q = read_integer(match[1]), read_integer(match[2] or "1")
    if not q:
        raise ZeroDivisionError("zero denominator")
    return Fraction(p, q)


def clip(value) -> str:
    """str(value)[:40] for an error line.  An int, or each part of a Fraction,
    is cut to its leading digits before it is formatted, since str() of an int
    past CPython's 4 300-digit limit raises ValueError outside cli.main."""
    if isinstance(value, Fraction):
        head = clip(value.numerator)
        if value.denominator == 1 or len(head) == 40:
            return head
        return (head + "/" + clip(value.denominator))[:40]
    if not isinstance(value, int):
        return str(value)[:40]
    # |value| // 10^k keeps more than 40 of its leading digits, as
    # (bits - 1) * log10(2) - k > 39
    k = (abs(value).bit_length() - 1) * 30102 // 100_000 - 40
    if k <= 0:
        return str(value)[:40]
    return (("-" if value < 0 else "") + str(abs(value) // 10 ** k))[:40]


def check_size(num: int, den: int) -> None:
    """CurveError before a build table or stream grows past 3 * DIGIT_CAP bits."""
    if num.bit_length() > 3 * DIGIT_CAP or den.bit_length() > 3 * DIGIT_CAP:
        raise CurveError(f"an integer passes the size cap of {3 * DIGIT_CAP} bits")


# ---------------------------------------------------------------------------
# Errors


class CurveError(Exception):
    """Base class for domain errors raised by this package."""


class TooShortError(CurveError):
    """Fewer than two entries."""


class NotIncreasingError(CurveError):
    """Entries not positive or not strictly increasing."""


class GcdNotOneError(CurveError):
    """Entries of a non-smooth matrix must have gcd 1."""


class NotInKernelError(CurveError):
    """A vector expected in ker_Z(A) is not."""


class DimensionMismatchError(CurveError):
    """Vector or operator length does not match the number of variables."""


class IndexOutOfRangeError(CurveError):
    """Exponent, variable or weight index outside its allowed range."""


class NotSmoothError(CurveError):
    """Operation defined only for smooth matrices."""


# ---------------------------------------------------------------------------
# Curve matrices


class CurveKind(Enum):
    SMOOTH = "smooth"
    GENERAL = "general"


@record
class CurveMatrix:
    """Row matrix A = (a_1 ... a_n), 0 < a_1 < ... < a_n, n >= 2.

    Smooth kind means a_1 = 1 (the curve t -> (t, t^{a_2}, ...) is smooth);
    general kind means a_1 > 1, in which case gcd(a_1, ..., a_n) = 1 is required.
    """

    entries: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def kind(self) -> CurveKind:
        return CurveKind.SMOOTH if self.entries[0] == 1 else CurveKind.GENERAL

    @property
    def is_smooth(self) -> bool:
        return self.entries[0] == 1

    def weight(self, vector) -> Fraction:
        """The product A.v of the row with a rational vector of length n."""
        if len(vector) != self.n:
            raise DimensionMismatchError(
                f"vector of length {len(vector)} against {self.n} variables"
            )
        return sum((Fraction(a) * Fraction(x) for a, x in zip(self.entries, vector)),
                   Fraction(0))

    def auxiliary(self) -> "CurveMatrix":
        """The matrix A' = (1, a_1, ..., a_n) used to reduce a general curve to a
        smooth one by one extra variable x_0."""
        if self.is_smooth:
            raise CurveError("auxiliary matrix is only defined for general kind")
        return CurveMatrix((1,) + self.entries)

    def __str__(self) -> str:
        return "(" + " ".join(str(a) for a in self.entries) + ")"


def make_curve(entries) -> CurveMatrix:
    """Validate a list of integers as a curve matrix.

    Raises TooShortError (n < 2), NotIncreasingError, or GcdNotOneError
    (general kind with gcd > 1).
    """
    entries = list(entries)
    if any(a != int(a) for a in entries):
        raise NotIncreasingError(f"entries must be integers: {entries}")
    tup = tuple(int(a) for a in entries)
    if len(tup) < 2:
        raise TooShortError(f"need at least 2 entries, got {len(tup)}")
    if tup[0] < 1 or any(b <= a for a, b in zip(tup, tup[1:])):
        raise NotIncreasingError(f"entries must be positive and strictly increasing: {tup}")
    if tup[0] > 1 and math.gcd(*tup) != 1:
        raise GcdNotOneError(f"gcd{tup} = {math.gcd(*tup)} != 1")
    return CurveMatrix(tup)


# ---------------------------------------------------------------------------
# Point classes along the singular support Y = (x_n = 0) and its slope


class PointClass(Enum):
    GENERIC = "generic"            # points off Y
    SMOOTH_STRATUM = "smooth"      # Y minus Y * Z
    DEEP_STRATUM = "deep"          # Y * Z


def slope(A: CurveMatrix) -> Fraction:
    """The unique slope a_n / a_{n-1} of the system along its singular support."""
    return Fraction(A.entries[-1], A.entries[-2])
