"""Reading a FormalSeries back from JSON, and the series entry points of tests.

series_from_json is what verify --input reads; exponent_series,
witness_series and substitute_x0 build the whole series of one exponent, and
its x_0 = 0 slice, that the tests hold the solution bases against.  solve and
verify without --input run none of it, so they do not compile this module.
"""

from __future__ import annotations

from fractions import Fraction

# lazily loaded: only a certified-zero check of substitute_x0 reads it
from . import semigroup as _semigroup
from .basis import exponent_base, generic_exponent_base
from .core import CurveError, CurveMatrix, clip, make_curve, read_rational, record
from .curves import lattice_basis
from .series import (
    FiniteSupport,
    FormalSeries,
    LatticeGammaSupport,
    SectionSupport,
    WindowSupport,
    WrongAuxiliaryShapeError,
    gamma_series,
    witness_base,
)


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise CurveError(f"{what} is a {type(x).__name__}, not a list")
    return x


def _shown(x) -> str:
    """repr(x)[:40] for an error line, or x's type where the repr would hold an
    int past CPython's 4 300-digit limit, which only cli.main lifts."""
    try:
        return repr(x)[:40]
    except ValueError:
        return type(x).__name__


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise CurveError(f"{what} {_shown(x)} is not an integer")
    return x


def _json_rational(x, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise CurveError(f"{what} {_shown(x)} is not an integer or a rational string")
    if isinstance(x, int):
        return Fraction(x)
    try:
        return read_rational(x)
    except ValueError:
        raise CurveError(f"{what} {x[:40]!r} is not a rational string p or p/q") from None
    except ZeroDivisionError:
        raise CurveError(f"{what} {x[:40]!r} is not a rational number") from None
    except OverflowError as exc:
        raise CurveError(f"{what} {x[:40]!r} has {exc}") from None


def series_from_json(data: dict, matrix: CurveMatrix | None = None) -> FormalSeries:
    """Rebuild a series from its JSON form; lattice descriptors need the matrix,
    and a series of any descriptor read against a matrix must have its length.

    Raises CurveError when a required key (of the series or of a term) is
    missing or holds a value of the wrong kind: exponents and coefficients are
    integers or rational strings, offsets lists of integers as long as the base
    exponent, the truncation an integer >= 0.  An x0_section series must carry
    the aux_matrix (1, a_1, ..., a_n) of the matrix and an aux_base whose
    entries after the first are the base exponent."""
    if not isinstance(data, dict):
        raise CurveError("series JSON is not an object")
    for key in ("base_exponent", "terms", "truncation"):
        if key not in data:
            raise CurveError(f"series JSON lacks {key!r}")
    base = tuple(_json_rational(x, "base_exponent entry")
                 for x in _json_list(data["base_exponent"], "base_exponent"))
    truncation = _json_int(data["truncation"], "truncation")
    if truncation < 0:
        raise CurveError(f"truncation must be >= 0, got {clip(truncation)}")
    terms = {}
    for t in _json_list(data["terms"], "terms"):
        if not isinstance(t, dict) or "offset" not in t or "coeff" not in t:
            raise CurveError(f"terms entry {_shown(t)} lacks 'offset' or 'coeff'")
        offset = tuple(_json_int(x, "offset entry")
                       for x in _json_list(t["offset"], "offset"))
        if len(offset) != len(base):
            raise CurveError(f"offset {_shown(list(offset))} has length {len(offset)}, "
                             f"base_exponent has {len(base)}")
        terms[offset] = _json_rational(t["coeff"], "coeff")
    kind = data.get("descriptor", "finite")
    if matrix is not None and len(base) != matrix.n:
        raise CurveError(f"{kind} series of {matrix.n} variables needs a "
                         f"base_exponent of length {matrix.n}, not {len(base)}")
    if kind == "lattice":
        if matrix is None:
            raise CurveError("lattice descriptor needs the curve matrix")
        descriptor = LatticeGammaSupport(lattice_basis(matrix), base)
    elif kind == "x0_section":
        for key in ("aux_matrix", "aux_base"):
            if key not in data:
                raise CurveError(f"x0_section series JSON lacks {key!r}")
        aux = make_curve(_json_int(x, "aux_matrix entry")
                         for x in _json_list(data["aux_matrix"], "aux_matrix"))
        aux_base = tuple(_json_rational(x, "aux_base entry")
                         for x in _json_list(data["aux_base"], "aux_base"))
        if len(aux_base) != aux.n or len(base) != aux.n - 1:
            raise CurveError(f"x0_section of {aux.n} auxiliary variables needs an "
                             f"aux_base of length {aux.n} and a base_exponent of "
                             f"length {aux.n - 1}")
        # the descriptor certifies with aux_matrix and aux_base, the kernel
        # computes with base_exponent: they must describe one series
        if matrix is not None and aux.entries != (1,) + matrix.entries:
            raise CurveError("x0_section aux_matrix is not (1, a_1, ..., a_n) of the "
                             "matrix the series is read against")
        if aux_base[1:] != base:
            raise CurveError("x0_section aux_base without its first entry differs "
                             "from base_exponent")
        descriptor = SectionSupport(LatticeGammaSupport(lattice_basis(aux), aux_base))
    elif kind == "finite":
        descriptor = FiniteSupport()
    elif kind == "window":
        # the original trust predicate is not serializable; fall back to the
        # stored offsets, which stay exact (re-verification windows shrink)
        stored = frozenset(terms)
        descriptor = WindowSupport(lambda off, _s=stored: tuple(off) in _s)
    else:
        raise CurveError(f"cannot rebuild a series with descriptor {_shown(kind)}")
    # validated above: taken as they are, only the zero coefficients dropped
    return FormalSeries._built(base, {off: c for off, c in terms.items() if c},
                               truncation, descriptor)


# ---------------------------------------------------------------------------
# Whole Gamma-series at named exponents and their x_0 = 0 substitution.  No
# command calls these: solution_basis builds through gamma_series and
# section_series, and the tests compare against them.


def exponent_series(A: CurveMatrix, beta, j: int, level: int,
                    max_terms: int | None = None) -> FormalSeries:
    """Gamma-series at the singular exponent v^j, for smooth A."""
    if not A.is_smooth:
        raise WrongAuxiliaryShapeError("direct exponent series needs a smooth matrix")
    return gamma_series(A, exponent_base(A, beta, j), level, max_terms=max_terms)


def witness_series(A: CurveMatrix, beta, level: int,
                   max_terms: int | None = None) -> FormalSeries:
    """The Gamma-series at the shifted exponent (beta + a_{n-1}, 0, ..., -1, 0).

    Its base exponent does not have minimal negative support, so it is not a
    solution: the toric generator d_1^{a_{n-1}} - d_{n-1} sends it to the finite
    meromorphic series witness_defect of tests/oracles.py, while the Euler operator
    and the other toric generators annihilate it.
    """
    if not A.is_smooth:
        raise WrongAuxiliaryShapeError("witness series needs a smooth matrix")
    base = witness_base(A, beta)
    series = gamma_series(A, base, level, max_terms=max_terms)
    if series.terms.get((0,) * A.n) != 1:
        raise CurveError(f"witness series at level {level} lacks its base term 1")
    return series


@record
class SubstitutionResult:
    series: FormalSeries
    dropped: int                   # parent terms with nonzero x_0-exponent
    certified_zero: bool           # empty and provably so (beta in N \ NA)


def _is_polynomial_family_member(aux: CurveMatrix, base, beta) -> bool:
    """Whether the base is a singular/generic exponent of the auxiliary matrix
    whose Gamma-series terminates (the distinguished coordinate is a natural
    number, so the falling factors eventually vanish)."""
    n = aux.n
    j0 = base[0]
    if j0.denominator != 1 or j0 < 0:
        return False
    j = int(j0)
    if j < aux.entries[n - 2] and base == exponent_base(aux, beta, j):
        theta = base[n - 2]
        return theta.denominator == 1 and theta >= 0
    if j < aux.entries[n - 1] and base == generic_exponent_base(aux, beta, j):
        theta = base[n - 1]
        return theta.denominator == 1 and theta >= 0
    return False


def substitute_x0(parent: FormalSeries, A: CurveMatrix) -> SubstitutionResult:
    """Set x_0 = 0 in a series built for the auxiliary matrix (1, a_1, ..., a_n).

    Keeps exactly the terms whose x_0-exponent is 0 and reindexes them over the
    remaining n variables.  The result is a formal solution for A whenever the
    parent solved the auxiliary system.  An empty result is certified to be the
    zero series only when the parent is known to be a polynomial divisible by
    x_0, which happens exactly when beta is a natural number outside the
    semigroup of A; an empty window alone proves nothing.  series.section_series
    builds the same section without the rest of the parent.
    """
    if not isinstance(parent.descriptor, LatticeGammaSupport):
        raise WrongAuxiliaryShapeError("substitution needs a lattice Gamma-series")
    aux = parent.descriptor.basis.matrix
    if aux.entries != (1,) + A.entries:
        raise WrongAuxiliaryShapeError(
            f"parent matrix {aux.entries} is not the auxiliary matrix of {A.entries}")
    if parent.base[0].denominator != 1:
        raise WrongAuxiliaryShapeError("parent base must have integer x_0 exponent")
    new_base = parent.base[1:]
    kept, dropped = {}, 0
    for off, c in parent.terms.items():
        if parent.base[0] + off[0] == 0:
            kept[off[1:]] = c
        else:
            dropped += 1
    series = FormalSeries(new_base, kept, parent.truncation,
                          SectionSupport(parent.descriptor))
    beta = aux.weight(parent.base)
    certified = (not kept) and beta.denominator == 1 and beta >= 0 \
        and not _semigroup.semigroup_member(A, int(beta)) \
        and _is_polynomial_family_member(aux, parent.base, beta)
    return SubstitutionResult(series, dropped, certified)
