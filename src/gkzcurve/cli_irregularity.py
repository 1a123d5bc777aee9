"""The gevrey-index, irregularity-table and monodromy commands."""

from __future__ import annotations

from fractions import Fraction

from . import irregularity as _irregularity
from .cli_flags import UsageError, emit, nonnegative, parse_matrix, parse_order, parse_rational
from .core import CurveError, clip, slope

# Largest stream gevrey-index builds, in factors of its last coefficient:
# terms * a_n for a slope stream, terms for a factorial control.  Memory grows
# about as the square of it; the factorial control at the cap peaks at ~90 MB.
STREAM_FACTOR_CAP = 10_000


def gevrey_index(args):
    A = parse_matrix(args.matrix)
    terms = nonnegative(args.terms, "--terms")
    if args.stream == "exponent" and args.beta is None:
        raise UsageError("--stream exponent needs --beta")
    slope_stream = args.stream in ("witness", "exponent")
    beta = parse_rational(args.beta) if slope_stream and args.beta else Fraction(0)
    factors = terms * A.entries[-1] if slope_stream else terms
    if factors > STREAM_FACTOR_CAP:
        raise CurveError(f"--terms {clip(terms)} gives a {args.stream} stream of "
                         f"{clip(factors)} factors, more than the cap of "
                         f"{STREAM_FACTOR_CAP}")
    if slope_stream:
        which = "witness" if args.stream == "witness" else ("exponent", args.j)
        stream = _irregularity.slope_subseries(A, beta, which, terms)
    else:                                   # the factorials by a running product
        stream, f = [], 1
        for k in range(terms):
            stream.append((k, Fraction(f) if args.stream == "factorial" else Fraction(1, f)))
            f *= k + 1
    estimate = _irregularity.gevrey_index_estimate(stream)
    payload = {
        "matrix": list(A.entries),
        "stream": args.stream,
        "terms": terms,
        "estimate": round(estimate, 6),
        "slope": str(slope(A)),
    }
    if args.csv:
        try:
            with open(args.csv, "w") as fh:
                fh.write("k,coefficient\n")
                for k, c in stream:
                    fh.write(f"{k},{c}\n")
        except OSError as exc:
            raise UsageError(f"cannot write --csv {args.csv}: {exc}")
        payload["csv"] = args.csv
    emit(payload, args.format)
    return 0


def _table_text(payload) -> str:
    rows = [("sheaf", "beta", "point", "deg", "dim")] + [
        (c["sheaf"], c["beta"], c["point"], c["degree"], c["dimension"])
        for c in payload["cells"]]
    return "\n".join(f"{a:<16}{b:<9}{c:<8}{d:<5}{e:<4}" for a, b, c, d, e in rows)


def irregularity_table(args):
    A = parse_matrix(args.matrix)
    s = parse_order(args.s) if args.s else None
    if args.beta_special or args.beta_generic:
        if not (args.beta_special and args.beta_generic):
            raise UsageError("reproduction mode needs both --beta-special and --beta-generic")
        b_esp = parse_rational(args.beta_special)
        b_gen = parse_rational(args.beta_generic)
        computed = _irregularity.stratum_dimension_table(A, b_esp, b_gen, s)
        expected = _irregularity.reference_dimension_table(A)
        diff = [{"cell": list(k), "computed": computed[k], "expected": expected[k]}
                for k in sorted(expected) if computed[k] != expected[k]]
        cells = [{"sheaf": k[0], "beta": k[1], "point": k[2], "degree": k[3],
                  "dimension": computed[k], "expected": expected[k]}
                 for k in sorted(expected)]
        payload = {
            "matrix": list(A.entries),
            "s": "inf" if s is None else str(s),
            "beta_special": str(b_esp),
            "beta_generic": str(b_gen),
            "cells": cells,
            "diff": diff,
            "matches_published_table": not diff,
        }
        emit(payload, args.format, _table_text)
        return 0 if not diff else 1
    if args.beta is None:
        raise UsageError("need --beta, or --beta-special with --beta-generic")
    beta = parse_rational(args.beta)
    degrees = (0, 1) if args.ext_degree is None else (args.ext_degree,)
    cells = [{"sheaf": kind.value, "beta": str(beta), "point": point.value,
              "degree": degree,
              "dimension": ans.value if ans.covered else "not_covered"}
             for kind, point, degree, ans
             in _irregularity.dimension_cells(A, beta, s, degrees)]
    payload = {"matrix": list(A.entries), "s": "inf" if s is None else str(s),
               "beta": str(beta), "cells": cells}
    emit(payload, args.format, _table_text)
    return 0


def monodromy(args):
    A = parse_matrix(args.matrix)
    beta = parse_rational(args.beta)
    rotations = _irregularity.monodromy_rotations(A, beta)
    payload = {
        "matrix": list(A.entries),
        "beta": str(beta),
        "rotations": [str(r) for r in rotations],
        "eigenvalue_one_present": any(r == 0 for r in rotations),
    }
    emit(payload, args.format)
    return 0
