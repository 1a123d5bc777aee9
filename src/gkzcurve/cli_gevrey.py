"""The gevrey-index command: a slope stream or a factorial control, and its fit."""

from __future__ import annotations

from fractions import Fraction

from . import gevrey as _gevrey
from .cli_flags import UsageError, emit, nonnegative, parse_matrix, parse_rational
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
        stream = _gevrey.slope_subseries(A, beta, which, terms)
    else:                                   # the factorials by a running product
        stream, f = [], 1
        for k in range(terms):
            stream.append((k, Fraction(f) if args.stream == "factorial" else Fraction(1, f)))
            f *= k + 1
    estimate = _gevrey.gevrey_index_estimate(stream)
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
