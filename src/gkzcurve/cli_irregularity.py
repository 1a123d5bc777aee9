"""The irregularity-table and monodromy commands."""

from __future__ import annotations

from . import irregularity as _irregularity
from .cli_flags import UsageError, emit, parse_matrix, parse_order, parse_rational


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
