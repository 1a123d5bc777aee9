"""The restrict and b-function commands."""

from __future__ import annotations

import sys

from . import restriction as _restriction
from .cli_flags import UsageError, emit, rat_json
from .core import read_integer


def _descriptor_json(desc) -> dict:
    return {"matrix": list(desc.matrix.entries), "parameter": str(desc.parameter),
            "caveat": desc.caveat.value}


def restrict(args):
    A, beta, mode = args.matrix, args.beta, args.mode
    payload = {"matrix": list(A.entries), "beta": str(beta), "mode": mode}
    if mode == "hyperplane":
        if args.index is None:
            raise UsageError("--mode hyperplane needs --index")
        desc = _restriction.restrict_hyperplane(A, beta, args.index)
        payload["summands"] = [_descriptor_json(desc)]
    elif mode == "x1":
        payload["summands"] = [_descriptor_json(d)
                               for d in _restriction.restrict_first_variable(A, beta)]
    elif mode == "plane":
        payload["summands"] = [_descriptor_json(d)
                               for d in _restriction.restrict_to_plane(A, beta)]
    else:                                   # aux
        desc, witness = _restriction.auxiliary_restriction(A, beta)
        payload["summands"] = [_descriptor_json(desc)]
        payload["auxiliary_matrix"] = list(witness.auxiliary.entries)
        payload["p1"] = repr(witness.p1)
        payload["q_operators"] = [repr(q) for q in witness.q_operators]
        payload["delta_exponents"] = [
            {"entry": A.entries[d.position], "delta": d.delta,
             "witness": list(d.witness)} for d in witness.deltas]
    payload["generic_rank"] = _restriction.generic_rank(A)
    caveats = sorted({s["caveat"] for s in payload["summands"]})
    if "generic_beta_only" in caveats:
        sys.stderr.write("caveat: parameter formulas hold for all but finitely many beta\n")
    emit(payload, args.format)
    return 0


def b_function(args):
    A = args.matrix
    if args.weight == "first":
        bf = _restriction.b_function(A, _restriction.WeightTag.FIRST_COORDINATE)
        weight_label = "(1,0,...,0)"
    elif args.weight[:1] == "e" and args.weight[1:].isdecimal():
        try:
            i = read_integer(args.weight[1:])
        except OverflowError as exc:
            raise UsageError(f"--weight e<i>: {exc}") from None
        bf = _restriction.b_function(A, ("standard_basis", i))
        weight_label = f"e_{i}"
    else:
        raise UsageError("--weight must be 'first' or 'e<i>' (e.g. e2)")
    payload = {
        "matrix": list(A.entries),
        "weight": weight_label,
        "roots": [rat_json(r) for r in bf.roots],
        "degree": bf.degree,
        "caveat": bf.caveat.value,
    }
    if bf.caveat.value == "generic_beta_only":
        sys.stderr.write("caveat: holds for all but finitely many beta\n")
    emit(payload, args.format)
    return 0
