"""The exponents and semigroup commands: closed-form data of the curve."""

from __future__ import annotations

import sys

# lazily loaded: each command reads only its own module's names, at call
# time, so it compiles only that module
from . import exponents as _exponents
from . import semigroup as _semigroup
from .cli_flags import emit, parse_matrix, parse_rational, rat_json


def exponents(args):
    A = parse_matrix(args.matrix)
    beta = parse_rational(args.beta)
    find = (_exponents.generic_exponents if args.point == "generic"
            else _exponents.singular_exponents)
    vectors = find(A, beta)
    payload = [[rat_json(x) for x in e.vector] for e in vectors]
    if vectors and vectors[0].auxiliary:
        sys.stderr.write(
            "note: auxiliary coordinates (1, a_1, ..., a_n); substitute x_0 = 0\n")
    emit(payload, args.format)
    return 0


def semigroup(args):
    A = parse_matrix(args.matrix)
    payload = {"matrix": list(A.entries), "frobenius": _semigroup.frobenius_number(A),
               "gaps": list(_semigroup.semigroup_gaps(A))}
    if args.member is not None:
        payload["value"] = args.member
        payload["is_member"] = _semigroup.semigroup_member(A, args.member)
    if args.beta is not None:
        beta = parse_rational(args.beta)
        cls = _semigroup.beta_class(A, beta)
        payload["beta"] = str(beta)
        payload["beta_class"] = cls.category.value
        if cls.residue is not None:
            payload["residue"] = str(cls.residue)
    payload["delta_exponents"] = [
        {"entry": A.entries[d.position], "delta": d.delta, "witness": list(d.witness)}
        for d in _semigroup.delta_exponents(A)]
    emit(payload, args.format)
    return 0
