"""Command-line front end: every operation behind deterministic JSON output.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 flag errors.
The environment variable GKZ_MAX_TERMS caps stored series terms as a safety
valve for accidental huge truncations; since only support points are
enumerated (for a general curve, only those of the x_0 = 0 section), it
bounds the build work as well.  A reader that closes stdout early ends the
command with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

# lazily loaded modules: their names are read at call time, so a command
# that never calls into one does not compile it
from . import exponents as _exponents
from . import irregularity as _irregularity
from . import restriction as _restriction
from . import series as _series
from .curves import (
    RATIONAL_TEXT,
    CurveError,
    CurveMatrix,
    beta_class,
    delta_exponents,
    frobenius_number,
    make_curve,
    semigroup_gaps,
    semigroup_member,
)


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _parse_matrix(text: str) -> CurveMatrix:
    try:
        entries = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--matrix expects comma-separated integers: {exc}")
    return make_curve(entries)


def _parse_rational(text: str) -> Fraction:
    if not RATIONAL_TEXT.fullmatch(text):
        raise UsageError(f"not a rational number p or p/q: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {text!r}") from None


def _parse_order(text: str):
    if text in ("inf", "infinity", "oo"):
        return None
    return _parse_rational(text)


def _rat_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


def _max_terms() -> int | None:
    raw = os.environ.get("GKZ_MAX_TERMS")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"GKZ_MAX_TERMS={raw!r} is not an integer")


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")
    return value


def _emit(payload, fmt: str, table_renderer=None):
    if fmt == "table" and table_renderer is not None:
        print(table_renderer(payload))
    else:
        print(json.dumps(payload))


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_exponents(args):
    A = _parse_matrix(args.matrix)
    beta = _parse_rational(args.beta)
    kind = args.point or "smooth"
    if kind == "generic":
        vectors = _exponents.generic_exponents(A, beta)
    elif kind == "smooth":
        vectors = _exponents.singular_exponents(A, beta)
    else:
        raise UsageError("exponents supports --point smooth|generic")
    payload = [[_rat_json(x) for x in e.vector] for e in vectors]
    if vectors and vectors[0].auxiliary:
        sys.stderr.write(
            "note: auxiliary coordinates (1, a_1, ..., a_n); substitute x_0 = 0\n")
    _emit(payload, args.format)
    return 0


def _serialize_member(member) -> dict:
    return {
        "label": member.label,
        "exponent": [str(x) for x in member.exponent],
        "is_solution": member.is_solution,
        "defect_generator": member.defect_generator,
        "caveats": list(member.caveats),
        "series": member.series.to_json(),
    }


def _read_members(path: str, A: CurveMatrix) -> list[_irregularity.BasisMember]:
    """Basis members from JSON emitted by solve: its whole output or the list
    of its basis entries."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read --input {path}: {exc}")
    entries = data.get("basis") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise CurveError(f"{path} holds no list of basis entries")
    members = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "series" not in entry:
            raise CurveError(f"basis entry {i} of {path} lacks 'series'")
        series = _series.series_from_json(entry["series"], matrix=A)
        members.append(_irregularity.BasisMember(
            series, entry.get("label", "series"), series.base,
            entry.get("is_solution", True), entry.get("defect_generator")))
    return members


def _cmd_solve(args):
    A = _parse_matrix(args.matrix)
    beta = _parse_rational(args.beta)
    s = _parse_order(args.s) if args.s else _irregularity.slope(A)
    point = _irregularity.PointClass(args.point or "smooth")
    members = _irregularity.solution_basis(
        A, beta, point, s=s, level=_nonnegative(args.truncation, "--truncation"),
        max_terms=_max_terms())
    payload = {
        "matrix": list(A.entries),
        "beta": str(beta),
        "point": point.value,
        "s": "inf" if s is None else str(s),
        "truncation": args.truncation,
        "slope": str(_irregularity.slope(A)),
        "basis": [_serialize_member(m) for m in members],
    }
    caveats = sorted({c for m in members for c in m.caveats})
    if caveats:
        payload["caveats"] = caveats
    _emit(payload, args.format)
    return 0


def _cmd_verify(args):
    A = _parse_matrix(args.matrix)
    beta = _parse_rational(args.beta)
    radius = _nonnegative(args.ball_radius, "--ball-radius")
    level = _nonnegative(args.truncation, "--truncation")
    if args.input:
        members = _read_members(args.input, A)
    else:
        point = _irregularity.PointClass(args.point or "smooth")
        members = _irregularity.solution_basis(A, beta, point, s=_irregularity.slope(A),
                                               level=level, max_terms=_max_terms())
    if not members:
        raise CurveError("the basis is empty: nothing was checked")
    for member in members:
        if member.series.is_zero():
            raise CurveError(f"series {member.label!r} has no nonzero term: "
                             f"nothing was checked")
    rows = []
    worst = Fraction(0)
    for member, report in _irregularity.verify_basis(A, members, beta, radius):
        worst = max(worst, report.max_violation)
        row = {"label": member.label}
        if not args.input:              # the --input row format has no is_solution
            row["is_solution"] = member.is_solution
        row["max_violation"] = str(report.max_violation)
        row["per_generator"] = [{"generator": r.name, "violation": str(r.violation)}
                                for r in report.per_generator]
        rows.append(row)
    payload = {
        "matrix": list(A.entries),
        "beta": str(beta),
        "ball_radius": radius,
        "max_violation": str(worst),
        "series": rows,
    }
    _emit(payload, args.format)
    return 0 if worst == 0 else 1


def _cmd_gevrey_index(args):
    A = _parse_matrix(args.matrix)
    terms = _nonnegative(args.terms, "--terms")
    if args.stream == "witness":
        beta = _parse_rational(args.beta) if args.beta else Fraction(0)
        stream = _irregularity.slope_subseries(A, beta, "witness", terms)
    elif args.stream == "exponent":
        if args.beta is None:
            raise UsageError("--stream exponent needs --beta")
        stream = _irregularity.slope_subseries(A, _parse_rational(args.beta),
                                               ("exponent", args.j), terms)
    elif args.stream == "factorial":
        stream = [(k, Fraction(math.factorial(k))) for k in range(terms)]
    elif args.stream == "inverse-factorial":
        stream = [(k, Fraction(1, math.factorial(k))) for k in range(terms)]
    else:
        raise UsageError(f"unknown stream {args.stream!r}")
    estimate = _irregularity.gevrey_index_estimate(stream)
    payload = {
        "matrix": list(A.entries),
        "stream": args.stream,
        "terms": terms,
        "estimate": round(estimate, 6),
        "slope": str(_irregularity.slope(A)),
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
    _emit(payload, args.format)
    return 0


def _table_text(payload) -> str:
    lines = []
    header = f"{'sheaf':<16}{'beta':<9}{'point':<8}{'deg':<5}{'dim':<4}"
    lines.append(header)
    for row in payload["cells"]:
        lines.append(f"{row['sheaf']:<16}{row['beta']:<9}{row['point']:<8}"
                     f"{row['degree']:<5}{row['dimension']:<4}")
    return "\n".join(lines)


def _cmd_irregularity_table(args):
    A = _parse_matrix(args.matrix)
    s = _parse_order(args.s) if args.s else None
    if args.beta_special or args.beta_generic:
        if not (args.beta_special and args.beta_generic):
            raise UsageError("reproduction mode needs both --beta-special and --beta-generic")
        b_esp = _parse_rational(args.beta_special)
        b_gen = _parse_rational(args.beta_generic)
        computed = _irregularity.stratum_dimension_table(A, b_esp, b_gen, s)
        expected = _irregularity.reference_dimension_table(A)
        diff = _irregularity.dimension_table_diff(A, b_esp, b_gen, s)
        cells = [{"sheaf": k[0], "beta": k[1], "point": k[2], "degree": k[3],
                  "dimension": computed[k], "expected": expected[k]}
                 for k in sorted(expected)]
        payload = {
            "matrix": list(A.entries),
            "s": "inf" if s is None else str(s),
            "beta_special": str(b_esp),
            "beta_generic": str(b_gen),
            "cells": cells,
            "diff": [{"cell": list(k), "computed": v[0], "expected": v[1]}
                     for k, v in sorted(diff.items())],
            "matches_published_table": not diff,
        }
        _emit(payload, args.format, _table_text)
        return 0 if not diff else 1
    if args.beta is None:
        raise UsageError("need --beta, or --beta-special with --beta-generic")
    beta = _parse_rational(args.beta)
    degrees = (0, 1) if args.ext_degree is None else (args.ext_degree,)
    cells = [{"sheaf": kind.value, "beta": str(beta), "point": point.value,
              "degree": degree,
              "dimension": ans.value if ans.covered else "not_covered"}
             for kind, point, degree, ans
             in _irregularity.dimension_cells(A, beta, s, degrees)]
    payload = {"matrix": list(A.entries), "s": "inf" if s is None else str(s),
               "beta": str(beta), "cells": cells}
    _emit(payload, args.format, _table_text)
    return 0


def _descriptor_json(desc) -> dict:
    return {
        "matrix": list(desc.matrix.entries),
        "parameter": str(desc.parameter),
        "caveat": desc.caveat.value,
    }


def _cmd_restrict(args):
    A = _parse_matrix(args.matrix)
    beta = _parse_rational(args.beta)
    mode = args.mode
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
    elif mode == "aux":
        desc, witness = _restriction.auxiliary_restriction(A, beta)
        payload["summands"] = [_descriptor_json(desc)]
        payload["auxiliary_matrix"] = list(witness.auxiliary.entries)
        payload["p1"] = repr(witness.p1)
        payload["q_operators"] = [repr(q) for q in witness.q_operators]
        payload["delta_exponents"] = [
            {"entry": A.entries[d.position], "delta": d.delta,
             "witness": list(d.witness)} for d in witness.deltas]
    else:
        raise UsageError(f"unknown mode {mode!r}")
    payload["generic_rank"] = _restriction.generic_rank(A)
    caveats = sorted({s["caveat"] for s in payload["summands"]})
    if "generic_beta_only" in caveats:
        sys.stderr.write("caveat: parameter formulas hold for all but finitely many beta\n")
    _emit(payload, args.format)
    return 0


def _cmd_b_function(args):
    A = _parse_matrix(args.matrix)
    if args.weight == "first":
        bf = _restriction.b_function(A, _restriction.WeightTag.FIRST_COORDINATE)
        weight_label = "(1,0,...,0)"
    elif args.weight[:1] == "e" and args.weight[1:].isdecimal():
        i = int(args.weight[1:])
        bf = _restriction.b_function(A, ("standard_basis", i))
        weight_label = f"e_{i}"
    else:
        raise UsageError("--weight must be 'first' or 'e<i>' (e.g. e2)")
    payload = {
        "matrix": list(A.entries),
        "weight": weight_label,
        "roots": [_rat_json(r) for r in bf.roots],
        "degree": bf.degree,
        "caveat": bf.caveat.value,
    }
    if bf.caveat.value == "generic_beta_only":
        sys.stderr.write("caveat: holds for all but finitely many beta\n")
    _emit(payload, args.format)
    return 0


def _cmd_monodromy(args):
    A = _parse_matrix(args.matrix)
    beta = _parse_rational(args.beta)
    rotations = _irregularity.monodromy_rotations(A, beta)
    payload = {
        "matrix": list(A.entries),
        "beta": str(beta),
        "rotations": [str(r) for r in rotations],
        "eigenvalue_one_present": any(r == 0 for r in rotations),
    }
    _emit(payload, args.format)
    return 0


def _cmd_semigroup(args):
    A = _parse_matrix(args.matrix)
    payload = {"matrix": list(A.entries), "frobenius": frobenius_number(A),
               "gaps": list(semigroup_gaps(A))}
    if args.member is not None:
        payload["value"] = args.member
        payload["is_member"] = semigroup_member(A, args.member)
    if args.beta is not None:
        cls = beta_class(A, _parse_rational(args.beta))
        payload["beta"] = args.beta
        payload["beta_class"] = cls.category.value
        if cls.residue is not None:
            payload["residue"] = str(cls.residue)
    payload["delta_exponents"] = [
        {"entry": A.entries[d.position], "delta": d.delta, "witness": list(d.witness)}
        for d in delta_exponents(A)]
    _emit(payload, args.format)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkz",
        description="Exact Gevrey solutions and irregularity data of "
                    "monomial-curve hypergeometric systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, beta_required=True):
        p.add_argument("--matrix", required=True, help='entries, e.g. "1,2,3"')
        if beta_required is not None:
            p.add_argument("--beta", required=beta_required,
                           help='rational parameter, e.g. "1/2"')
        p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("exponents", help="starting exponents of the solution series")
    common(p)
    p.add_argument("--point", choices=["smooth", "generic"], default="smooth")

    p = sub.add_parser("solve", help="basis series for a point class")
    common(p)
    p.add_argument("--point", choices=["generic", "smooth", "deep"], default="smooth")
    p.add_argument("--s", help='Gevrey order, e.g. "3/2" or "inf"')
    p.add_argument("--truncation", type=int, default=12)

    p = sub.add_parser("verify", help="annihilation check of a basis (built or from file)")
    common(p)
    p.add_argument("--point", choices=["generic", "smooth", "deep"], default="smooth")
    p.add_argument("--truncation", type=int, default=12)
    p.add_argument("--ball-radius", type=int, default=3)
    p.add_argument("--input", help="JSON emitted by solve, to re-verify")

    p = sub.add_parser("gevrey-index", help="growth-rate fit of a coefficient stream")
    common(p, beta_required=False)
    p.add_argument("--stream", default="witness",
                   choices=["witness", "exponent", "factorial", "inverse-factorial"])
    p.add_argument("--terms", type=int, default=200)
    p.add_argument("--j", type=int, default=0, help="exponent index for --stream exponent")
    p.add_argument("--csv", help="optional coefficient dump")

    p = sub.add_parser("irregularity-table", help="germ dimension table; "
                       "with --beta-special/--beta-generic diffs the published table")
    common(p, beta_required=False)
    p.add_argument("--s", help='Gevrey order, e.g. "2" or "inf"')
    p.add_argument("--beta-special", help="natural parameter for reproduction mode")
    p.add_argument("--beta-generic", help="non-natural parameter for reproduction mode")
    p.add_argument("--ext-degree", type=int, help="restrict the table to one Ext degree")

    p = sub.add_parser("restrict", help="restriction decompositions")
    common(p)
    p.add_argument("--mode", required=True, choices=["hyperplane", "x1", "plane", "aux"])
    p.add_argument("--index", type=int, help="column for --mode hyperplane")

    p = sub.add_parser("b-function", help="closed-form b-function roots")
    common(p, beta_required=None)
    p.add_argument("--weight", required=True, help="'first' or 'e<i>'")

    p = sub.add_parser("monodromy", help="monodromy rotation numbers")
    common(p)

    p = sub.add_parser("semigroup", help="semigroup data and parameter class")
    common(p, beta_required=False)
    p.add_argument("--member", type=int, help="integer to test for membership")

    return parser


_HANDLERS = {
    "exponents": _cmd_exponents,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "gevrey-index": _cmd_gevrey_index,
    "irregularity-table": _cmd_irregularity_table,
    "restrict": _cmd_restrict,
    "b-function": _cmd_b_function,
    "monodromy": _cmd_monodromy,
    "semigroup": _cmd_semigroup,
}


_RATIONAL_FLAGS = ("--beta", "--s", "--beta-special", "--beta-generic")


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """Write `--beta -3/2` as `--beta=-3/2`: argparse reads a separate token
    "-3/2" as an option (only -N and -N.M count as negative numbers)."""
    out = []
    for arg in argv:
        if (out and out[-1] in _RATIONAL_FLAGS and arg.startswith("-")
                and RATIONAL_TEXT.fullmatch(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_rationals(argv))
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`gkz solve ... | head`): send the rest of
        # the output to devnull so the flush at interpreter exit cannot raise
        # again, and exit without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CurveError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
