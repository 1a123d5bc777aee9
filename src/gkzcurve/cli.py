"""Command-line front end: every operation behind deterministic JSON output.

Exit codes: 0 success, 1 domain error, 2 flag error; an error is one line on stderr.
The environment variable GKZ_MAX_TERMS caps stored series terms as a safety
valve for accidental huge truncations; since only support points are
enumerated (for a general curve, only those of the x_0 = 0 section), it
bounds the build work as well.  A reader that closes stdout early ends the
command with exit 1 and no traceback.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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
    return None if text in ("inf", "infinity", "oo") else _parse_rational(text)


def _rat_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


def _max_terms() -> int | None:
    raw = os.environ.get("GKZ_MAX_TERMS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"GKZ_MAX_TERMS={raw!r} is not an integer")
    return _nonnegative(value, "GKZ_MAX_TERMS")


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")
    return value


def _emit(payload, fmt: str, table_renderer=None):
    # only irregularity-table, which passes a renderer, accepts --format table
    print(table_renderer(payload) if fmt == "table" else json.dumps(payload))


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_exponents(args):
    A = _parse_matrix(args.matrix)
    beta = _parse_rational(args.beta)
    find = (_exponents.generic_exponents if args.point == "generic"
            else _exponents.singular_exponents)
    vectors = find(A, beta)
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


# the fields verify reads from a basis entry besides its series: default when
# absent, accepted JSON kinds, and their description
_ENTRY_FIELDS = (("label", "series", str, "a string"),
                 ("is_solution", True, bool, "true or false"),
                 ("defect_generator", None, (str, type(None)), "a string or null"))


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
        fields = [entry.get(key, default) for key, default, _, _ in _ENTRY_FIELDS]
        for value, (key, _, kind, text) in zip(fields, _ENTRY_FIELDS):
            if not isinstance(value, kind):
                raise CurveError(f"basis entry {i} of {path}: {key!r} must be {text}, "
                                 f"got {json.dumps(value)[:40]}")
        label, is_solution, defect = fields
        series = _series.series_from_json(entry["series"], matrix=A)
        members.append(_irregularity.BasisMember(series, label, series.base,
                                                 is_solution, defect))
    return members


def _cmd_solve(args):
    A = _parse_matrix(args.matrix)
    beta = _parse_rational(args.beta)
    s = _parse_order(args.s) if args.s else _irregularity.slope(A)
    point = _irregularity.PointClass(args.point)
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
        point = _irregularity.PointClass(args.point)
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


# Largest stream gevrey-index builds, in factors of its last coefficient:
# terms * a_n for a slope stream, terms for a factorial control.  Memory grows
# about as the square of it; the factorial control at the cap peaks at ~90 MB.
STREAM_FACTOR_CAP = 10_000


def _cmd_gevrey_index(args):
    A = _parse_matrix(args.matrix)
    terms = _nonnegative(args.terms, "--terms")
    if args.stream == "exponent" and args.beta is None:
        raise UsageError("--stream exponent needs --beta")
    slope_stream = args.stream in ("witness", "exponent")
    beta = _parse_rational(args.beta) if slope_stream and args.beta else Fraction(0)
    factors = terms * A.entries[-1] if slope_stream else terms
    if factors > STREAM_FACTOR_CAP:
        raise CurveError(f"--terms {terms} gives a {args.stream} stream of {factors} "
                         f"factors, more than the cap of {STREAM_FACTOR_CAP}")
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
    rows = [("sheaf", "beta", "point", "deg", "dim")] + [
        (c["sheaf"], c["beta"], c["point"], c["degree"], c["dimension"])
        for c in payload["cells"]]
    return "\n".join(f"{a:<16}{b:<9}{c:<8}{d:<5}{e:<4}" for a, b, c, d, e in rows)


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
    return {"matrix": list(desc.matrix.entries), "parameter": str(desc.parameter),
            "caveat": desc.caveat.value}


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
        beta = _parse_rational(args.beta)
        cls = beta_class(A, beta)
        payload["beta"] = str(beta)
        payload["beta_class"] = cls.category.value
        if cls.residue is not None:
            payload["residue"] = str(cls.residue)
    payload["delta_exponents"] = [
        {"entry": A.entries[d.position], "delta": d.delta, "witness": list(d.witness)}
        for d in delta_exponents(A)]
    _emit(payload, args.format)
    return 0


# ---------------------------------------------------------------------------
# Flags.  Each command's table maps a flag's attribute name (`--ball-radius`
# -> ball_radius) to its kind (int, str, or a tuple of choices), its default
# and whether it is required.

_TEXT, _INT = (str, None, False), (int, None, False)
_POINT = (("generic", "smooth", "deep"), "smooth", False)


def _flags(beta_required, formats=("json",), **own) -> dict:
    """--matrix, --beta (required, optional, or absent if None), --format, own flags."""
    table = {"matrix": (str, None, True)}
    if beta_required is not None:
        table["beta"] = (str, None, beta_required)
    table["format"] = (formats, "json", False)
    table.update(own)
    return table


_COMMANDS = {
    "exponents": (_cmd_exponents, "starting exponents of the solution series",
                  _flags(True, point=(("smooth", "generic"), "smooth", False))),
    "solve": (_cmd_solve, "basis series for a point class",
              _flags(True, point=_POINT, s=_TEXT, truncation=(int, 12, False))),
    "verify": (_cmd_verify, "annihilation check of a basis (built or from file)",
               _flags(True, point=_POINT, truncation=(int, 12, False),
                      ball_radius=(int, 3, False), input=_TEXT)),
    "gevrey-index": (_cmd_gevrey_index, "growth-rate fit of a coefficient stream",
                     _flags(False, stream=(("witness", "exponent", "factorial",
                                            "inverse-factorial"), "witness", False),
                            terms=(int, 200, False), j=(int, 0, False), csv=_TEXT)),
    "irregularity-table": (_cmd_irregularity_table, "germ dimension table; with "
                           "--beta-special/--beta-generic diffs the published table",
                           _flags(False, ("json", "table"), s=_TEXT, beta_special=_TEXT,
                                  beta_generic=_TEXT, ext_degree=_INT)),
    "restrict": (_cmd_restrict, "restriction decompositions",
                 _flags(True, mode=(("hyperplane", "x1", "plane", "aux"), None, True),
                        index=_INT)),
    "b-function": (_cmd_b_function, "closed-form b-function roots",
                   _flags(None, weight=(str, None, True))),
    "monodromy": (_cmd_monodromy, "monodromy rotation numbers", _flags(True)),
    "semigroup": (_cmd_semigroup, "semigroup data and parameter class",
                  _flags(False, member=_INT)),
}

_RATIONAL_FLAGS = ("beta", "s", "beta_special", "beta_generic")
# a token that reads as a negative number (-N or -N.M) is a value, not a flag
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _help(args):
    if args.command is None:
        head = ["usage: gkz COMMAND [--flag value ...]; gkz COMMAND --help lists its flags",
                "Exact Gevrey solutions and irregularity data of monomial-curve "
                "hypergeometric systems"]
        rows = [f"  {name:<20}{text}" for name, (_, text, _) in _COMMANDS.items()]
    else:
        _, text, table = _COMMANDS[args.command]
        head = [f"usage: gkz {args.command} [--flag value ...]", text]
        rows = [f"  --{dest.replace('_', '-')} "
                + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                   else "INT" if kind is int else "TEXT")
                + ("  (required)" if required else "" if default is None
                   else f"  (default {default})")
                for dest, (kind, default, required) in table.items()]
    print(*head, *rows, sep="\n")
    return 0


def _parse(argv: list[str]):
    """The command's handler and flag values, read as argparse reads `--flag value`,
    `--flag=value` and a unique prefix, the last of a repeated flag winning."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help, SimpleNamespace(command=None)
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command"
        raise UsageError(f"{given}: choose from {', '.join(_COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    handler, _, table = _COMMANDS[command]
    flags = {"--" + dest.replace("_", "-"): dest for dest in table}
    values = {dest: default for dest, (_, default, _) in table.items()}
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, SimpleNamespace(command=command)
        name, has_value, value = token.partition("=")
        if not name.startswith("--") or name == "--":
            raise UsageError(f"{command}: unexpected argument {token!r}")
        matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
        if len(matches) != 1:
            raise UsageError(f"ambiguous flag {name} of {command}: could match "
                             f"{', '.join(matches)}" if matches
                             else f"unknown flag {name} of {command}")
        dest = flags[flag := matches[0]]
        if not has_value:
            value = next(tokens, "-")      # none left reads as a missing value
            if value.startswith("-") and not (
                    _NEGATIVE_NUMBER.fullmatch(value)
                    or dest in _RATIONAL_FLAGS and RATIONAL_TEXT.fullmatch(value)):
                raise UsageError(f"argument {flag}: expected one argument")
        kind = table[dest][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        values[dest] = value
    # a required flag has no default, and a given value is never None
    missing = [flag for flag, dest in flags.items() if table[dest][2] and values[dest] is None]
    if missing:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        code = handler(args)
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
