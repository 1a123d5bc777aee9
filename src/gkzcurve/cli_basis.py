"""The solve and verify commands: basis series, built or read back, and their check."""

from __future__ import annotations

import json
from fractions import Fraction

from . import basis as _basis
from . import series_io as _series_io
from .cli_flags import UsageError, emit, max_terms
from .core import CurveError, CurveMatrix, PointClass, read_integer, slope


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


def _read_members(path: str, A: CurveMatrix) -> list[_basis.BasisMember]:
    """Basis members from JSON emitted by solve: its whole output or the list
    of its basis entries."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_int=read_integer)
    except (OSError, ValueError, OverflowError, RecursionError) as exc:
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
        series = _series_io.series_from_json(entry["series"], matrix=A)
        members.append(_basis.BasisMember(series, label, series.base, is_solution, defect))
    return members


def solve(args):
    A, point = args.matrix, PointClass(args.point)
    s = slope(A) if args.s is None else args.s      # no --s: the slope
    members = _basis.solution_basis(A, args.beta, point, s=None if s == "inf" else s,
                                    level=args.truncation, max_terms=max_terms())
    payload = {
        "matrix": list(A.entries),
        "beta": str(args.beta),
        "point": point.value,
        "s": str(s),
        "truncation": args.truncation,
        "slope": str(slope(A)),
        "basis": [_serialize_member(m) for m in members],
    }
    caveats = sorted({c for m in members for c in m.caveats})
    if caveats:
        payload["caveats"] = caveats
    emit(payload, args.format)
    return 0


def verify(args):
    A, beta = args.matrix, args.beta
    if args.input:
        members = _read_members(args.input, A)
    else:
        members = _basis.solution_basis(A, beta, PointClass(args.point), s=slope(A),
                                        level=args.truncation, max_terms=max_terms())
    rows = []
    worst = Fraction(0)
    for member, report in _basis.verify_basis(A, members, beta, args.ball_radius):
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
        "ball_radius": args.ball_radius,
        "max_violation": str(worst),
        "series": rows,
    }
    emit(payload, args.format)
    return 0 if worst == 0 else 1
