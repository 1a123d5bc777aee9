"""Flag readers and the output writer shared by cli and its handler modules."""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .curves import CurveMatrix, clip, make_curve, read_integer, read_rational


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def parse_matrix(text: str) -> CurveMatrix:
    try:
        entries = [read_integer(x) for x in text.split(",") if x.strip() != ""]
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"--matrix expects comma-separated integers: {exc}")
    return make_curve(entries)


def parse_rational(text: str) -> Fraction:
    try:
        return read_rational(text)
    except ValueError:
        raise UsageError(f"not a rational number p or p/q: {text[:40]!r}") from None
    except ArithmeticError as exc:      # past DIGIT_CAP digits, or q = 0
        raise UsageError(f"{exc} in {text[:40]!r}") from None


def parse_order(text: str):
    return None if text in ("inf", "infinity", "oo") else parse_rational(text)


def rat_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


def max_terms() -> int | None:
    raw = os.environ.get("GKZ_MAX_TERMS")
    if raw is None:
        return None
    try:
        value = read_integer(raw)
    except (ValueError, OverflowError):
        raise UsageError(f"GKZ_MAX_TERMS={raw[:40]!r} is not an integer")
    return nonnegative(value, "GKZ_MAX_TERMS")


def nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {clip(value)}")
    return value


def emit(payload, fmt: str, table_renderer=None):
    # only irregularity-table, which passes a renderer, accepts --format table
    print(table_renderer(payload) if fmt == "table" else json.dumps(payload))
