"""Workload definitions, seeded input choice and output checks.

A workload is a list of CLI commands.  Each command is a template whose
`{beta}` slot the seed fills from a small pool of one parameter class, so
that every choice does the same kind (and nearly the same amount) of work.
Every pool entry has a golden fingerprint in golden.json: the exit code and
the sha256 of stdout, admitted only after the output passed the independent
checks below.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# Parameter classes.  Members of one pool share their denominator, so the
# exact rationals the engine handles have the same size.
NON_INTEGER_THIRDS = ("1/3", "4/3", "7/3")
NON_INTEGER_HALVES = ("1/2", "3/2", "5/2")
NATURAL_IN_SEMIGROUP = ("4", "5", "6")        # every natural is in <1,2,3>
NATURAL_SMALL = ("0", "1", "2")
SEMIGROUP_GAP_357 = ("1", "2", "4")           # N \ <3,5,7>
NON_INTEGER_SIXTHS_135 = ("1/2", "5/2", "7/2")  # beta/3 has denominator 6


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  argv holds a `{beta}` placeholder and, for verify
    --input, an `{input}` one filled with the path of the producer's stdout;
    check names the independent output check."""

    argv: tuple[str, ...]
    pool: tuple[str, ...] = ()
    check: str = "json"
    expect: float | int | None = None      # member count or Gevrey target
    producer: "Command | None" = None

    def resolve(self, beta: str | None, input_path: str | None = None) -> list[str]:
        out = []
        for tok in self.argv:
            tok = tok.replace("{beta}", beta or "")
            if input_path is not None:
                tok = tok.replace("{input}", input_path)
            out.append(tok)
        return out


def _cmd(text: str, pool=(), check="json", expect=None, producer=None) -> Command:
    return Command(tuple(text.split()), tuple(pool), check, expect, producer)


SOLVE_123_L40 = _cmd("solve --matrix 1,2,3 --beta {beta} --truncation 40",
                     NATURAL_IN_SEMIGROUP, "solve", 2)

# The verify truncations keep a verify-smooth pass near 8 s, so that a 40-s
# run gets 3 or 4 samples of each command.
# Expected basis sizes come from the published dimension table: the
# Gevrey-quotient germ at a smooth point of Y has dimension a_{n-1}; at a
# generic point the holomorphic solution space has the generic rank a_n.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "verify-smooth": (
        _cmd("verify --matrix 1,3,6,8 --beta {beta} --truncation 8",
             NON_INTEGER_THIRDS, "verify", 6),
        _cmd("verify --matrix 1,2,3,4,5,6 --beta {beta} --truncation 4",
             NON_INTEGER_HALVES, "verify", 5),
        _cmd("verify --matrix 1,3,6,8 --beta {beta} --point generic --truncation 6",
             NON_INTEGER_THIRDS, "verify", 8),
        _cmd("verify --matrix 1,2,3 --beta {beta} --input {input}",
             NATURAL_IN_SEMIGROUP, "verify", 2, producer=SOLVE_123_L40),
    ),
    "solve-build": (
        _cmd("solve --matrix 3,5,7 --beta {beta} --truncation 14",
             NON_INTEGER_HALVES, "solve", 5),
        _cmd("solve --matrix 3,5,7 --beta {beta} --truncation 14",
             SEMIGROUP_GAP_357, "solve", 5),
        _cmd("solve --matrix 1,2,3,4,5,6 --beta {beta} --truncation 8",
             NON_INTEGER_HALVES, "solve", 5),
        SOLVE_123_L40,
    ),
    # one pass runs every command twice
    "query-mix": 2 * (
        _cmd("exponents --matrix 1,2,3 --beta {beta}", NON_INTEGER_HALVES),
        _cmd("irregularity-table --matrix 1,2,3 --beta {beta} --s 2",
             NATURAL_IN_SEMIGROUP),
        _cmd("irregularity-table --matrix 1,2,3 --beta-special {beta} "
             "--beta-generic 1/2 --s 2", NATURAL_IN_SEMIGROUP, "table", 2),
        _cmd("semigroup --matrix 3,5,7 --beta {beta} --member 8", SEMIGROUP_GAP_357),
        _cmd("restrict --matrix 3,5,7 --beta {beta} --mode aux", NON_INTEGER_HALVES),
        _cmd("restrict --matrix 1,3,6,8 --beta {beta} --mode plane",
             NON_INTEGER_THIRDS),
        _cmd("b-function --matrix 1,4,6 --weight first"),
        _cmd("monodromy --matrix 1,2,3 --beta {beta}", NATURAL_SMALL),
        _cmd("gevrey-index --matrix 1,2,3 --terms 400", check="gevrey", expect=1.5),
        _cmd("gevrey-index --matrix 1,3,5 --stream exponent --beta {beta} --terms 300",
             NON_INTEGER_SIXTHS_135, "gevrey", 5 / 3),
    ),
}


@dataclass(frozen=True)
class Step:
    """A command with its seeded parameter; key identifies its golden entry."""

    command: Command
    beta: str | None

    @property
    def key(self) -> str:
        """The argv with beta filled and the input path left symbolic."""
        return " ".join(self.command.argv).replace("{beta}", self.beta or "")

    @property
    def producer(self) -> "Step | None":
        """The step whose stdout is this step's --input file."""
        p = self.command.producer
        return Step(p, self.beta) if p else None


def plan(workload: str, seed: int):
    """The seeded steps of one pass and an endless iterator over the command
    order of each round.

    The seed picks each command's beta from its pool and shuffles every
    round; it changes nothing else.  Both duplicates of a query-mix command
    share one pick, so each pass repeats the same inputs."""
    rng = random.Random(seed)
    commands = WORKLOADS[workload]
    picks: dict[Command, str | None] = {}
    for c in commands:
        if c not in picks:
            picks[c] = rng.choice(c.pool) if c.pool else None
    steps = [Step(c, picks[c]) for c in commands]

    def orders():
        while True:
            order = list(range(len(steps)))
            rng.shuffle(order)
            yield order

    return steps, orders()


def pool_steps(workload: str) -> list[Step]:
    """Every golden key of a workload: each command with each beta of its
    pool, each once."""
    steps = {}
    for c in WORKLOADS[workload]:
        for beta in c.pool or (None,):
            step = Step(c, beta)
            steps[step.key] = step
    return list(steps.values())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Independent output checks.  They read the printed JSON only and trust no
# code of the engine.


def _published_table(a_pen: int) -> dict:
    """The published germ-dimension table, keyed like the CLI's cells."""
    rows = {
        ("holomorphic", "special"): (1, 1, 1, 1),
        ("holomorphic", "generic"): (0, 0, 0, 0),
        ("gevrey_formal", "special"): (1, a_pen, 1, 0),
        ("gevrey_formal", "generic"): (0, a_pen, 0, 0),
        ("gevrey_quotient", "special"): (0, a_pen, 0, 0),
        ("gevrey_quotient", "generic"): (0, a_pen, 0, 0),
    }
    out = {}
    for (sheaf, label), vals in rows.items():
        for (point, degree), v in zip((("deep", 0), ("smooth", 0),
                                       ("deep", 1), ("smooth", 1)), vals):
            out[(sheaf, label, point, degree)] = v
    return out


def check_output(command: Command, rc: int, stdout: bytes) -> str | None:
    """None when the output passes, else the reason it fails."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    kind = command.check
    if kind == "verify":
        rows = data.get("series", [])
        if len(rows) != command.expect:
            return f"{len(rows)} verified series, expected {command.expect}"
        if data.get("max_violation") != "0":
            return f"max_violation {data.get('max_violation')}"
        for row in rows:
            if row["max_violation"] != "0" or not row["per_generator"]:
                return f"{row['label']}: max_violation {row['max_violation']}"
            for g in row["per_generator"]:
                if g["violation"] != "0":
                    return f"{row['label']} {g['generator']}: {g['violation']}"
    elif kind == "solve":
        n = len(data.get("basis", []))
        if n != command.expect:
            return f"{n} basis members, expected {command.expect}"
    elif kind == "table":
        if data.get("matches_published_table") is not True:
            return "matches_published_table is not true"
        expected = _published_table(command.expect)
        got = {(c["sheaf"], c["beta"], c["point"], c["degree"]): c["dimension"]
               for c in data["cells"]}
        if got != expected:
            return "cells differ from the published table"
    elif kind == "gevrey":
        est = data.get("estimate")
        if not isinstance(est, (int, float)) or abs(est - command.expect) >= 0.05:
            return f"Gevrey estimate {est} not within 0.05 of {command.expect:.4f}"
    return None


def fingerprint_failure(step: Step, rc: int, stdout: bytes, golden: dict) -> str | None:
    """None when exit code and stdout hash match the golden entry and the
    independent check passes, else the reason."""
    entry = golden.get(step.key)
    if entry is None:
        return f"no golden entry for {step.key!r}"
    if rc != entry["rc"]:
        return f"exit code {rc}, golden {entry['rc']}"
    if sha256(stdout) != entry["sha256"]:
        return "stdout hash differs from golden"
    return check_output(step.command, rc, stdout)

