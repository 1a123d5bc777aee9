"""Benchmark of the gkz CLI: one client, closed loop, golden-checked outputs.

    python3 perfbench/run.py --workload verify-smooth --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each command is `python3 -m gkzcurve.cli
...` started in src/, one at a time; the next starts when the previous one
has exited.  Every output is checked against its golden fingerprint (exit
code and stdout sha256) and an independent semantic check.

--trace 0 runs seeded rounds of the workload, each command in a new order
every round.  The first round always runs; another starts only if a round
as long as the longest so far still ends within --seconds.  It reports the
end-to-end metrics: wall_ref_s (sum over the pass of each command's median
latency at the reference speed), peak_rss_mb (largest child max-RSS) and
setup_s (median of several set-ups, at the reference speed: cold import
that compiles the package's .pyc files, plus writing the input files).

The machine is shared, and its speed drifts by up to 1.5x over seconds to
minutes.  So the harness and every child run on one CPU, and a fixed
command that uses no code of the program (the probe) is run there before
and after every timed command.  A command's latency at the reference speed
is its wall time times PROBE_REF_S over the mean CPU time of those two
probes.
The raw wall times are printed on the `#` lines.

--trace 1 alternates an untraced pass with a traced pass, in which each
command runs in-process under perfbench/tracer.py, until half of --seconds
has passed (a pair of passes takes about twice as long as one).  It reports
the medians over pairs of the per-layer metrics: span times and counts per
module function, tracing overhead and child CPU time.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Run records and spans go to .perfbench-work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150

# The probe's time at the reference speed: about its median time on the
# 2-vCPU shared machine where the benchmark was defined (Python 3.11).
PROBE_REF_S = 0.080
PROBE_ARGV = [sys.executable, "-c", "import fractions, json"]

SEMIGROUP_SPANS = {f"curves.{f}" for f in (
    "semigroup_member", "frobenius_number", "semigroup_gaps",
    "delta_exponents", "beta_class")}


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them: section
    end_to_end for --trace 0, per_layer for --trace 1."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def probe() -> float:
    """CPU seconds (user + system) of an interpreter that imports two stdlib
    modules and exits: the fixed part of every command, with no code of the
    program under test.  CPU time, not wall time, so that a late wake-up
    of the harness is not taken for a slow CPU."""
    proc = subprocess.Popen(PROBE_ARGV)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"probe exited with {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the probe and
    the timed command see the same CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    """Environment of every gkz child: this checkout's src/, no term cap."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("GKZ_MAX_TERMS", None)
    return env


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    rc: int
    stdout: bytes
    wall: float
    cpu: float
    rss_kb: int
    probe: float = PROBE_REF_S     # mean probe time around the command

    @property
    def ref_wall(self) -> float:
        """Wall time at the reference speed."""
        return self.wall * PROBE_REF_S / self.probe


class Bench:
    """One benchmark run: checkout paths, child environment and tallies."""

    def __init__(self, workload: str, seed: int, golden: dict | None = None):
        if not (SRC / "gkzcurve" / "cli.py").is_file():
            raise BenchError(f"no gkzcurve package under {SRC}")
        self.golden = wl.load_golden() if golden is None else golden
        self.workload = workload
        self.seed = seed
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.steps, self.orders = wl.plan(workload, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.inputs: dict[str, Path] = {}

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str]) -> Sample:
        """Run a child to completion, with its stdout, wall time and rusage."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(proc.returncode, out, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss)

    def gkz(self, step: wl.Step) -> Sample:
        return self.spawn([sys.executable, "-m", "gkzcurve.cli", *self.argv(step)])

    def argv(self, step: wl.Step) -> list[str]:
        path = self.inputs.get(step.producer.key) if step.producer else None
        return step.command.resolve(step.beta, str(path) if path else None)

    def produce(self, step: wl.Step) -> Sample:
        """Run a step whose stdout is another step's --input file, and keep
        that file."""
        sample = self.gkz(step)
        path = self.work / f"input-{wl.sha256(step.key.encode())[:12]}.json"
        path.write_bytes(sample.stdout)
        self.inputs[step.key] = path
        return sample

    def record(self, step_key: str, failure: str | None):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{step_key}: {failure}")

    def check(self, step: wl.Step, rc: int, stdout: bytes):
        self.record(step.key, wl.fingerprint_failure(step, rc, stdout, self.golden))

    # -- set-up --------------------------------------------------------------

    def setup_once(self) -> float:
        """Cold import (compiles the package's .pyc files) and input files."""
        t0 = time.perf_counter()
        shutil.rmtree(SRC / "gkzcurve" / "__pycache__", ignore_errors=True)
        imp = self.spawn([sys.executable, "-c", "import gkzcurve.cli"])
        if imp.rc != 0:
            raise BenchError("import gkzcurve.cli failed")
        for producer in {s.producer for s in self.steps if s.producer}:
            sample = self.produce(producer)
            self.check(producer, sample.rc, sample.stdout)
        return time.perf_counter() - t0

    def setup(self) -> float:
        """Median set-up time at the reference speed."""
        times = []
        for _ in range(SETUP_REPEATS):
            before = probe()
            wall = self.setup_once()
            times.append(wall * PROBE_REF_S / ((before + probe()) / 2))
        return statistics.median(times)

    # -- passes --------------------------------------------------------------

    def untraced_round(self, order, samples):
        """Run one round, with a probe before the first command and after
        each one."""
        before = probe()
        for i in order:
            step = self.steps[i]
            s = self.gkz(step)
            after = probe()
            s.probe = (before + after) / 2
            before = after
            self.check(step, s.rc, s.stdout)
            samples[step.key].append(s)

    def traced_round(self, order) -> tuple[list[dict], float]:
        records, wall = [], 0.0
        out = self.work / "trace-command.json"
        for i in order:
            step = self.steps[i]
            s = self.spawn([sys.executable, str(TRACER), str(out), "--",
                            *self.argv(step)])
            wall += s.wall
            try:
                rec = json.loads(out.read_text())
            except (OSError, ValueError) as exc:
                self.record(step.key, f"traced run left no record: {exc}")
                continue
            finally:
                out.unlink(missing_ok=True)
            self.check(step, rec["rc"], rec["stdout"].encode())
            rec["id"], rec["command"] = i, step.key
            records.append(rec)
        return records, wall

    def pass_wall(self, samples) -> float:
        """Sum over the pass of each command's median latency at the
        reference speed."""
        return sum(statistics.median(s.ref_wall for s in samples[step.key])
                   for step in self.steps)

    def run_untraced(self, seconds: float) -> dict:
        setup_s = self.setup()
        samples = defaultdict(list)
        t0 = time.perf_counter()
        rounds, longest = 0, 0.0
        for order in self.orders:
            start = time.perf_counter()
            self.untraced_round(order, samples)
            rounds += 1
            now = time.perf_counter()
            longest = max(longest, now - start)
            if now - t0 + longest > seconds:
                break
        rss = max(s.rss_kb for ss in samples.values() for s in ss)
        self.report_samples(samples, rounds)
        with open(self.work / "samples.json", "w") as fh:
            json.dump({"seed": self.seed, "wall_and_probe": {
                key: [(s.wall, s.probe) for s in ss] for key, ss in samples.items()}}, fh)
        return {"wall_ref_s": self.pass_wall(samples),
                "peak_rss_mb": rss / 1024.0,
                "setup_s": setup_s}

    def run_traced(self, seconds: float) -> dict:
        self.setup_once()
        per_pass, spans = [], []
        t0 = time.perf_counter()
        for order in self.orders:
            samples = defaultdict(list)
            self.untraced_round(order, samples)
            records, traced_wall = self.traced_round(order)
            untraced_wall = sum(s.wall for ss in samples.values() for s in ss)
            metrics = layer_metrics(records)
            metrics["proc.cpu_s"] = sum(s.cpu for ss in samples.values() for s in ss)
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            per_pass.append(metrics)
            spans.append(records)
            if time.perf_counter() - t0 >= seconds / 2:
                break
        with open(self.work / "spans.json", "w") as fh:
            json.dump({"seed": self.seed, "passes": spans}, fh)
        return {name: statistics.median(m[name] for m in per_pass)
                for name in per_pass[0]}

    def report_samples(self, samples, rounds):
        print(f"# workload={self.workload} seed={self.seed} rounds={rounds}")
        for key in dict.fromkeys(step.key for step in self.steps):
            walls = sorted(s.wall for s in samples[key])
            ref = statistics.median(s.ref_wall for s in samples[key])
            print(f"#   n={len(walls):2d} ref={ref:7.3f}s wall: "
                  f"median={statistics.median(walls):7.3f}s min={walls[0]:7.3f}s "
                  f"max={walls[-1]:7.3f}s  {key}")


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass from its commands' spans.

    A span's self time is its duration minus the time of its direct children.
    Group times (curves.semigroup, exponents, restriction) count only the
    outermost span of the group, so nested calls are not counted twice."""
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    counts = defaultdict(Counter)
    layer_self, group = defaultdict(float), defaultdict(float)

    def group_of(name):
        if name in SEMIGROUP_SPANS:
            return "curves.semigroup"
        top = name.split(".")[0]
        return top if top in ("exponents", "restriction") else None

    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for _sid, parent, _name, start, end, _c in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, parent, name, start, end, extra in spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[sid]
            layer_self[name.split(".")[0]] += dur - child[sid]
            if extra:
                counts[name].update(extra)
            g = group_of(name)
            if g is not None:
                p = parent
                while p is not None and group_of(spans[p][2]) != g:
                    p = spans[p][1]
                if p is None:
                    group[g] += dur

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.import_s": statistics.median(r["import_s"] for r in records),
        "cli.main.self_s": own["cli.main"],
        "cli.stdout_bytes": sum(len(r["stdout"].encode()) for r in records),
        "curves.semigroup.s": group["curves.semigroup"],
        "exponents.s": group["exponents"],
        "restriction.s": group["restriction"],
    }
    for name in ("irregularity.solution_basis", "irregularity.verify_basis",
                 "series.gamma_series", "weyl.apply",
                 "weyl.annihilation_report", "curves.lattice_decompose"):
        m[f"{name}.calls"] = calls[name]
    for name in ("irregularity.solution_basis", "irregularity.verify_basis",
                 "irregularity.slope_subseries", "irregularity.gevrey_index_estimate",
                 "series.gamma_series", "series.substitute_x0",
                 "series.inverse_contiguity", "series.series_from_json",
                 "series.to_json", "weyl.apply", "weyl.named_generators",
                 "weyl.annihilation_report", "curves.lattice_decompose"):
        m[f"{name}.s"] = total[name]
    for name in ("irregularity.solution_basis", "irregularity.verify_basis",
                 "series.gamma_series", "weyl.apply"):
        m[f"{name}.self_s"] = own[name]
    for layer in ("irregularity", "series", "weyl", "curves", "exponents",
                  "restriction"):
        m[f"{layer}.self_s"] = layer_self[layer]
    gs, sub, ap = (counts["series.gamma_series"], counts["series.substitute_x0"],
                   counts["weyl.apply"])
    m["series.gamma_series.terms"] = gs["terms"]
    m["series.gamma_series.us_per_term"] = ratio(total["series.gamma_series"] * 1e6,
                                                 gs["terms"])
    m["series.substitute_x0.keep_ratio"] = ratio(sub["kept"], sub["parent"])
    m["weyl.apply.contributions"] = ap["contributions"]
    m["weyl.apply.ns_per_contribution"] = ratio(total["weyl.apply"] * 1e9,
                                                ap["contributions"])
    m["weyl.named_generators.count"] = counts["weyl.named_generators"]["count"]
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        units = declared_units("per_layer" if args.trace else "end_to_end")
        bench = Bench(args.workload, args.seed)
        pin_to_one_cpu()
        if args.trace:
            values = bench.run_traced(args.seconds)
        else:
            values = bench.run_untraced(args.seconds)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    print(f"# seed={args.seed} attempted={bench.attempted} failed={len(bench.failures)}"
          f" failed_frac={len(bench.failures) / bench.attempted:.4f}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
