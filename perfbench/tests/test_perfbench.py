"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They use a small workload of cheap commands that all have golden entries, so
they finish in well under a minute.
"""

import json
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = (
    wl._cmd("exponents --matrix 1,2,3 --beta {beta}", ("1/2",)),
    wl._cmd("semigroup --matrix 3,5,7 --beta {beta} --member 8", ("4",)),
    wl._cmd("restrict --matrix 3,5,7 --beta {beta} --mode aux", ("1/2",)),
    replace(wl.SOLVE_123_L40, pool=("4",)),
    wl._cmd("verify --matrix 1,2,3 --beta {beta} --input {input}", ("4",),
            "verify", 2, producer=wl.SOLVE_123_L40),
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(wl.WORKLOADS, "tiny", TINY)
    return "tiny"


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_doctored_stdout_counts_as_failure(tiny, monkeypatch):
    real_gkz = run.Bench.gkz

    def doctored(self, step):
        sample = real_gkz(self, step)
        if step.command.argv[0] == "exponents":
            sample.stdout = sample.stdout.replace(b"1/4", b"1/5")
        return sample

    monkeypatch.setattr(run.Bench, "gkz", doctored)
    bench = run.Bench(tiny, 3)
    bench.run_untraced(0)
    # one producer command per set-up, then one round
    assert bench.attempted == run.SETUP_REPEATS + len(TINY)
    assert len(bench.failures) == 1
    assert "exponents" in bench.failures[0]
    assert "hash differs" in bench.failures[0]


def test_semantic_check_catches_violation_even_with_matching_hash():
    cmd = wl.WORKLOADS["verify-smooth"][0]
    bad = {"max_violation": "0", "series": [
        {"label": f"s{i}", "max_violation": "0",
         "per_generator": [{"generator": "euler", "violation": "1/7" if i else "0"}]}
        for i in range(cmd.expect)]}
    assert "1/7" in wl.check_output(cmd, 0, json.dumps(bad).encode())
    assert wl.check_output(cmd, 1, b"{}") == "exit code 1"


def test_traced_and_untraced_outputs_hash_equal(tiny):
    bench = run.Bench(tiny, 5)
    bench.setup_once()
    order = list(range(len(bench.steps)))
    samples = defaultdict(list)
    bench.untraced_round(order, samples)
    records, _ = bench.traced_round(order)
    assert len(records) == len(TINY)
    for rec in records:
        untraced = samples[rec["command"]][0].stdout
        assert wl.sha256(rec["stdout"].encode()) == wl.sha256(untraced)
    assert not bench.failures
    names = {span[2] for rec in records for span in rec["spans"]}
    assert {"cli.main", "series.gamma_series", "series.to_json",
            "series.series_from_json", "weyl.apply", "restriction.auxiliary_restriction",
            "curves.delta_exponents", "exponents.singular_exponents"} <= names


def test_self_time_subtracts_direct_children():
    spans = [[0, None, "cli.main", 0.0, 10.0, None],
             [1, 0, "irregularity.solution_basis", 1.0, 4.0, None],
             [2, 1, "series.gamma_series", 2.0, 3.0, {"terms": 5}],
             [3, 0, "curves.semigroup_member", 5.0, 6.0, None],
             [4, 3, "curves.frobenius_number", 5.2, 5.4, None]]
    m = run.layer_metrics([{"spans": spans, "import_s": 0.1, "stdout": "xy"}])
    assert m["cli.main.self_s"] == pytest.approx(6.0)
    assert m["irregularity.solution_basis.self_s"] == pytest.approx(2.0)
    assert m["series.gamma_series.terms"] == 5
    assert m["series.gamma_series.us_per_term"] == pytest.approx(2e5)
    assert m["curves.semigroup.s"] == pytest.approx(1.0)   # outermost span only
    assert m["curves.self_s"] == pytest.approx(1.0)
    assert m["cli.stdout_bytes"] == 2


def test_pass_wall_sums_command_medians_at_reference_speed(tiny):
    bench = run.Bench(tiny, 1)
    samples = defaultdict(list)
    for step in bench.steps:
        # a command seen at half the reference speed counts half its wall
        for wall, probe in ((1.0, run.PROBE_REF_S), (3.0, 2 * run.PROBE_REF_S),
                            (9.0, run.PROBE_REF_S)):
            samples[step.key].append(run.Sample(0, b"", wall, 0.0, 0, probe))
    assert bench.pass_wall(samples) == pytest.approx(1.5 * len(TINY))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tiny, capsys, trace, section):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    assert run.main(["--workload", tiny, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {d["name"]: d["unit"] for d in declared}


def test_no_result_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "query-mix", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
