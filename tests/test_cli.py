import contextlib
import copy
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gkzcurve
from gkzcurve import PointClass, make_curve, series_from_json, slope, solution_basis
from gkzcurve.cli import _COMMANDS, main
from gkzcurve.cli_flags import parse_count, parse_matrix, parse_order, parse_rational
from gkzcurve.core import DIGIT_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_exact_output(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--matrix", "1,2,3", "--beta", "1/2")
    assert code == 0
    assert out.strip() == '[[0, "1/4", 0], [1, "-1/4", 0]]'


def test_exponents_generic(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--matrix", "1,2,3",
                           "--beta", "0", "--point", "generic")
    assert code == 0
    assert json.loads(out) == [[0, 0, 0], [1, 0, "-1/3"], [2, 0, "-2/3"]]


def test_output_is_deterministic(capsys):
    args = ("solve", "--matrix", "1,2,3", "--beta", "4", "--truncation", "8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--matrix", "1,2,3", "--beta", "4",
                           "--truncation", "12")
    assert code == 0
    data = json.loads(out)
    assert data["max_violation"] == "0"
    labels = {row["label"] for row in data["series"]}
    assert labels == {"exponent[1]", "witness"}


def test_solve_verify_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--matrix", "1,2,3", "--beta", "1/2",
                           "--truncation", "10")
    assert code == 0
    path = tmp_path / "basis.json"
    path.write_text(out)
    code2, out2, _ = run_cli(capsys, "verify", "--matrix", "1,2,3", "--beta", "1/2",
                             "--input", str(path))
    assert code2 == 0
    assert json.loads(out2)["max_violation"] == "0"


def test_solve_general_matrix_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--matrix", "2,3", "--beta", "1/2",
                           "--truncation", "10")
    assert code == 0
    path = tmp_path / "basis.json"
    path.write_text(out)
    code2, out2, _ = run_cli(capsys, "verify", "--matrix", "2,3", "--beta", "1/2",
                             "--input", str(path))
    assert code2 == 0
    assert json.loads(out2)["max_violation"] == "0"


def test_solve_gap_parameter_roundtrip(tmp_path, capsys):
    # beta in N outside the semigroup goes through the division fallback and
    # emits window-descriptor series; re-verification stays sound
    code, out, _ = run_cli(capsys, "solve", "--matrix", "3,5,7", "--beta", "2",
                           "--truncation", "12")
    assert code == 0
    data = json.loads(out)
    assert len(data["basis"]) == 5
    assert data["caveats"]
    path = tmp_path / "gap.json"
    path.write_text(out)
    code2, out2, _ = run_cli(capsys, "verify", "--matrix", "3,5,7", "--beta", "2",
                             "--input", str(path))
    assert code2 == 0
    assert json.loads(out2)["max_violation"] == "0"


def test_ext_degree_filter(capsys):
    code, out, _ = run_cli(capsys, "irregularity-table", "--matrix", "1,2,3",
                           "--beta", "4", "--s", "2", "--ext-degree", "0")
    assert code == 0
    data = json.loads(out)
    assert {c["degree"] for c in data["cells"]} == {0}


def test_irregularity_table_repro(capsys):
    code, out, _ = run_cli(capsys, "irregularity-table", "--matrix", "1,2,3",
                           "--beta-special", "4", "--beta-generic", "1/2", "--s", "2")
    assert code == 0
    data = json.loads(out)
    assert data["matches_published_table"] is True
    assert data["diff"] == []
    assert len(data["cells"]) == 24
    q1 = [c for c in data["cells"]
          if c["sheaf"] == "gevrey_quotient" and c["degree"] == 1]
    assert all(c["dimension"] == 0 for c in q1)
    holo0 = {(c["beta"], c["point"]): c["dimension"] for c in data["cells"]
             if c["sheaf"] == "holomorphic" and c["degree"] == 0}
    assert holo0 == {("special", "deep"): 1, ("special", "smooth"): 1,
                     ("generic", "deep"): 0, ("generic", "smooth"): 0}


def test_irregularity_table_single_beta(capsys):
    code, out, _ = run_cli(capsys, "irregularity-table", "--matrix", "2,3,5",
                           "--beta", "0", "--s", "5/3")
    assert code == 0
    data = json.loads(out)
    cell = next(c for c in data["cells"] if c["sheaf"] == "gevrey_quotient"
                and c["point"] == "smooth" and c["degree"] == 0)
    assert cell["dimension"] == 3
    holo = next(c for c in data["cells"] if c["sheaf"] == "holomorphic")
    assert holo["dimension"] == "not_covered"


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "irregularity-table", "--matrix", "1,2,3",
                           "--beta", "4", "--s", "2", "--format", "table")
    assert code == 0
    assert "sheaf" in out and "gevrey_quotient" in out


def test_restrict_plane(capsys):
    code, out, err = run_cli(capsys, "restrict", "--matrix", "1,3,6,8",
                             "--beta", "1/3", "--mode", "plane")
    assert code == 0
    data = json.loads(out)
    assert [s["parameter"] for s in data["summands"]] == ["1/6", "-1/3"]
    assert all(s["caveat"] == "generic_beta_only" for s in data["summands"])
    assert "finitely many" in err


def test_restrict_aux(capsys):
    code, out, _ = run_cli(capsys, "restrict", "--matrix", "3,5,7",
                           "--beta", "1/2", "--mode", "aux")
    assert code == 0
    data = json.loads(out)
    assert data["auxiliary_matrix"] == [1, 3, 5, 7]
    assert data["delta_exponents"][0] == {"entry": 3, "delta": 2, "witness": [0, 1]}
    assert len(data["q_operators"]) == 3


def test_b_function_commands(capsys):
    code, out, _ = run_cli(capsys, "b-function", "--matrix", "1,4,6",
                           "--weight", "first")
    assert json.loads(out)["roots"] == [0, 1]
    code, out, _ = run_cli(capsys, "b-function", "--matrix", "1,2,3",
                           "--weight", "e2")
    assert json.loads(out)["roots"] == [0]


def test_monodromy_command(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "--matrix", "1,2,3", "--beta", "0")
    data = json.loads(out)
    assert data["rotations"] == ["0", "1/2"]
    assert data["eigenvalue_one_present"] is True


def test_semigroup_command(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--matrix", "3,5,7",
                           "--beta", "4", "--member", "8")
    data = json.loads(out)
    assert data["frobenius"] == 4
    assert data["gaps"] == [1, 2, 4]
    assert data["is_member"] is True
    assert data["beta_class"] == "integer_outside_semigroup"


@pytest.mark.parametrize("beta,printed", [("8/2", "4"), ("2/4", "1/2"), ("-6/4", "-3/2")])
def test_semigroup_prints_the_parsed_beta(capsys, beta, printed):
    _, out, _ = run_cli(capsys, "semigroup", "--matrix", "3,5,7", f"--beta={beta}")
    assert json.loads(out)["beta"] == printed
    _, out, _ = run_cli(capsys, "monodromy", "--matrix", "3,5,7", f"--beta={beta}")
    assert json.loads(out)["beta"] == printed


def test_gevrey_index_command(capsys, tmp_path):
    csv = tmp_path / "stream.csv"
    code, out, _ = run_cli(capsys, "gevrey-index", "--matrix", "1,2,3",
                           "--terms", "120", "--csv", str(csv))
    assert code == 0
    data = json.loads(out)
    assert abs(data["estimate"] - 1.5) < 0.05
    assert csv.read_text().startswith("k,coefficient\n0,1\n")


def test_gevrey_index_csv_to_an_unwritable_path_is_a_flag_error(capsys, tmp_path):
    csv = tmp_path / "missing" / "stream.csv"
    code, out, err = run_cli(capsys, "gevrey-index", "--matrix", "1,2,3",
                             "--terms", "40", "--csv", str(csv))
    _one_line_error(code, out, err, 2)
    assert "--csv" in err


@pytest.mark.parametrize("argv", [
    ("gevrey-index", "--matrix", "1,2,3", "--terms", "-5"),
    ("verify", "--matrix", "1,2,3", "--beta", "4", "--ball-radius", "-1"),
])
def test_negative_count_flag_is_a_flag_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    _one_line_error(code, out, err, 2)
    assert f"{argv[-2]} must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("--stream", "factorial", "--terms", "10001"),
    ("--stream", "inverse-factorial", "--terms", "1000000000"),
    ("--terms", "3334"),                              # 3 334 * a_n = 10 002 factors
    ("--stream", "exponent", "--beta", "1/2", "--terms", "10000"),
])
def test_gevrey_index_past_the_stream_cap_is_a_domain_error(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, "gevrey-index", "--matrix", "1,2,3", *argv)
    assert time.monotonic() - start < 0.5
    _one_line_error(code, out, err, 1)
    assert "more than the cap of 10000" in err


def test_gevrey_index_stream_cap_counts_factors(capsys):
    from gkzcurve.cli_gevrey import STREAM_FACTOR_CAP
    # a_n = 500: 20 terms reach the cap exactly, 21 pass it
    code, _, _ = run_cli(capsys, "gevrey-index", "--matrix", "1,500", "--terms", "20")
    assert code == 0 and 20 * 500 == STREAM_FACTOR_CAP
    _one_line_error(*run_cli(capsys, "gevrey-index", "--matrix", "1,500",
                             "--terms", "21"), 1)


@pytest.mark.parametrize("stream", ["factorial", "inverse-factorial"])
def test_gevrey_index_factorial_controls_are_the_factorials(capsys, tmp_path, stream):
    csv = tmp_path / "stream.csv"
    code, _, _ = run_cli(capsys, "gevrey-index", "--matrix", "1,2,3", "--stream", stream,
                         "--terms", "40", "--csv", str(csv))
    assert code == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    want = [Fraction(math.factorial(k)) for k in range(40)]
    if stream == "inverse-factorial":
        want = [1 / f for f in want]
    assert [(int(k), Fraction(c)) for k, c in rows] == list(enumerate(want))


@pytest.mark.parametrize("j", ["7", "-1", "3"])
def test_gevrey_index_exponent_index_out_of_range_is_a_domain_error(capsys, j):
    code, out, err = run_cli(capsys, "gevrey-index", "--matrix", "1,3,5",
                             "--stream", "exponent", "--beta", "1/2", "--j", j)
    _one_line_error(code, out, err, 1)
    assert "IndexOutOfRangeError" in err


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "exponents", "--matrix", "2,4,6", "--beta", "1")
    assert code == 1
    assert out == ""
    assert "GcdNotOne" in err


def test_flag_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "exponents", "--matrix", "1,2,x", "--beta", "1")
    assert code == 2
    assert "error" in err


def test_term_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("GKZ_MAX_TERMS", "3")
    code, _, err = run_cli(capsys, "solve", "--matrix", "1,2,3", "--beta", "1/2",
                           "--truncation", "12")
    assert code == 1
    assert "TermLimit" in err


def test_negative_term_cap_is_a_flag_error(capsys, monkeypatch):
    monkeypatch.setenv("GKZ_MAX_TERMS", "-1")
    code, out, err = run_cli(capsys, "solve", "--matrix", "1,2,3", "--beta", "1/2",
                             "--truncation", "3")
    _one_line_error(code, out, err, 2)
    assert "GKZ_MAX_TERMS must be >= 0, got -1" in err


def test_term_cap_bounds_the_build_work(capsys, monkeypatch):
    monkeypatch.setenv("GKZ_MAX_TERMS", "5")
    code, out, err = run_cli(capsys, "solve", "--matrix", "1,2,3,4,5,6",
                             "--beta", "1/2", "--truncation", "30")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "TermLimitError" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_running_out_of_memory_is_one_line(capsys, monkeypatch, command):
    # the build raises at once, so the test allocates nothing
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("gkzcurve.basis.solution_basis", exhausted)
    code, out, err = run_cli(capsys, command, "--matrix", "1,2,3", "--beta", "1/2",
                             "--truncation", "777777777777")
    _one_line_error(code, out, err, 1)
    assert "out of memory" in err


GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                     / "golden.json").read_text())


def test_term_cap_counts_stored_section_terms_on_a_general_curve(capsys, monkeypatch):
    # each member keeps at most 9 section terms; the auxiliary series around
    # them are never built, so they do not count against the cap
    monkeypatch.setenv("GKZ_MAX_TERMS", "10")
    argv = "solve --matrix 3,5,7 --beta 1/2 --truncation 14"
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]["sha256"]


def test_term_cap_bounds_the_section_build_work(capsys, monkeypatch):
    monkeypatch.setenv("GKZ_MAX_TERMS", "5")
    code, out, err = run_cli(capsys, "solve", "--matrix", "3,5,7", "--beta", "1/2",
                             "--truncation", "400")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "TermLimitError" in err


def test_closed_stdout_exits_without_a_traceback():
    # the output (~80 kB) outgrows the pipe, so the writer meets the closed end
    src = os.path.dirname(os.path.dirname(gkzcurve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "gkzcurve.cli", "solve", "--matrix", "1,2,3,4,5,6",
            "--beta", "1/2", "--truncation", "8"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{"matrix":'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and err == ""


@pytest.mark.parametrize("command,beta", [("solve", "4"), ("solve", "1/2"),
                                          ("verify", "1/2")])
def test_negative_truncation_is_a_flag_error(capsys, command, beta):
    code, out, err = run_cli(capsys, command, "--matrix", "1,2,3", "--beta", beta,
                             "--truncation", "-1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--truncation" in err


def test_semigroup_of_far_apart_entries(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--matrix", "2,100001", "--beta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["frobenius"] == 99999
    assert payload["delta_exponents"][0] == {"entry": 2, "delta": 50000, "witness": [1]}


def _one_line_error(code, out, err, expected_code):
    assert code == expected_code
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_gevrey_order_below_one_is_a_domain_error(capsys):
    _one_line_error(*run_cli(capsys, "irregularity-table", "--matrix", "1,2,3",
                             "--beta", "4", "--s", "1/2"), 1)


def test_table_reproduction_of_a_general_matrix_is_a_domain_error(capsys):
    # the holomorphic rows are published for smooth matrices only
    _one_line_error(*run_cli(capsys, "irregularity-table", "--matrix", "2,3,5",
                             "--beta-special", "4", "--beta-generic", "1/2",
                             "--s", "2"), 1)


@pytest.mark.parametrize("weight", ["ex", "e", "e\u00b2"])
def test_b_function_bad_weight_is_a_flag_error(capsys, weight):
    _one_line_error(*run_cli(capsys, "b-function", "--matrix", "1,2,3",
                             "--weight", weight), 2)


@pytest.fixture
def solved(tmp_path, capsys):
    """solve --matrix 1,2,3 --beta 4 --truncation 10, parsed."""
    code, out, _ = run_cli(capsys, "solve", "--matrix", "1,2,3", "--beta", "4",
                           "--truncation", "10")
    assert code == 0
    return json.loads(out)


def _verify_file(capsys, path, beta="4"):
    return run_cli(capsys, "verify", "--matrix", "1,2,3", "--beta", beta,
                   "--input", str(path))


@pytest.mark.parametrize("content", [None, "not json", "\udcff",
                                     pytest.param("[" * 100000, id="deep-nesting")])
def test_verify_unreadable_input_is_a_flag_error(tmp_path, capsys, content):
    path = tmp_path / "basis.json"
    if content is not None:
        path.write_bytes(content.encode("utf-8", "surrogateescape"))
    _one_line_error(*_verify_file(capsys, path), 2)


@pytest.mark.parametrize("key", ["series", "base_exponent", "terms", "truncation",
                                 "offset", "coeff"])
def test_verify_input_missing_key_is_a_domain_error(tmp_path, capsys, solved, key):
    entry = solved["basis"][0]
    holder = {"series": entry, "offset": entry["series"]["terms"][0],
              "coeff": entry["series"]["terms"][0]}.get(key, entry["series"])
    del holder[key]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 1)
    assert repr(key) in err


def test_verify_input_short_offset_is_a_domain_error(tmp_path, capsys):
    # window-descriptor series (the gap route) never decompose an offset, so a
    # short one was silently cut by zip and "verified"
    code, out, _ = run_cli(capsys, "solve", "--matrix", "3,5,7", "--beta", "2",
                           "--truncation", "6")
    assert code == 0
    data = json.loads(out)
    term = data["basis"][0]["series"]["terms"][0]
    term["offset"] = term["offset"][:-1]
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(data))
    _one_line_error(*run_cli(capsys, "verify", "--matrix", "3,5,7", "--beta", "2",
                             "--input", str(path)), 1)


@pytest.mark.parametrize("shift", [1, -1])
def test_verify_input_offset_past_the_kernel_range_is_a_domain_error(tmp_path, capsys,
                                                                    solved, shift):
    from gkzcurve.weyl import OFFSET_LIMIT
    term = solved["basis"][0]["series"]["terms"][0]
    path = tmp_path / "basis.json"
    # at the limit the offset is checked (and is not a term of the series)
    term["offset"][0] = shift * OFFSET_LIMIT
    path.write_text(json.dumps(solved))
    code, out, _ = _verify_file(capsys, path)
    assert code == 1 and json.loads(out)["max_violation"] != "0"
    term["offset"][0] = shift * (OFFSET_LIMIT + 1)
    path.write_text(json.dumps(solved))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 1)
    assert "outside the kernel's range" in err


@pytest.mark.parametrize("field,value", [("coeff", "x"), ("truncation", "ten"),
                                         ("terms", 5), ("offset", [0, 1.5, 0]),
                                         ("offset", 5), ("coeff", "1/0"),
                                         ("coeff", "1e5"), ("truncation", -5),
                                         # the error lines once echoed these
                                         # values whole
                                         pytest.param("offset", [0, "x" * 100_000, 0],
                                                      id="offset-long-entry"),
                                         pytest.param("offset", [0] * 100_000,
                                                      id="offset-long"),
                                         pytest.param("terms", [{"offset": [0] * 100_000}],
                                                      id="terms-long-entry"),
                                         pytest.param("offset", [0, 10 ** 4000, 0],
                                                      id="offset-long-integer"),
                                         pytest.param("descriptor", "x" * 100_000,
                                                      id="descriptor-long")])
def test_verify_input_bad_value_is_a_domain_error(tmp_path, capsys, solved, field,
                                                  value):
    series = solved["basis"][0]["series"]
    holder = series["terms"][0] if field in ("coeff", "offset") else series
    holder[field] = value
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 1)
    assert field in err and len(err.encode()) <= 200


@pytest.mark.parametrize("field,value", [("label", 5), ("label", None),
                                         ("is_solution", 0), ("is_solution", "false"),
                                         ("is_solution", None), ("defect_generator", 0),
                                         ("defect_generator", ["toric[2]"])])
def test_verify_input_bad_entry_field_is_a_domain_error(tmp_path, capsys, solved, field,
                                                        value):
    solved["basis"][0][field] = value
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 1)
    assert repr(field) in err


def test_verify_input_does_not_read_a_solution_flag_by_truthiness(tmp_path, capsys):
    # read as falsy, 0 used to check the solution exponent[1] against only the
    # 3 non-box generators, where it must pass all 15
    code, out, _ = run_cli(capsys, "solve", "--matrix", "1,2,3", "--beta", "4",
                           "--truncation", "6")
    assert code == 0
    data = json.loads(out)
    entry = next(e for e in data["basis"] if e["label"] == "exponent[1]")
    path = tmp_path / "basis.json"
    path.write_text(json.dumps([entry]))
    code, out, _ = _verify_file(capsys, path)
    assert code == 0 and len(json.loads(out)["series"][0]["per_generator"]) == 15
    entry["is_solution"], entry["defect_generator"] = 0, None
    path.write_text(json.dumps([entry]))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 1)
    assert "'is_solution' must be true or false, got 0" in err


def test_verify_input_of_another_matrix_is_a_domain_error(tmp_path, capsys, solved):
    # the (1,2,3) lattice series against a 4-entry matrix: refused where it is
    # read, not at the first operator
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved))
    code, out, err = run_cli(capsys, "verify", "--matrix", "1,3,6,8", "--beta", "4",
                             "--input", str(path))
    _one_line_error(code, out, err, 1)
    assert err == ("error: CurveError: lattice series of 4 variables needs a "
                   "base_exponent of length 4, not 3\n")


@pytest.mark.parametrize("matrix, solve_flags", [
    ("3,5,7", ("--beta", "2", "--truncation", "4")),
    ("2,3", ("--beta", "1")),
], ids=["3,5,7", "2,3"])
def test_verify_window_input_of_another_matrix_is_a_domain_error(tmp_path, capsys, matrix,
                                                                 solve_flags):
    # the window series of a general curve used to pass the read and fail at
    # the first operator, with a DimensionMismatchError
    code, out, _ = run_cli(capsys, "solve", "--matrix", matrix, *solve_flags)
    assert code == 0
    assert {e["series"]["descriptor"] for e in json.loads(out)["basis"]} == {"window"}
    path = tmp_path / "basis.json"
    path.write_text(out)
    n = len(matrix.split(","))
    code, out, err = run_cli(capsys, "verify", "--matrix", "1,3,6,8", "--beta", "2",
                             "--input", str(path))
    _one_line_error(code, out, err, 1)
    assert err == (f"error: CurveError: window series of 4 variables needs a "
                   f"base_exponent of length 4, not {n}\n")


@pytest.mark.parametrize("field,value", [("aux_matrix", None), ("aux_base", None),
                                         ("aux_base", ["0", "1/2"]),
                                         ("aux_matrix", [1, 2, "x"])])
def test_verify_input_bad_section_is_a_domain_error(tmp_path, capsys, field, value):
    code, out, _ = run_cli(capsys, "solve", "--matrix", "2,3", "--beta", "1/2",
                           "--truncation", "4")
    assert code == 0
    data = json.loads(out)
    series = data["basis"][0]["series"]
    assert series["descriptor"] == "x0_section"
    if value is None:
        del series[field]
    else:
        series[field] = value
    path = tmp_path / "section.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--matrix", "2,3", "--beta", "1/2",
                             "--input", str(path))
    _one_line_error(code, out, err, 1)
    assert field in err


@pytest.mark.parametrize("field,index,value", [("aux_matrix", None, [1, 2, 3, 4]),
                                               ("aux_base", 2, "7/3")])
def test_verify_input_section_that_contradicts_its_series_is_a_domain_error(
        tmp_path, capsys, field, index, value):
    # the first used to report a large violation on a true solution, the
    # second to exit 0 with its descriptor at another base than its terms
    code, out, _ = run_cli(capsys, "solve", "--matrix", "3,5,7", "--beta", "1/2",
                           "--truncation", "6")
    assert code == 0
    data = json.loads(out)
    series = data["basis"][0]["series"]
    assert series["descriptor"] == "x0_section"
    target, key = (series, field) if index is None else (series[field], index)
    assert target[key] != value
    target[key] = value
    path = tmp_path / "section.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--matrix", "3,5,7", "--beta", "1/2",
                             "--input", str(path))
    _one_line_error(code, out, err, 1)
    assert err.startswith(f"error: CurveError: x0_section {field}")


@pytest.mark.parametrize("args", [("--point", "deep"), ("--input", "EMPTY")])
def test_verify_of_an_empty_basis_is_a_domain_error(tmp_path, capsys, args):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    args = tuple(str(empty) if a == "EMPTY" else a for a in args)
    code, out, err = run_cli(capsys, "verify", "--matrix", "1,2,3", "--beta", "4", *args)
    _one_line_error(code, out, err, 1)
    assert "nothing was checked" in err


def test_verify_of_a_zero_series_is_a_domain_error(tmp_path, capsys, solved):
    # a series with no nonzero term is annihilated by everything
    solved["basis"][1]["series"]["terms"] = []
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 1)
    assert "'witness' has no nonzero term" in err
    # (2,3) at truncation 1: the x_0 = 0 slice of the second member is empty
    code, out, err = run_cli(capsys, "verify", "--matrix", "2,3", "--beta", "1/2",
                             "--truncation", "1")
    _one_line_error(code, out, err, 1)
    assert "nothing was checked" in err


def test_semigroup_table_over_the_cap_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--matrix", "1000003,1000033",
                             "--beta", "1")
    _one_line_error(code, out, err, 1)
    assert "exceeds" in err


@pytest.mark.parametrize("argv,key,value", [
    (("semigroup", "--matrix", "3,5,7", "--member", "5000000"), "is_member", True),
    (("semigroup", "--matrix", "3,5,7", "--member", "4999999"), "is_member", True),
    (("semigroup", "--matrix", "3,5,7", "--beta", "5000001"), "beta_class", "in_semigroup"),
    (("solve", "--matrix", "3,5,7", "--beta", "5000001", "--truncation", "1"), "beta", "5000001"),
    (("solve", "--matrix", "3,5,7", "--beta", "4999999", "--truncation", "0"), "beta", "4999999"),
])
def test_large_members_of_a_small_semigroup(capsys, argv, key, value):
    # past the Frobenius number 4 no table is needed: these once failed at the
    # table cap, or filled 5 million entries in ~4 s
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)[key] == value


def test_generic_exponents_of_a_far_parameter_are_fast(capsys):
    # minimality is proven, not searched: the search's reach grew with |beta|
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "exponents", "--matrix", "1,2", "--point", "generic",
                           "--beta", "-200000")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out) == [[0, -100000], [1, "-200001/2"]]


def test_checking_set_over_the_cap_is_a_domain_error(capsys):
    # radius 40 on a rank-5 kernel is 14 594 728 box operators, counted in
    # closed form before any is built; radius 3 keeps its output
    from gkzcurve.weyl import BOX_OPERATOR_CAP

    argv = ("verify", "--matrix", "1,2,3,4,5,6", "--beta", "1/2", "--truncation", "0")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--ball-radius", "40")
    assert time.perf_counter() - start < 1
    _one_line_error(code, out, err, 1)
    assert f"14594728 box operators, more than the cap of {BOX_OPERATOR_CAP}" in err
    code, out, _ = run_cli(capsys, *argv, "--ball-radius", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "29bd9922f66b70fd56b2faa3119d75c41ac4d68a3e8e0a670d12aa094846d275")


@pytest.mark.parametrize("argv,values", [
    ("exponents --matrix 1,1000000 --beta 1/2 --point generic",
     "1000000 exponents of 2 entries"),
    ("exponents --matrix 1,10000000 --beta 1/2 --point generic",
     "10000000 exponents of 2 entries"),
    ("exponents --matrix 1,60001 --beta 1/2 --point generic",
     "60001 exponents of 2 entries"),
    ("exponents --matrix 1,40001,40002 --beta 1/2", "40001 exponents of 3 entries"),
    # a general curve's vectors have the n + 1 auxiliary entries
    ("exponents --matrix 2,30001,30002 --beta 1/2", "30001 exponents of 4 entries"),
    ("monodromy --matrix 1,1000000,1000001 --beta 1/2", "1000000 rotation numbers"),
    ("monodromy --matrix 1,120001,120002 --beta 1/2", "120001 rotation numbers"),
], ids=["generic-1e6", "generic-1e7", "generic-edge", "smooth-edge", "general-edge",
        "monodromy-1e6", "monodromy-edge"])
def test_exponent_values_over_the_cap_are_a_domain_error(capsys, argv, values):
    # counted before the first vector or rotation is built; one fewer passes,
    # and at the cap exponents takes about a second
    from gkzcurve.core import EXPONENT_VALUE_CAP

    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    _one_line_error(code, out, err, 1)
    assert f"{values} pass the cap of {EXPONENT_VALUE_CAP} values" in err


def test_verify_exits_1_on_a_violation(tmp_path, capsys, solved):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved))
    code, out, _ = _verify_file(capsys, path, beta="5")
    assert code == 1
    data = json.loads(out)
    assert data["max_violation"] != "0"
    assert [row["label"] for row in data["series"]] == ["exponent[1]", "witness"]
    assert all("is_solution" not in row for row in data["series"])
    code, out, _ = _verify_file(capsys, path, beta="4")
    assert code == 0 and json.loads(out)["max_violation"] == "0"


def test_cli_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(gkzcurve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, gkzcurve.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # both cost every command ~30 ms of import and generated-code exec; the
    # import registers every engine module in sys.modules, and runs only core
    src = os.path.dirname(os.path.dirname(gkzcurve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, gkzcurve.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)); "
             "print(sorted(m for m in sys.modules if m.startswith('gkzcurve.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    banned, loaded = result.stdout.splitlines()
    assert banned == "[]"
    for module in SUBMODULES:
        assert f"'gkzcurve.{module}'" in loaded


SUBMODULES = ("basis", "core", "curves", "exponents", "gevrey", "irregularity", "operators",
              "restriction", "semigroup", "series", "series_io", "weyl")

# Prints, after an optional command, the gkzcurve modules in sys.modules, those
# whose body has run, and which of argparse, gettext and locale were imported.
# A registered module whose body has not run still has the lazy loader's
# module class; type() reads that without loading it.
_MODULE_PROBE = """
import contextlib, io, sys, types
import gkzcurve.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        gkzcurve.cli.main(sys.argv[1:])
package = sorted(n for n in sys.modules if n.startswith("gkzcurve."))
print(" ".join(n.split(".", 1)[1] for n in package))
print(" ".join(n.split(".", 1)[1] for n in package
               if type(sys.modules[n]) is types.ModuleType))
print(" ".join(m for m in ("argparse", "gettext", "locale") if m in sys.modules))
"""


def modules_after(*argv):
    src = os.path.dirname(os.path.dirname(gkzcurve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv], env=env,
                            capture_output=True, text=True, check=True)
    registered, ran, stdlib = result.stdout.split("\n")[:3]
    return set(registered.split()), set(ran.split()), set(stdlib.split())


# The package modules each command runs besides cli, cli_flags and core.
# README.md's "Modules a command runs" table states exactly these rows
# (tests/test_readme.py); basis.json stands for the output of
# `solve --matrix 1,2,3 --beta 4 --truncation 40`.
ALWAYS_RUN = {"cli", "cli_flags", "core"}
COMMAND_MODULES = {
    "import-only": ("", set()),
    "help": ("--help", set()),
    "semigroup": ("semigroup --matrix 3,5,7 --beta 1 --member 8", {"cli_curve", "semigroup"}),
    # the point classes and the slope are core names, and no solution basis
    # is built; the Gevrey streams leave the tables and monodromy out
    "gevrey-index": ("gevrey-index --matrix 1,3,5 --stream exponent --beta 1/2 --terms 300",
                     {"cli_gevrey", "gevrey"}),
    "monodromy": ("monodromy --matrix 1,2,3 --beta 1", {"cli_irregularity", "irregularity"}),
    "irregularity-table": (
        "irregularity-table --matrix 1,2,3 --beta-special 4 --beta-generic 1/2 --s 2",
        {"cli_irregularity", "irregularity"}),
    "restrict": ("restrict --matrix 1,3,6,8 --beta 1/3 --mode plane",
                 {"cli_restriction", "restriction"}),
    # the operators are printed, and no series is built or checked
    "restrict-aux": ("restrict --matrix 3,5,7 --beta 1/2 --mode aux",
                     {"cli_restriction", "restriction", "operators", "semigroup"}),
    "b-function": ("b-function --matrix 1,4,6 --weight first",
                   {"cli_restriction", "restriction"}),
    # an index out of range is a core error
    "gevrey-index-bad-j": ("gevrey-index --matrix 1,2,3 --stream exponent --beta 1/2 --j 5",
                           {"cli_gevrey", "gevrey"}),
    "restrict-bad-index": ("restrict --matrix 1,2,3 --beta 1 --mode hyperplane --index 0",
                           {"cli_restriction", "restriction"}),
    "b-function-bad-weight": ("b-function --matrix 1,2,3 --weight e9",
                              {"cli_restriction", "restriction"}),
    # so is a general matrix where a smooth one is needed
    "restrict-plane-not-smooth": ("restrict --matrix 2,3,5 --beta 1 --mode plane",
                                  {"cli_restriction", "restriction"}),
    "restrict-hyperplane-not-smooth": (
        "restrict --matrix 2,3,5 --beta 1 --mode hyperplane --index 1",
        {"cli_restriction", "restriction"}),
    "exponents": ("exponents --matrix 1,2,3 --beta 1/2", {"cli_curve", "exponents", "basis"}),
    # solve and verify leave the tables, Gevrey streams and monodromy out
    "solve-123": ("solve --matrix 1,2,3 --beta 4 --truncation 40",
                  {"cli_basis", "basis", "series", "curves"}),
    "solve-123456": ("solve --matrix 1,2,3,4,5,6 --beta 1/2 --truncation 8",
                     {"cli_basis", "basis", "series", "curves"}),
    "solve-357-half": ("solve --matrix 3,5,7 --beta 1/2 --truncation 14",
                       {"cli_basis", "basis", "series", "curves"}),
    # the gap route tests membership and lifts by inverse contiguity, and
    # applies no operator
    "solve-357-gap": ("solve --matrix 3,5,7 --beta 4 --truncation 14",
                      {"cli_basis", "basis", "series", "curves", "semigroup"}),
    "verify": ("verify --matrix 1,3,6,8 --beta 1/3 --truncation 8",
               {"cli_basis", "basis", "series", "curves", "weyl", "operators"}),
    # only a basis read back from JSON runs the reader
    "verify-input": ("verify --matrix 1,2,3 --beta 4 --input basis.json",
                     {"cli_basis", "basis", "series", "curves", "weyl", "operators",
                      "series_io"}),
}


@pytest.mark.parametrize("argv,extra", list(COMMAND_MODULES.values()),
                         ids=list(COMMAND_MODULES))
def test_each_command_runs_only_the_modules_it_uses(capsys, tmp_path, argv, extra):
    if "basis.json" in argv:
        _, out, _ = run_cli(capsys, "solve", "--matrix", "1,2,3", "--beta", "4",
                            "--truncation", "40")
        (tmp_path / "basis.json").write_text(out)
        argv = argv.replace("basis.json", str(tmp_path / "basis.json"))
    # every module stays registered: perfbench's tracer reads
    # sys.modules["gkzcurve.<m>"] for all of them right after importing gkzcurve.cli
    registered, ran, stdlib = modules_after(*argv.split())
    assert registered >= set(SUBMODULES)
    assert ran == ALWAYS_RUN | extra
    assert stdlib == set()


@pytest.mark.parametrize("text", ["1e3", "0.5"])
@pytest.mark.parametrize("argv", [
    ("exponents", "--matrix", "1,2,3", "--beta", "{}"),
    ("irregularity-table", "--matrix", "1,2,3", "--beta", "1/2", "--s", "{}"),
    ("irregularity-table", "--matrix", "1,2,3", "--beta-special", "{}",
     "--beta-generic", "1/2", "--s", "2"),
    ("irregularity-table", "--matrix", "1,2,3", "--beta-special", "4",
     "--beta-generic", "{}", "--s", "2"),
], ids=["beta", "s", "beta-special", "beta-generic"])
def test_rational_flags_take_p_or_p_over_q_only(capsys, argv, text):
    code, out, err = run_cli(capsys, *(a.format(text) for a in argv))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "p or p/q" in err and repr(text) in err


def test_rational_flags_keep_p_over_q_and_inf(capsys):
    code, out, _ = run_cli(capsys, "irregularity-table", "--matrix", "1,2,3",
                           "--beta=-3/2", "--s", "inf")
    assert code == 0
    assert '"s": "inf"' in out and '"beta": "-3/2"' in out


@pytest.mark.parametrize("before,flag,after", [
    (("irregularity-table", "--matrix", "1,2,3"), "--beta", ("--s", "inf")),
    (("irregularity-table", "--matrix", "1,2,3", "--beta", "1/2"), "--s", ()),
    (("irregularity-table", "--matrix", "1,2,3"), "--beta-special",
     ("--beta-generic", "1/2", "--s", "2")),
    (("irregularity-table", "--matrix", "1,2,3", "--beta-special", "4"),
     "--beta-generic", ("--s", "2")),
], ids=["beta", "s", "beta-special", "beta-generic"])
@pytest.mark.parametrize("value", ["-3/2", "-3"])
def test_rational_flags_take_a_negative_value_as_the_next_token(capsys, before, flag,
                                                                 after, value):
    spaced = run_cli(capsys, *before, flag, value, *after)
    joined = run_cli(capsys, *before, f"{flag}={value}", *after)
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_negative_token_after_another_flag_stays_a_flag_error(capsys):
    code, out, err = run_cli(capsys, "exponents", "--matrix", "-3/2", "--beta", "1")
    _one_line_error(code, out, err, 2)
    assert "--matrix: expected one argument" in err


@pytest.mark.parametrize("argv,named", [
    ((), "no command"),
    (("frobenius", "--matrix", "3,5,7"), "'frobenius'"),
    (("--matrix", "1,2,3", "exponents"), "'--matrix'"),
    (("exponents", "--matrix", "1,2,3", "--beta", "1", "--truncation", "4"), "--truncation"),
    (("irregularity-table", "--matrix", "1,2,3", "--beta-", "4", "--s", "2"), "--beta-"),
    (("exponents", "--matrix", "-1,2,3", "--beta", "1"), "--matrix"),
    (("exponents", "--matrix", "1,2,3", "--beta"), "--beta"),
    (("solve", "--matrix", "1,2,3", "--beta", "1", "--truncation", "--point", "generic"),
     "--truncation"),
    (("solve", "--matrix", "1,2,3", "--beta", "1", "--truncation", "4.5"), "--truncation"),
    (("semigroup", "--matrix", "3,5,7", "--member=x"), "--member"),
    (("solve", "--matrix", "1,2,3", "--beta", "1", "--point", "cusp"), "--point"),
    (("exponents", "--matrix", "1,2,3", "--beta", "1", "--point", "deep"), "--point"),
    (("restrict", "--matrix", "1,2,3", "--beta", "1"), "--mode"),
    (("exponents", "--beta", "1"), "--matrix"),
    (("exponents", "--matrix", "1,2,3", "--beta", "1", "1/2"), "'1/2'"),
    (("monodromy", "--matrix", "1,2,3", "--beta", "1", "-5"), "'-5'"),
    (("monodromy", "--matrix", "1,2,3", "-x", "--beta", "1"), "'-x'"),
], ids=["no-command", "unknown-command", "flag-before-command", "unknown-flag",
        "ambiguous-flag", "negative-token-is-not-a-value", "missing-value-at-end",
        "missing-value-before-flag", "non-int", "non-int-equals-form", "bad-choice",
        "choice-of-another-command", "missing-required", "missing-matrix",
        "stray-token", "stray-negative-number", "single-dash-token"])
def test_every_flag_error_is_one_line_naming_the_flag_or_command(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    _one_line_error(code, out, err, 2)
    assert named in err


@pytest.mark.parametrize("argv", [
    ("solve", "--matrix=1,2,3", "--beta=1/2", "--truncation=3"),
    ("solve", "--mat", "1,2,3", "--be", "1/2", "--trunc", "3"),
    ("solve", "--tr=3", "--point", "smooth", "--beta", "1/2", "--matrix", "1,2,3"),
    ("solve", "--matrix", "1,2,3", "--beta", "4", "--truncation", "9", "--beta", "1/2",
     "--truncation", "3"),
], ids=["equals-form", "unique-prefixes", "any-order", "last-repeat-wins"])
def test_flag_spellings_read_alike(capsys, argv):
    expected = run_cli(capsys, "solve", "--matrix", "1,2,3", "--beta", "1/2",
                       "--truncation", "3")
    assert expected[0] == 0
    assert run_cli(capsys, *argv) == expected


# every command and its flags in declaration order, written apart from cli's table
COMMAND_FLAGS = {
    "exponents": "--matrix --beta --format --point",
    "solve": "--matrix --beta --format --point --s --truncation",
    "verify": "--matrix --beta --format --point --truncation --ball-radius --input",
    "gevrey-index": "--matrix --beta --format --stream --terms --j --csv",
    "irregularity-table": "--matrix --beta --format --s --beta-special --beta-generic "
                          "--ext-degree",
    "restrict": "--matrix --beta --format --mode --index",
    "b-function": "--matrix --format --weight",
    "monodromy": "--matrix --beta --format",
    "semigroup": "--matrix --beta --format --member",
}


@pytest.mark.parametrize("argv", [("--help",), ("-h",)], ids=["--help", "-h"])
def test_help_names_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    assert listed == set(COMMAND_FLAGS)


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@pytest.mark.parametrize("before", [(), ("--matrix", "1,2,3")], ids=["first", "later"])
def test_command_help_names_every_flag(capsys, command, before):
    code, out, err = run_cli(capsys, command, *before, "-h")
    assert code == 0 and err == ""
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
    assert listed == COMMAND_FLAGS[command].split()


# each command, one quick run, except irregularity-table: the one table renderer
WITHOUT_TABLE = [
    ("exponents", "--matrix", "1,2,3", "--beta", "1/2"),
    ("solve", "--matrix", "1,2,3", "--beta", "1/2", "--truncation", "2"),
    ("verify", "--matrix", "1,2,3", "--beta", "1/2", "--truncation", "2"),
    ("gevrey-index", "--matrix", "1,2,3", "--terms", "20"),
    ("restrict", "--matrix", "1,3,6,8", "--beta", "1/3", "--mode", "plane"),
    ("b-function", "--matrix", "1,4,6", "--weight", "first"),
    ("monodromy", "--matrix", "1,2,3", "--beta", "1"),
    ("semigroup", "--matrix", "3,5,7", "--beta", "1"),
]


@pytest.mark.parametrize("argv", WITHOUT_TABLE, ids=[a[0] for a in WITHOUT_TABLE])
def test_format_table_is_a_flag_error_where_no_table_renders(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "table")
    _one_line_error(code, out, err, 2)
    assert "--format" in err and "'table'" in err
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert run_cli(capsys, *argv)[1] == out
    json.loads(out)


# Each command once in every mode its handler takes; "basis.json" stands for
# the output of `solve --matrix 1,2,3 --beta 4 --truncation 10`.
MODES = {
    "exponents": ["--matrix 1,2,3 --beta 1/2", "--matrix 1,2,3 --beta 1/2 --point generic"],
    "solve": ["--matrix 1,2,3 --beta 1/2 --truncation 2",
              "--matrix 1,2,3 --beta 4 --s 1 --truncation 2",
              "--matrix 1,2,3 --beta 4 --point deep --s 3/2 --truncation 2",
              "--matrix 3,5,7 --beta 1/2 --point generic --s inf --truncation 2"],
    "verify": ["--matrix 1,2,3 --beta 1/2 --truncation 2",
               "--matrix 1,2,3 --beta 4 --input basis.json"],
    "gevrey-index": ["--matrix 1,2,3 --terms 20",
                     "--matrix 1,3,5 --stream exponent --beta 1/2 --terms 20",
                     "--matrix 1,2,3 --stream factorial --terms 20",
                     "--matrix 1,2,3 --stream inverse-factorial --terms 20"],
    "irregularity-table": ["--matrix 1,2,3 --beta 4 --s 2",
                           "--matrix 1,2,3 --beta 4 --format table",
                           "--matrix 1,2,3 --beta-special 4 --beta-generic 1/2 --s 2"],
    "restrict": ["--matrix 1,2,3 --beta 1 --mode hyperplane --index 2",
                 "--matrix 1,2,3 --beta 1/2 --mode x1",
                 "--matrix 1,3,6,8 --beta 1/3 --mode plane",
                 "--matrix 3,5,7 --beta 1/2 --mode aux"],
    "b-function": ["--matrix 1,4,6 --weight first", "--matrix 1,2,3 --weight e2"],
    "monodromy": ["--matrix 1,2,3 --beta 1"],
    "semigroup": ["--matrix 3,5,7", "--matrix 3,5,7 --beta 1 --member 8"],
}
# malformed values of each typed flag kind; a value like 3,2,1 is well formed
# and a domain error
MALFORMED = {parse_matrix: ["1,x", "1.5,2"], parse_rational: ["x", "0.5", "1/0", ""],
             parse_order: ["x", "-inf", ""], parse_count: ["-1", "x", "2.5"]}


def _typed_flags(command):
    return [("--" + dest.replace("_", "-"), MALFORMED[kind])
            for dest, (kind, _, _) in _COMMANDS[command][2].items() if kind in MALFORMED]


def _names(flag, err):
    return re.search(re.escape(flag) + r"(?![\w-])", err) is not None


def test_the_modes_cover_every_command():
    assert set(MODES) == set(_COMMANDS)


@pytest.mark.parametrize("command,mode", [(c, m) for c, modes in MODES.items() for m in modes])
def test_a_malformed_typed_value_is_a_flag_error_in_every_mode(capsys, tmp_path, solved,
                                                               command, mode):
    (tmp_path / "basis.json").write_text(json.dumps(solved))
    argv = [command, *mode.replace("basis.json", str(tmp_path / "basis.json")).split()]
    assert run_cli(capsys, *argv)[0] == 0
    for flag, values in _typed_flags(command):
        for text in values:
            code, out, err = run_cli(capsys, *argv, f"{flag}={text}")
            _one_line_error(code, out, err, 2)
            assert _names(flag, err), (flag, text, err)


@pytest.mark.parametrize("command", sorted(MODES))
def test_of_two_malformed_flags_the_first_in_table_order_is_named(capsys, command):
    for (first, bad_first), (second, bad_second) in itertools.combinations(
            _typed_flags(command), 2):
        code, out, err = run_cli(capsys, command, *MODES[command][0].split(),
                                 f"{second}={bad_second[0]}", f"{first}={bad_first[0]}")
        _one_line_error(code, out, err, 2)
        assert _names(first, err) and not _names(second, err), (first, second, err)


def test_solve_reads_no_s_as_the_slope_and_s_inf_as_inf(capsys):
    argv = ("solve", "--matrix", "1,2,3", "--beta", "1/2", "--truncation", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["s"] == json.loads(out)["slope"] == "3/2"
    code, out, _ = run_cli(capsys, *argv, "--s", "inf")
    assert code == 0 and json.loads(out)["s"] == "inf"


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.integers(-10**40, 10**40), st.integers(10**300, 10**301),
    st.floats(), st.text(max_size=6),
    st.sampled_from(["lattice", "x0_section", "finite", "window", "1/2", "-3",
                     "1/0", "x", "1e5", "toric[2]"]),
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=3), children,
                                               max_size=4)),
    max_leaves=12)


def _edit(document, path, action, value):
    """Walk down the entries that path picks, then replace, delete or add one."""
    node = document
    for depth, pick in enumerate(path):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = keys[pick % len(keys)]
        if depth + 1 < len(path) and isinstance(node[key], (dict, list)):
            node = node[key]
        elif action == "replace":
            node[key] = value
            return
        elif action == "delete":
            del node[key]
            return
        else:
            break
    if isinstance(node, dict):
        node[str(path[-1])] = value
    else:
        node.append(value)


def _edited(document, edits):
    document = copy.deepcopy(document)
    for path, action, value in edits:
        _edit(document, path, action, value)
    return document


_edit_lists = st.lists(st.tuples(st.lists(st.integers(0, 10**6), min_size=1, max_size=7),
                                  st.sampled_from(["replace", "delete", "add"]),
                                  _json_values),
                       min_size=1, max_size=3)
# solve outputs with a lattice, an x0_section and a window descriptor
_FUZZED_BASES = [("1,2,3", "4", "4"), ("2,3", "1/2", "4"), ("3,5,7", "2", "4")]


@pytest.fixture(scope="module")
def solved_documents():
    documents = []
    for matrix, beta, level in _FUZZED_BASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", "--matrix", matrix, "--beta", beta,
                         "--truncation", level]) == 0
        documents.append((matrix, beta, json.loads(out.getvalue())))
    return documents


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_input_fuzz_never_escapes(tmp_path, capsys, solved_documents, data):
    # solve's output with random edits (wrong types, missing and extra keys,
    # nested lists, huge integers), or random JSON: exit 1 or 2 with a one-line
    # error, or a report; never a traceback.  An edit can leave a valid series
    # (a new label, an extra key), so exit 0 with max_violation 0 stays possible.
    matrix, beta, solved = data.draw(st.sampled_from(solved_documents))
    document = data.draw(st.one_of(_json_values,
                                   st.builds(_edited, st.just(solved), _edit_lists)))
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "verify", "--matrix", matrix, "--beta", beta,
                             "--input", str(path))
    if out:
        report = json.loads(out)
        assert code == (0 if report["max_violation"] == "0" else 1), (code, out)
    else:
        assert code in (1, 2), (code, err)
        assert err.count("\n") == 1 and err.startswith("error: "), err


@st.composite
def _curves(draw):
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        rest = draw(st.lists(st.integers(2, 9), min_size=n - 1, max_size=n - 1,
                             unique=True))
        return (1,) + tuple(sorted(rest))
    entries = tuple(sorted(draw(st.lists(st.integers(2, 9), min_size=n, max_size=n,
                                         unique=True))))
    assume(math.gcd(*entries) == 1)
    return entries


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=_curves(),
       beta=st.one_of(st.integers(-3, 9),
                      st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5]))),
       point=st.sampled_from(["smooth", "generic", "deep"]),
       level=st.integers(0, 4))
def test_solve_round_trips_through_json_and_verify_input(tmp_path, capsys, entries, beta,
                                                         point, level):
    A = make_curve(entries)
    flags = ["--matrix", ",".join(map(str, entries)), "--beta", str(beta),
             "--point", point, "--truncation", str(level)]
    code, out, err = run_cli(capsys, "solve", *flags)
    built = run_cli(capsys, "verify", *flags)
    if code != 0:                       # the same domain error from both
        assert built == (code, out, err) and code == 1
        return
    path = tmp_path / "solve.json"
    path.write_text(out)
    read = run_cli(capsys, "verify", *flags, "--input", str(path))
    # the --input report is the built-in one without is_solution
    assert read[0] == built[0] and read[2] == built[2]
    if built[1]:
        expected = json.loads(built[1])
        for row in expected["series"]:
            del row["is_solution"]
        assert json.loads(read[1]) == expected
    else:
        assert read[1] == ""
    for member in solution_basis(A, beta, PointClass(point), s=slope(A), level=level):
        series = member.series
        back = series_from_json(series.to_json(), matrix=A)
        assert back == series and back.truncation == series.truncation
        assert back.to_json() == series.to_json()
        assert type(back.descriptor) is type(series.descriptor)


# ---------------------------------------------------------------------------
# Digit and size caps, and output past CPython's 4 300-digit str <-> int limit

OVER_CAP = "7" * (DIGIT_CAP + 1)
LONG = "7" * 5000               # under the cap, past the interpreter's limit


@pytest.mark.parametrize("argv", [
    ("monodromy", "--matrix", "1,2", "--beta", "{}"),
    ("monodromy", "--matrix", "1,2", "--beta", "1/{}"),
    ("irregularity-table", "--matrix", "1,2,3", "--beta", "1/2", "--s", "{}"),
    ("irregularity-table", "--matrix", "1,2,3", "--beta-special", "{}",
     "--beta-generic", "1/2", "--s", "2"),
    ("irregularity-table", "--matrix", "1,2,3", "--beta-special", "4",
     "--beta-generic", "-{}", "--s", "2"),
], ids=["beta", "beta-denominator", "s", "beta-special", "beta-generic"])
def test_rational_flags_past_the_digit_cap_are_a_flag_error(capsys, argv):
    limit = sys.get_int_max_str_digits()
    start = time.monotonic()
    code, out, err = run_cli(capsys, *(a.format(OVER_CAP) for a in argv))
    assert time.monotonic() - start < 0.5
    _one_line_error(code, out, err, 2)
    assert f"more than {DIGIT_CAP} digits" in err and len(err) < 120
    assert sys.get_int_max_str_digits() == limit


LONG_INT = "9" * 40_000          # under the cap, far past what an error line should echo


@pytest.mark.parametrize("argv, expected_code", [
    (("b-function", "--matrix", "1,2,3", "--weight", "e" + "9" * 100_000), 2),
    (("b-function", "--matrix", "1,2,3", "--weight", "e{}"), 1),
    (("restrict", "--matrix", "1,2,3", "--beta", "1", "--mode", "hyperplane",
      "--index", "{}"), 1),
    (("gevrey-index", "--matrix", "1,2,3", "--beta", "1", "--stream", "exponent",
      "--j", "{}"), 1),
    (("solve", "--matrix", "1,2,3", "--beta", "1", "--truncation", "-{}"), 2),
    (("gevrey-index", "--matrix", "1,2,3", "--terms", "{}"), 1),
    (("verify", "--matrix", "1,2,3", "--beta", "1", "--ball-radius", "{}"), 1),
    (("irregularity-table", "--matrix", "1,2,3", "--beta-special", "1/{}",
      "--beta-generic", "1/2", "--s", "2"), 1),
], ids=["b-function-past-cap", "b-function", "restrict", "gevrey-index", "solve",
        "gevrey-terms", "verify-ball-radius", "irregularity-table"])
def test_long_integers_are_cut_in_error_lines(capsys, argv, expected_code):
    code, out, err = run_cli(capsys, *(a.format(LONG_INT) for a in argv))
    _one_line_error(code, out, err, expected_code)
    assert len(err) <= 200


def test_semigroup_with_a_unit_entry_is_all_of_n(capsys):
    # the table is queried up to a_n (a_1 - 1) = 0, not a_1 a_n past the cap
    code, out, _ = run_cli(capsys, "semigroup", "--matrix", "1,5000000")
    assert code == 0
    payload = json.loads(out)
    assert payload["gaps"] == [] and payload["frobenius"] == -1


def test_a_long_rational_flag_under_the_digit_cap_is_read_and_printed(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "monodromy", "--matrix", "1,2", "--beta", f"-{LONG}/3")
    assert code == 0 and json.loads(out)["beta"] == f"-{LONG}/3"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("coeff", [OVER_CAP, f"1/{OVER_CAP}", f"-{OVER_CAP}/7"])
def test_verify_input_coeff_past_the_digit_cap_is_a_domain_error(tmp_path, capsys,
                                                                 solved, coeff):
    solved["basis"][0]["series"]["terms"][0]["coeff"] = coeff
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 1)
    assert "coeff" in err and f"more than {DIGIT_CAP} digits" in err and len(err) < 160


def test_verify_input_integer_past_the_digit_cap_is_a_flag_error(tmp_path, capsys, solved):
    solved["basis"][0]["series"]["truncation"] = "TRUNCATION"
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(solved).replace('"TRUNCATION"', OVER_CAP))
    code, out, err = _verify_file(capsys, path)
    _one_line_error(code, out, err, 2)
    assert f"more than {DIGIT_CAP} digits" in err


def test_solve_output_past_the_interpreter_limit_reads_back(tmp_path, capsys):
    flags = ("--matrix", "1,2000", "--beta", "1/2")
    code, out, _ = run_cli(capsys, "solve", *flags, "--truncation", "2")
    assert code == 0
    coeffs = [t["coeff"] for t in json.loads(out)["basis"][0]["series"]["terms"]]
    assert max(len(c) for c in coeffs) > 4300
    path = tmp_path / "solve.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", *flags, "--input", str(path))
    assert code == 0 and json.loads(out)["max_violation"] == "0"


def test_gevrey_index_csv_prints_coefficients_past_the_interpreter_limit(tmp_path,
                                                                          capsys):
    csv = tmp_path / "stream.csv"
    code, _, _ = run_cli(capsys, "gevrey-index", "--matrix", "1,2,3", "--terms", "3000",
                         "--csv", str(csv))
    assert code == 0
    k, c = csv.read_text().splitlines()[-1].split(",")
    assert k == "5998" and len(c) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(c) == -math.factorial(8997) // math.factorial(5998)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    # a stored term of (1, 2000) at level 2 spans 4 000 Gamma steps of ~133 bits
    ("solve", "--matrix", "1,2000", "--beta", f"1/{10**40 + 1}", "--truncation", "2"),
    ("gevrey-index", "--matrix", "1,3,5", "--stream", "exponent",
     "--beta", f"{10**60 + 1}/7", "--terms", "1000"),
], ids=["solve", "gevrey-index"])
def test_integers_past_the_size_cap_are_a_domain_error(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1
    _one_line_error(code, out, err, 1)
    assert f"size cap of {3 * DIGIT_CAP} bits" in err
