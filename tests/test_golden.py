"""Every command of the benchmark's golden file, replayed in-process: same exit
code, same stdout sha256.  One command per workload is also replayed as the
benchmark runs it, through `python -m gkzcurve.cli`.  The file is read, never
written, here."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkzcurve
from gkzcurve.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())
INPUT = "{input}"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_module(argv):
    """Exit code, stdout and stderr of `python -m gkzcurve.cli argv`, which runs
    cli.py as __main__."""
    src = os.path.dirname(os.path.dirname(gkzcurve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gkzcurve.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def golden_argv(key, tmp_path, runner):
    """The argv of a golden key, with the benchmark's verify --input reading
    what solve wrote for the same beta."""
    argv = key.split()
    if INPUT in argv:
        beta = argv[argv.index("--beta") + 1]
        code, out = runner(["solve", "--matrix", "1,2,3", "--beta", beta,
                            "--truncation", "40"])[:2]
        assert code == 0
        path = tmp_path / "solve.json"
        path.write_text(out)
        argv[argv.index(INPUT)] = str(path)
    return argv


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_command_reproduces(capsys, tmp_path, key):
    runner = functools.partial(run, capsys)
    code, out = runner(golden_argv(key, tmp_path, runner))
    assert code == GOLDEN[key]["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]["sha256"]


# one per workload: verify-smooth, solve-build (the gap route), query-mix
@pytest.mark.parametrize("key", ["verify --matrix 1,2,3 --beta 4 --input {input}",
                                 "solve --matrix 3,5,7 --beta 4 --truncation 14",
                                 "restrict --matrix 3,5,7 --beta 1/2 --mode aux"])
def test_golden_command_reproduces_as_a_module_run(tmp_path, key):
    code, out, err = run_module(golden_argv(key, tmp_path, run_module))
    assert code == GOLDEN[key]["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]["sha256"]
    assert "Traceback" not in err


def test_flag_error_in_a_handler_module_exits_2_as_a_module_run():
    # raised by cli_gevrey: one UsageError class, whichever module raises it
    code, out, err = run_module(["gevrey-index", "--matrix", "1,2,3", "--stream", "exponent"])
    assert (code, out) == (2, "")
    assert err == "error: --stream exponent needs --beta\n"
