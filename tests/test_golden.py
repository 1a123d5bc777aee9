"""Every command of the benchmark's golden file, replayed in-process: same exit
code, same stdout sha256.  The file is read, never written, here."""

import hashlib
import json
from pathlib import Path

import pytest

from gkzcurve.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())
INPUT = "{input}"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_command_reproduces(capsys, tmp_path, key):
    argv = key.split()
    if INPUT in argv:
        # the benchmark's verify --input reads what solve wrote for the same beta
        beta = argv[argv.index("--beta") + 1]
        code, out = run(capsys, ["solve", "--matrix", "1,2,3", "--beta", beta,
                                 "--truncation", "40"])
        assert code == 0
        path = tmp_path / "solve.json"
        path.write_text(out)
        argv[argv.index(INPUT)] = str(path)
    code, out = run(capsys, argv)
    assert code == GOLDEN[key]["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]["sha256"]
