"""The facts README.md shares with the code, each read from both sides: the
commands with their flags and JSON keys, the series JSON example, the cap
values, the modules with the package API, the modules each command runs, and
the library tour, run as doctests."""

import doctest
import importlib
import json
import re
from pathlib import Path

import gkzcurve
from gkzcurve import cli
from gkzcurve.cli import main
from test_cli import ALWAYS_RUN, COMMAND_MODULES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def table_after(heading):
    """The header and body rows of the first table after a heading line, each a
    list of cells."""
    lines = README[README.index(f"\n{heading}\n"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows[0], rows[2:]


def names(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_readme_lists_each_command_with_its_flags():
    _, rows = table_after("## Commands")
    assert [names(row[0])[0] for row in rows] == list(cli._COMMANDS)
    for command, flags, _ in rows:
        table = cli._COMMANDS[names(command)[0]][2]
        stated = dict(re.findall(r"`--([a-z-]+)(?: \{([^}]*)\})?`", flags))
        assert set(stated) == {d.replace("_", "-") for d in table} - {"matrix", "format"}
        for flag, choices in stated.items():
            if choices:
                assert tuple(choices.split(",")) == table[flag.replace("-", "_")][0]


def test_readme_examples_run_and_print_the_stated_keys(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    block = next(b for b in re.findall(r"```sh\n(.*?)```", README, re.S) if "gkz " in b)
    printed = {}
    for line in block.splitlines():
        if line.startswith("# "):       # the stdout of the command above
            assert out.strip() == line[2:], line
            continue
        argv, _, target = line.split("#")[0].partition(">")
        command, *flags = argv.split()[1:]
        assert main([command, *flags]) == 0, line
        out = capsys.readouterr().out
        if target.strip():
            Path(target.strip()).write_text(out)
        data = json.loads(out)
        printed.setdefault(command, set()).update(data if isinstance(data, dict) else ())
    _, rows = table_after("## Commands")
    stated = {names(command)[0]: set(names(keys)) for command, _, keys in rows}
    assert printed == stated


def test_readme_schema_example_is_solve_output(capsys):
    example = json.loads(re.search(r"```json\n(.*?)```", README, re.S)[1].replace(", ...", ""))
    assert main(["solve", "--matrix", "1,2,3", "--beta", "1/2", "--truncation", "12"]) == 0
    member = json.loads(capsys.readouterr().out)["basis"][1]
    member["series"]["terms"] = member["series"]["terms"][:1]
    assert example == member


def cap_value(text):
    base, _, power = text.replace(" ", "").partition("^")
    return int(base) ** int(power or 1)


def test_readme_states_each_cap_once_with_the_value_in_code():
    _, rows = table_after("### Caps")
    stated = {names(cap)[0]: cap_value(value) for cap, value, _ in rows}
    assert len(stated) == len(rows)
    assert set(stated) == {"core.DIGIT_CAP", "core.EXPONENT_VALUE_CAP",
                           "semigroup.MEMBERSHIP_TABLE_CAP", "weyl.BOX_OPERATOR_CAP",
                           "weyl.OFFSET_LIMIT", "cli_gevrey.STREAM_FACTOR_CAP"}
    for path, value in stated.items():
        module, name = path.split(".")
        assert getattr(importlib.import_module(f"gkzcurve.{module}"), name) == value, path
    # no other line of README restates a value, in any spelling
    for text in {value for _, value, _ in rows}:
        in_table = sum(value == text for _, value, _ in rows)
        spellings = {text, text.replace(" ", ""), text.replace(" ", "_")}
        assert sum(README.count(s) for s in spellings) == in_table, text


def test_readme_lists_every_module_and_the_package_api_by_home():
    _, rows = table_after("### Modules")
    listed = {names(row[0])[0]: names(row[2]) for row in rows}
    package = Path(gkzcurve.__file__).parent
    assert len(listed) == len(rows)
    assert set(listed) == {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert {m: set(n) for m, n in listed.items() if n} == \
        {m: set(n) for m, n in gkzcurve._EXPORTS.items()}
    assert sorted(n for ns in listed.values() for n in ns) == sorted(gkzcurve.__all__)


def test_readme_lists_the_modules_each_command_runs():
    header, rows = table_after("### Modules a command runs")
    assert set(names(header[1])) == ALWAYS_RUN
    stated = []
    for command, modules in rows:
        command = names(command)[0]
        argv = "" if command == "import gkzcurve.cli" else command.removeprefix("gkz ")
        stated.append((argv, set() if modules == "none" else set(names(modules))))
    assert stated == list(COMMAND_MODULES.values())


def test_readme_python_blocks_run_as_doctests():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    parser, runner, report = doctest.DocTestParser(), doctest.DocTestRunner(), []
    globs = {}
    for i, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, globs, f"README python block {i}", "README.md", 0)
        assert test.examples
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs          # the next block goes on from this one
    assert runner.summarize(verbose=False).failed == 0, "".join(report)
