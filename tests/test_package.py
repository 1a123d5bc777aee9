"""The package-level names resolve through the lazily loaded submodules."""

import ast
import importlib
from pathlib import Path

import pytest

import gkzcurve


def test_every_name_in_all_resolves():
    assert len(gkzcurve.__all__) == len(set(gkzcurve.__all__)) == 69
    for name in gkzcurve.__all__:
        value = getattr(gkzcurve, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value


def test_star_import_gives_every_name():
    namespace = {}
    exec("from gkzcurve import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gkzcurve.__all__)


def test_submodules_and_names_stay_reachable():
    from gkzcurve import series, weyl
    from gkzcurve.irregularity import solution_basis

    assert gkzcurve.series is series and gkzcurve.weyl is weyl
    assert gkzcurve.solution_basis is solution_basis
    assert set(gkzcurve.__all__) <= set(dir(gkzcurve))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gkzcurve.no_such_name


def test_every_name_the_tracer_wraps_resolves():
    # perfbench/tracer.py wraps each (home, name) of its TRACED table on
    # gkzcurve.<home>; read the table without importing the tracer
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    table = next(node.value for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    pairs = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert len(pairs) > 20
    for home, name in pairs:
        assert callable(getattr(getattr(gkzcurve, home), name)), (home, name)
