"""The package-level names resolve through the lazily loaded submodules."""

import ast
import importlib
from pathlib import Path

import pytest

import gkzcurve


def test_every_name_in_all_resolves():
    assert len(gkzcurve.__all__) == len(set(gkzcurve.__all__)) == 65
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


def _traced_pairs():
    """(home, name) of every row of perfbench/tracer.py's TRACED table, which
    the tracer wraps on gkzcurve.<home>; read without importing the tracer."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    table = next(node.value for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    return [(row.elts[0].value, row.elts[1].value) for row in table.elts]


def test_every_name_the_tracer_wraps_resolves():
    pairs = _traced_pairs()
    assert len(pairs) > 20
    for home, name in pairs:
        assert callable(getattr(getattr(gkzcurve, home), name)), (home, name)


# module -> {each home it serves the tracer's moved names from: a name of that
# home the tracer does not read there}
BRIDGES = {"curves": {"semigroup": "semigroup_table"},
           "series": {"series_io": "SubstitutionResult"},
           "irregularity": {"basis": "BasisMember", "gevrey": "InsufficientDataError"}}


def test_each_bridge_forwards_exactly_the_moved_names_the_tracer_reads():
    moved = {}
    for home, name in _traced_pairs():
        if name not in vars(getattr(gkzcurve, home)):
            moved.setdefault(home, set()).add(name)
    assert moved.keys() == BRIDGES.keys()
    for module, homes in BRIDGES.items():
        bridge = getattr(gkzcurve, module)
        assert set(bridge._FORWARDED) == moved[module], module
        served = {}
        for name in bridge._FORWARDED:
            value = getattr(bridge, name)
            home = value.__module__.rpartition(".")[2]
            assert value is getattr(getattr(gkzcurve, home), name)
            served.setdefault(home, set()).add(name)
        assert served.keys() == homes.keys(), module


@pytest.mark.parametrize("module", sorted(BRIDGES))
def test_a_bridge_refuses_every_other_name(module):
    bridge = importlib.import_module(f"gkzcurve.{module}")
    with pytest.raises(AttributeError, match=f"'gkzcurve.{module}' has no attribute 'no_such'"):
        bridge.no_such
    with pytest.raises(ImportError, match="no_such"):
        exec(f"from gkzcurve.{module} import no_such", {})
    for home, unread in BRIDGES[module].items():
        assert hasattr(getattr(gkzcurve, home), unread)
        with pytest.raises(AttributeError, match=f"'gkzcurve.{module}' has no attribute"):
            getattr(bridge, unread)
