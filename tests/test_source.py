import ast
from pathlib import Path

import gkzcurve

PACKAGE = Path(gkzcurve.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # assert vanishes under python -O; guarding checks raise CurveError instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_dataclasses_typing_or_inspect_imports_in_the_package():
    # each costs every gkz command import time; records.record replaces
    # dataclass, and cli's flag table replaces argparse
    banned = {"dataclasses", "typing", "inspect", "argparse"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] in banned]
    assert found == []


# the verification kernel and the support guard it classifies with
INTEGER_ONLY = {"weyl.py": ("_SeriesKernel", "_Certainty", "_FallingFactors"),
                "series.py": ("LatticeGammaSupport.classify",)}


def test_the_verification_kernel_names_no_fraction_helper():
    banned = {"Fraction", "falling_product", "negative_support"}
    found = []
    for filename, names in INTEGER_ONLY.items():
        tree = ast.parse((PACKAGE / filename).read_text(), filename=filename)
        bodies = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bodies[node.name] = node
                bodies.update((f"{node.name}.{item.name}", item) for item in node.body
                              if isinstance(item, ast.FunctionDef))
        for name in names:
            for node in ast.walk(bodies[name]):
                ident = (node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute) else None)
                if ident in banned:
                    found.append(f"{filename}:{node.lineno} {name} {ident}")
    assert found == []


def _series_definitions():
    tree = ast.parse((PACKAGE / "series.py").read_text(), filename="series.py")
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def _names(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_the_gamma_factor_tables_are_integer_only():
    assert "Fraction" not in _names(_series_definitions()["_GammaFactor"])


def test_the_term_loop_builds_one_fraction_per_stored_term():
    # the only Fraction of the build is the value stored under each enumerated
    # point: `terms[...] = Fraction(num, den)` directly in the body of the loop
    # over lattice_points, which names no other Fraction
    loop_fn = _series_definitions()["_gamma_terms"]
    loops = [node for node in ast.walk(loop_fn) if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Call)
             and getattr(node.iter.func, "id", None) == "lattice_points"]
    assert len(loops) == 1
    stores = [stmt for stmt in loops[0].body if isinstance(stmt, ast.Assign)
              and isinstance(stmt.targets[0], ast.Subscript)
              and getattr(stmt.targets[0].value, "id", None) == "terms"]
    assert len(stores) == 1
    value = stores[0].value
    assert isinstance(value, ast.Call) and getattr(value.func, "id", None) == "Fraction"
    assert all(isinstance(arg, ast.Name) for arg in value.args)
    assert _names(loop_fn).count("Fraction") == 1
