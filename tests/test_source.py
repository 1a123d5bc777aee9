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
    # each costs every gkz command import time; records.record replaces dataclass
    banned = {"dataclasses", "typing", "inspect"}
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
INTEGER_ONLY = {"weyl.py": ("_SeriesKernel", "_Certainty", "_Window", "_FallingFactors"),
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
