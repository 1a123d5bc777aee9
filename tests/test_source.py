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
