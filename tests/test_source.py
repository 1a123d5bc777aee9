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
    # each costs every gkz command import time; core.record replaces
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


def test_no_package_module_imports_cli():
    # `python -m gkzcurve.cli` runs cli.py as __main__: a module importing
    # gkzcurve.cli would compile it again, with a second UsageError class that
    # main does not catch; the handler modules share cli_flags instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):   # the module, or a name in it
                base = ".".join(["gkzcurve"] * node.level + [node.module or ""]).strip(".")
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m == "gkzcurve.cli"]
    assert found == []


def test_every_name_imported_from_core_is_used():
    # core is the one home of the matrix, readers, caps and errors: a module
    # that imports a core name it never reads is re-exporting it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level, node.module) in ((1, "core"), (0, "gkzcurve.core"))):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if (alias.asname or alias.name) not in used]
    assert found == []


def _run_at_import(node):
    """node and the nodes under it that run when the module is imported: not
    function bodies, nor annotations (postponed by `from __future__ import
    annotations`)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        parts = (getattr(node, "decorator_list", []) + node.args.defaults
                 + [d for d in node.args.kw_defaults if d is not None])
    elif isinstance(node, ast.AnnAssign):
        parts = [node.target] + ([node.value] if node.value else [])
    else:
        parts = list(ast.iter_child_nodes(node))
    yield node
    for part in parts:
        yield from _run_at_import(part)


def _names_bound_at_import(module: str, users: set[str]) -> tuple[set[str], list[str]]:
    """The names module.py defines, and where a package module outside users
    binds one when it is imported: `from .module import name`, or
    `_alias.name` run at import after `from . import module as _alias`, which
    binds the lazily loaded module and compiles nothing until a name is read."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}
    own |= {node.target.id for node in tree.body if isinstance(node, ast.AnnAssign)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in users | {f"{module}.py"}:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = list(_run_at_import(tree))
        aliases = {alias.asname or alias.name for node in nodes
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for alias in node.names if alias.name == module}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (
                    (node.level, node.module) in ((1, module), (0, f"gkzcurve.{module}"))):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in own or alias.name == "*"]
            elif (isinstance(node, ast.Attribute) and node.attr in own
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return own, found


# series enumerates the kernel lattice for its supports and weyl for its
# checking set, so both bind curves names at import; series_io reads series
# back, which loads curves anyway
LATTICE_USERS = {"series.py", "series_io.py", "weyl.py"}


def test_only_lattice_users_bind_a_curves_name_at_import():
    # the closed-form commands (exponents, gevrey-index, irregularity-table,
    # monodromy, restrict --mode plane, b-function) and semigroup must not
    # compile curves.py: other modules read its own names as _curves.<name>
    # at call time
    own, found = _names_bound_at_import("curves", LATTICE_USERS)
    assert {"LatticeBasis", "lattice_basis", "lattice_decompose", "lattice_points"} <= own
    assert found == []


def test_no_module_binds_a_semigroup_name_at_import():
    # solve (but for the gap route of a general curve), verify and every
    # closed-form command must not compile semigroup.py: other modules read
    # its names as _semigroup.<name> at call time
    own, found = _names_bound_at_import("semigroup", set())
    assert {"SemigroupTable", "MEMBERSHIP_TABLE_CAP", "_TABLES", "semigroup_member",
            "frobenius_number", "semigroup_gaps", "delta_exponents", "DeltaExponent",
            "beta_class", "BetaClass"} <= own
    assert found == []


def _package_imports(path) -> set[str]:
    """The package modules path imports in any form: `from .m import name`,
    `from . import m`, `import gkzcurve.m` and the absolute `from` forms."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(["gkzcurve"] * node.level + [node.module or ""]).strip(".")
            if base == "gkzcurve":
                out |= {alias.name for alias in node.names}
            elif base.startswith("gkzcurve."):
                out.add(base.split(".")[1])
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("gkzcurve.")}
    return out


def test_the_operator_algebra_leaves_the_kernel_and_the_series_out():
    # restrict --mode aux only builds and prints operators: operators.py binds
    # nothing from curves, series or weyl, so that command compiles none of
    # them; the verification kernel in weyl.py is reached from basis alone
    own, found = _names_bound_at_import("weyl", {"basis.py"})
    assert {"_SeriesKernel", "apply", "annihilation_report", "named_generators"} <= own
    assert found == []
    assert _package_imports(PACKAGE / "operators.py") == {"core"}
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "weyl" in _package_imports(path)] == ["basis.py"]


# the verification kernel and the support guard it classifies with
INTEGER_ONLY = {"weyl.py": ("_SeriesKernel", "_Certainty"),
                "series.py": ("_FallingFactors", "LatticeGammaSupport.classify",
                              "LatticeGammaSupport.placed")}


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


def test_no_handler_module_reads_a_typed_flag_itself():
    # cli._parse reads every matrix, rational, order and count flag by the
    # kind its table gives; a handler that parsed one again would hold that
    # flag's grammar only in the modes it reads it
    helpers = {"parse_matrix", "parse_rational", "parse_order", "parse_count", "nonnegative"}
    found = []
    for name in ("cli_basis", "cli_curve", "cli_gevrey", "cli_irregularity",
                 "cli_restriction"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        found += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                  and (getattr(node, "id", None) or getattr(node, "attr", None)
                       or getattr(node, "name", None)) in helpers]
    assert found == []
