"""Run one gkz command in-process with spans around the package's public calls.

    python3 perfbench/tracer.py OUT.json -- <gkz argv...>

The interpreter is fresh, so the first thing measured is `import
gkzcurve.cli` (cli.import_s).  Then every listed function is replaced by a
recording wrapper in every module namespace that holds it, and
`gkzcurve.cli.main(argv)` runs with stdout captured.  Spans (id, parent,
name, start, end, counts) are kept in memory and written to OUT.json with the
exit code and stdout when the command ends.  Nothing under src/ is modified;
inner hot helpers such as series.falling_product are not wrapped.
"""

import sys
import time

_t0 = time.perf_counter()
import gkzcurve.cli  # noqa: E402  (timed: the fresh-interpreter import)
IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402


def _apply_counts(args, result):
    op, src = args[0], args[1]
    src = getattr(src, "series", src)          # TrustedSeries or FormalSeries
    return {"contributions": len(src.terms) * len(op.terms)}


# (home module, function, counter read at the call boundary)
TRACED = (
    ("curves", "lattice_decompose", None),
    ("curves", "semigroup_member", None),
    ("curves", "frobenius_number", None),
    ("curves", "semigroup_gaps", None),
    ("curves", "delta_exponents", None),
    ("curves", "beta_class", None),
    ("series", "gamma_series", lambda a, r: {"terms": len(r.terms)}),
    ("series", "exponent_series", None),
    ("series", "witness_series", None),
    ("series", "substitute_x0",
     lambda a, r: {"parent": len(a[0].terms), "kept": len(r.series.terms)}),
    ("series", "inverse_contiguity", None),
    ("series", "series_from_json", None),
    ("weyl", "apply", _apply_counts),
    ("weyl", "named_generators", lambda a, r: {"count": len(r)}),
    ("weyl", "annihilation_report", None),
    ("exponents", "singular_exponents", None),
    ("exponents", "generic_exponents", None),
    ("irregularity", "solution_basis", None),
    ("irregularity", "verify_basis", None),
    ("irregularity", "slope_subseries", None),
    ("irregularity", "gevrey_index_estimate", None),
    ("irregularity", "irregularity_dimension", None),
    ("irregularity", "stratum_dimension_table", None),
    ("irregularity", "reference_dimension_table", None),
    ("irregularity", "dimension_table_diff", None),
    ("irregularity", "monodromy_rotations", None),
    ("restriction", "restrict_hyperplane", None),
    ("restriction", "restrict_first_variable", None),
    ("restriction", "restrict_to_plane", None),
    ("restriction", "auxiliary_restriction", None),
    ("restriction", "b_function", None),
    ("restriction", "generic_rank", None),
)


class Recorder:
    """Span store.  Span 0 is the cli.main root of the command."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end, counts]
        self.stack = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, result)
            return result

        return traced


def install(recorder):
    """Wrap every TRACED function wherever the package imported it, and
    FormalSeries.to_json on its class."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "gkzcurve" or n.startswith("gkzcurve.")]
    for home, fname, counter in TRACED:
        original = getattr(sys.modules[f"gkzcurve.{home}"], fname)
        wrapper = recorder.wrap(f"{home}.{fname}", original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    cls = sys.modules["gkzcurve.series"].FormalSeries
    cls.to_json = recorder.wrap("series.to_json", cls.to_json)


def run(argv):
    recorder = Recorder()
    install(recorder)
    main = recorder.wrap("cli.main", gkzcurve.cli.main)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        rc = main(argv)
    except SystemExit as exc:          # argparse reports flag errors this way
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
    return {"import_s": IMPORT_S, "rc": rc, "stdout": out.getvalue(),
            "spans": recorder.spans}


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py OUT.json -- <gkz argv...>")
    result = run(sys.argv[3:])
    with open(sys.argv[1], "w") as fh:
        json.dump(result, fh)
