"""Command-line front end: every operation behind deterministic JSON output.

Exit codes: 0 success, 1 domain error, 2 flag error; an error is one line on stderr.
The environment variable GKZ_MAX_TERMS caps stored series terms as a safety
valve for accidental huge truncations; since only support points are
enumerated (for a general curve, only those of the x_0 = 0 section), it
bounds the build work as well.  A reader that closes stdout early ends the
command with exit 1 and no traceback.
"""

from __future__ import annotations

import importlib
import os
import re
import sys
from types import SimpleNamespace

from .cli_flags import UsageError
from .core import RATIONAL_TEXT, CurveError, read_integer


# ---------------------------------------------------------------------------
# Flags.  Each command maps to its handler's "module.function" name, its
# description and its flag table.  The handlers live in one module per engine
# family, which main imports only for the command it runs.  A flag table maps
# a flag's attribute name (`--ball-radius` -> ball_radius) to its kind
# (int, str, or a tuple of choices), its default and whether it is required.

_TEXT, _INT = (str, None, False), (int, None, False)
_POINT = (("generic", "smooth", "deep"), "smooth", False)


def _flags(beta_required, formats=("json",), **own) -> dict:
    """--matrix, --beta (required, optional, or absent if None), --format, own flags."""
    table = {"matrix": (str, None, True)}
    if beta_required is not None:
        table["beta"] = (str, None, beta_required)
    table["format"] = (formats, "json", False)
    table.update(own)
    return table


_COMMANDS = {
    "exponents": ("cli_curve.exponents", "starting exponents of the solution series",
                  _flags(True, point=(("smooth", "generic"), "smooth", False))),
    "solve": ("cli_basis.solve", "basis series for a point class",
              _flags(True, point=_POINT, s=_TEXT, truncation=(int, 12, False))),
    "verify": ("cli_basis.verify", "annihilation check of a basis (built or from file)",
               _flags(True, point=_POINT, truncation=(int, 12, False),
                      ball_radius=(int, 3, False), input=_TEXT)),
    "gevrey-index": ("cli_gevrey.gevrey_index",
                     "growth-rate fit of a coefficient stream",
                     _flags(False, stream=(("witness", "exponent", "factorial",
                                            "inverse-factorial"), "witness", False),
                            terms=(int, 200, False), j=(int, 0, False), csv=_TEXT)),
    "irregularity-table": ("cli_irregularity.irregularity_table",
                           "germ dimension table; with "
                           "--beta-special/--beta-generic diffs the published table",
                           _flags(False, ("json", "table"), s=_TEXT, beta_special=_TEXT,
                                  beta_generic=_TEXT, ext_degree=_INT)),
    "restrict": ("cli_restriction.restrict", "restriction decompositions",
                 _flags(True, mode=(("hyperplane", "x1", "plane", "aux"), None, True),
                        index=_INT)),
    "b-function": ("cli_restriction.b_function", "closed-form b-function roots",
                   _flags(None, weight=(str, None, True))),
    "monodromy": ("cli_irregularity.monodromy", "monodromy rotation numbers", _flags(True)),
    "semigroup": ("cli_curve.semigroup", "semigroup data and parameter class",
                  _flags(False, member=_INT)),
}

_RATIONAL_FLAGS = ("beta", "s", "beta_special", "beta_generic")
# a token that reads as a negative number (-N or -N.M) is a value, not a flag
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _help(args):
    if args.command is None:
        head = ["usage: gkz COMMAND [--flag value ...]; gkz COMMAND --help lists its flags",
                "Exact Gevrey solutions and irregularity data of monomial-curve "
                "hypergeometric systems"]
        rows = [f"  {name:<20}{text}" for name, (_, text, _) in _COMMANDS.items()]
    else:
        _, text, table = _COMMANDS[args.command]
        head = [f"usage: gkz {args.command} [--flag value ...]", text]
        rows = [f"  --{dest.replace('_', '-')} "
                + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                   else "INT" if kind is int else "TEXT")
                + ("  (required)" if required else "" if default is None
                   else f"  (default {default})")
                for dest, (kind, default, required) in table.items()]
    print(*head, *rows, sep="\n")
    return 0


def _parse(argv: list[str]):
    """The command's handler and flag values, read as argparse reads `--flag value`,
    `--flag=value` and a unique prefix, the last of a repeated flag winning."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help, SimpleNamespace(command=None)
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command"
        raise UsageError(f"{given}: choose from {', '.join(_COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    handler, _, table = _COMMANDS[command]
    flags = {"--" + dest.replace("_", "-"): dest for dest in table}
    values = {dest: default for dest, (_, default, _) in table.items()}
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, SimpleNamespace(command=command)
        name, has_value, value = token.partition("=")
        if not name.startswith("--") or name == "--":
            raise UsageError(f"{command}: unexpected argument {token!r}")
        matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
        if len(matches) != 1:
            raise UsageError(f"ambiguous flag {name} of {command}: could match "
                             f"{', '.join(matches)}" if matches
                             else f"unknown flag {name} of {command}")
        dest = flags[flag := matches[0]]
        if not has_value:
            value = next(tokens, "-")      # none left reads as a missing value
            if value.startswith("-") and not (
                    _NEGATIVE_NUMBER.fullmatch(value)
                    or dest in _RATIONAL_FLAGS and RATIONAL_TEXT.fullmatch(value)):
                raise UsageError(f"argument {flag}: expected one argument")
        kind = table[dest][0]
        if kind is int:
            try:
                value = read_integer(value)
            except (ValueError, OverflowError):
                raise UsageError(f"argument {flag}: invalid int value: {value[:40]!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        values[dest] = value
    # a required flag has no default, and a given value is never None
    missing = [flag for flag, dest in flags.items() if table[dest][2] and values[dest] is None]
    if missing:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()    # output prints any size the caps allow
    sys.set_int_max_str_digits(0)
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(handler, str):        # import the command's own module only
            module, name = handler.split(".")
            handler = getattr(importlib.import_module(f".{module}", __package__), name)
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`gkz solve ... | head`): send the rest of
        # the output to devnull so the flush at interpreter exit cannot raise
        # again, and exit without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CurveError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
