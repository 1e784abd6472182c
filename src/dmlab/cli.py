"""Command line front end; the usage is ``_USAGE``, which ``-h`` prints.

``run`` executes the whole pipeline; ``density`` stops after the
return-set scan and window profile; ``certify`` builds the closure
chain and periodicity certificate for one progression without running
detection.  CSV format emits the (n, in_V) table and the
(L, max_ratio) table; with --out the two land in <out>_returns.csv and
<out>_density.csv, on stdout they are separated by a blank line.
Every report is built in :mod:`dmlab.experiment`; this module only
parses arguments, dispatches and maps errors to exit codes.

Options may come before or after the file, as ``--opt VALUE`` or
``--opt=VALUE``.  Exit codes: 0 success, 1 bad input (file, JSON,
schema, expression, usage), 2 internal failure.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .experiment import (
    ExperimentError,
    StageError,
    certify_report,
    density_report,
    load_experiment,
    run_experiment,
)

__all__ = ["main"]

_USAGE = """\
dml run <file> [--out PATH] [--format json|csv]
dml density <file> [--out PATH]
dml certify <file> --a A --b B [--out PATH]
"""


class _UsageError(Exception):
    pass


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write(report, args) -> None:
    if args.format == "json":
        _emit(report.to_json(), args.out)
    elif args.out is None:
        sys.stdout.write(report.returns_csv())
        sys.stdout.write("\n")
        sys.stdout.write(report.density_csv())
    else:
        _emit(report.returns_csv(), f"{args.out}_returns.csv")
        _emit(report.density_csv(), f"{args.out}_density.csv")


# Each command's options, and the report it builds from the experiment.
_COMMANDS = {
    "run": (("out", "format"), lambda spec, args: run_experiment(spec)),
    "density": (("out",), lambda spec, args: density_report(spec)),
    "certify": (("a", "b", "out"), lambda spec, args: certify_report(spec, args.a, args.b)),
}


def _parse(argv) -> SimpleNamespace:
    """The fields a command reads: ``command``, ``file``, ``out``,
    ``format`` (default json), and ``a`` and ``b`` as ints (certify only).
    Raises _UsageError for any command line ``_USAGE`` does not allow."""
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError("the command must be run, density or certify")
    command, *rest = argv
    options, files, tokens = {}, [], iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        name, eq, value = token.partition("=")
        key = name[2:]
        if not name.startswith("--") or key not in _COMMANDS[command][0]:
            raise _UsageError(f"{command} takes no option {name}")
        if key in options:
            raise _UsageError(f"{name} is given twice")
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise _UsageError(f"{name} needs a value")
        if key in ("a", "b"):
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"{name} must be an integer, got {value!r}") from None
        options[key] = value
    if len(files) != 1:
        raise _UsageError(f"{command} takes one file, got {len(files)}")
    args = {"out": None, "format": "json", "a": None, "b": None, **options}
    if args["format"] not in ("json", "csv"):
        raise _UsageError(f"--format must be json or csv, got {args['format']!r}")
    if command == "certify" and not {"a", "b"} <= options.keys():
        raise _UsageError("certify needs both --a and --b")
    return SimpleNamespace(command=command, file=files[0], **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE)
        return 0
    try:
        args = _parse(argv)
        _write(_COMMANDS[args.command][1](load_experiment(args.file), args), args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
