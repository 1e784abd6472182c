"""Command line front end.

    dml run <file> [--out PATH] [--format json|csv]
    dml density <file> [--out PATH]
    dml certify <file> --a A --b B [--out PATH]

``run`` executes the whole pipeline; ``density`` stops after the
return-set scan and window profile; ``certify`` builds the closure
chain and periodicity certificate for one progression without running
detection.  CSV format emits the (n, in_V) table and the
(L, max_ratio) table; with --out the two land in <out>_returns.csv and
<out>_density.csv, on stdout they are separated by a blank line.
Every report is built in :mod:`dmlab.experiment`; this module only
parses arguments, dispatches and maps errors to exit codes.

Exit codes: 0 success, 1 bad input (file, JSON, schema, expression,
usage), 2 internal failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    ExperimentError,
    SchemaError,
    StageError,
    certify_report,
    density_report,
    load_experiment,
    run_experiment,
)
from .exprparse import ExprSyntaxError

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dml",
        description="exact-arithmetic return-set decomposition for polynomial orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full analysis pipeline")
    p_run.add_argument("file", help="experiment JSON file")
    p_run.add_argument("--out", help="output path (csv: path prefix); default stdout")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")

    p_density = sub.add_parser("density", help="return set and density profile only")
    p_density.add_argument("file", help="experiment JSON file")
    p_density.add_argument("--out", help="output path; default stdout")

    p_certify = sub.add_parser(
        "certify", help="closure chain and certificate for one progression"
    )
    p_certify.add_argument("file", help="experiment JSON file")
    p_certify.add_argument("--a", type=int, required=True, help="progression modulus")
    p_certify.add_argument("--b", type=int, required=True, help="progression offset")
    p_certify.add_argument("--out", help="output path; default stdout")
    return parser


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args) -> None:
    spec = load_experiment(args.file)
    report = run_experiment(spec)
    if args.format == "json":
        _emit(report.to_json(), args.out)
        return
    if args.out is None:
        sys.stdout.write(report.returns_csv())
        sys.stdout.write("\n")
        sys.stdout.write(report.density_csv())
    else:
        _emit(report.returns_csv(), f"{args.out}_returns.csv")
        _emit(report.density_csv(), f"{args.out}_density.csv")


def _cmd_density(args) -> None:
    spec = load_experiment(args.file)
    _emit(density_report(spec).to_json(), args.out)


def _cmd_certify(args) -> None:
    if args.a < 1:
        raise SchemaError("--a must be a positive modulus")
    if args.b < 0:
        raise SchemaError("--b must be a non-negative offset")
    spec = load_experiment(args.file)
    _emit(certify_report(spec, args.a, args.b).to_json(), args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "density":
            _cmd_density(args)
        else:
            _cmd_certify(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, ExprSyntaxError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
