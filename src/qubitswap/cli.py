"""Command line entry point: generic scans, figure presets, self-validation."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import validate
from .errors import ParseError, QubitSwapError, RangeError, UnknownFigure
from .scenario import FIGURE_IDS, OPTIONS, emit_csv, format_csv, parse_config, run_figure, run_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitswap",
        description="Dissipative moving-qubit dynamics and entanglement swapping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="evaluate one observable over a time grid")
    # argparse's negative-number pattern has no exponent, so it would read
    # "--phi1 -1e-05" as two options; any "-digit" word here is a value.
    scan._negative_number_matcher = re.compile(r"^-\.?\d")
    scan.add_argument("--config", type=Path, help="flat key = value config file")
    for opt in OPTIONS.values():
        scan.add_argument(f"--{opt.key}", type=opt.type, choices=opt.choices, help=opt.help)

    fig = sub.add_parser("figure", help="run a published-figure preset")
    fig.add_argument("id", metavar="ID", help=f"one of: {', '.join(FIGURE_IDS)}")
    fig.add_argument("--outdir", type=Path, default=Path("."))

    sub.add_parser("validate", help="run the invariant and oracle suite")
    return parser


def _cmd_scan(args) -> int:
    file_text = None
    if args.config is not None:
        file_text = args.config.read_text(encoding="utf-8")
    flags = {key: getattr(args, key.replace("-", "_")) for key in OPTIONS}
    config = parse_config(flags, file_text=file_text)
    series = run_scan(config)
    if config.out == "-":
        sys.stdout.write(format_csv(series))
    else:
        emit_csv(series, config.out)
    return EXIT_OK


def _cmd_figure(args) -> int:
    paths = run_figure(args.id, args.outdir)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "validate":
            return EXIT_OK if validate.run_all() else EXIT_NUMERIC
        return EXIT_USAGE
    except (ParseError, RangeError, UnknownFigure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QubitSwapError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # last resort: one line instead of a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
