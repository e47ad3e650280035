"""Command line entry point: generic scans, figure presets, self-validation."""

from __future__ import annotations

import argparse
import ctypes
import functools
import re
import sys
from pathlib import Path

from . import validate
from .errors import ParseError, QubitSwapError, RangeError
from .scenario import FIGURE_IDS, OPTIONS, emit_csv, parse_config, run_figure
from .scenario import format_csv, run_scan  # noqa: F401 (re-exported)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep freed memory in this process instead of returning it.

    glibc's dynamic thresholds follow the largest mmapped chunk freed so far:
    at 1e5 points that is about 1.6 MB, so heap tops above about 3.2 MB go
    back to the kernel after each CSV block and the next block faults them in
    again, zero-filled.  Fixed thresholds (mmap at 32 MiB, glibc's largest,
    trim at 64 MiB) keep them.  Both must be set: a trim threshold alone
    switches off the dynamic mmap threshold and mmaps every array of 128 KiB
    and up.  A C library without mallopt leaves the allocator as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (OSError, AttributeError, TypeError):
        pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One line, like every other usage error, instead of the usage text
        and the message."""
        self.exit(EXIT_USAGE, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One parser a process: argparse keeps no state between parses."""
    parser = _Parser(
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


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "validate":
            return EXIT_OK if validate.run_all() else EXIT_NUMERIC
        if args.command == "figure":
            for path in run_figure(args.id, args.outdir):
                print(f"wrote {path}")
            return EXIT_OK
        file_text = None  # scan: the sub-command is required, so no other is left
        if args.config is not None:
            try:  # UTF-8, with or without a byte order mark
                file_text = args.config.read_text(encoding="utf-8-sig")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{args.config}: not UTF-8 text at byte {exc.start}") from None
        flags = {key: getattr(args, key.replace("-", "_")) for key in OPTIONS}
        # "--k=--" gave [] before 3.13
        flags = {k: "--" if v == [] else v for k, v in flags.items()}
        config = parse_config(flags, file_text=file_text)
        emit_csv(config, config.out)
        return EXIT_OK
    except (ParseError, RangeError) as exc:
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
