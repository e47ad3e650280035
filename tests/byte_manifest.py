"""The byte manifest: SHA-256 of a fixed set of outputs, so that any change
that moves an output byte shows up as a diff of byte_manifest.json.

The set: the 26 preset CSVs, `qubitswap validate`'s stdout, one scan per
observable on each amplitude route (analytic, --method oracle, the
propagator fallback at R = 1/sqrt(2)), a Monte Carlo power scan, a
16 384-point amplitude scan and the identical-angle Bell scans.  Each CSV
also gets its row count and, per column, the exact sum (math.fsum) and the
largest magnitude of its values, so that a platform whose bits differ can
still be compared by value (see test_byte_manifest.py).

    python tests/byte_manifest.py             rewrite tests/byte_manifest.json
    python tests/byte_manifest.py --diff SRC  also list, for each output that
                                              differs from what the package
                                              in SRC writes, how many values
                                              moved and by how much

Run it from the repository root with src on the path (PYTHONPATH=src).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from qubitswap import cli, scenario

MANIFEST = Path(__file__).with_name("byte_manifest.json")

_MODEL = ["--R", "10", "--beta", "1e-8", "--omega-ratio", "1.5e9", "--theta1",
          "1.5707963267948966", "--phi1", "0.3", "--theta2", "0.78539816339744828"]
_GRID = ["--tau-max", "20", "--tau-steps", "1001"]
_ROUTES = {"analytic": [], "oracle": ["--method", "oracle"],
           "fallback": ["--R", "0.7071067811865475", "--beta", "0"]}
_BELL = ["--R", "10", "--beta", "0", "--omega-ratio", "1.5e9", "--theta1", "1",
         "--theta2", "1", "--tau-max", "1000", "--tau-steps", "2001"]
SCANS = {  # output name -> scan flags (the last of a repeated flag wins)
    **{f"scan-{obs}-{route}.csv": [*_MODEL, *_GRID, "--observable", obs, *flags]
       for route, flags in _ROUTES.items() for obs in scenario.OBSERVABLES},
    "scan-power-mc.csv": [*_MODEL, *_GRID, "--observable", "power", "--power-method", "mc",
                          "--mc-samples", "2000", "--seed", "7"],
    "scan-amplitude-16384.csv": [*_MODEL, "--tau-max", "50", "--tau-steps", "16384",
                                 "--observable", "amplitude"],
    "bell-concurrence.csv": [*_BELL, "--observable", "concurrence"],
    "bell-density.csv": [*_BELL, "--observable", "density"],
}


def platform_key() -> dict:
    """What an output's bits depend on besides the code: numpy's version,
    the machine, and the SIMD targets numpy dispatches to on this CPU."""
    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath")
    features = getattr(umath, "__cpu_features__", {})
    simd = [t for t in getattr(umath, "__cpu_dispatch__", []) if features.get(t)]
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def generate(outdir: Path) -> list[Path]:
    """Write every output of the set into outdir; returns their paths."""
    outdir = Path(outdir)
    paths = [p for fig in scenario.FIGURE_IDS for p in scenario.run_figure(fig, outdir)]
    for name, flags in SCANS.items():
        paths.append(outdir / name)
        if cli.main(["scan", *flags, "--out", str(paths[-1])]) != 0:
            raise RuntimeError(f"scan {name} failed")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(["validate"])
    paths.append(outdir / "validate.txt")
    paths[-1].write_text(stdout.getvalue(), encoding="utf-8")
    return paths


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    header, *lines = path.read_text(encoding="ascii").splitlines()
    values = np.array([[float(v) for v in line.split(",")] for line in lines])
    return header.split(","), values.reshape(len(lines), -1)


def describe(path: Path) -> dict:
    """The manifest entry of one output."""
    entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    if path.suffix == ".csv":
        columns, values = read_csv(path)
        entry.update(columns=columns, rows=len(values),
                     sums=[math.fsum(col) for col in values.T.tolist()],
                     scales=np.abs(values).max(axis=0, initial=0.0).tolist())
    return entry


def manifest_text(outdir: Path) -> str:
    """The manifest as JSON, one output a line, so that a diff names the
    outputs that moved."""
    lines = [f" {json.dumps(p.name)}: {json.dumps(describe(p))}" for p in generate(outdir)]
    return (f'{{"platform": {json.dumps(platform_key())},\n"outputs": {{\n'
            + ",\n".join(lines) + "\n}}\n")


def value_moves(old: Path, new: Path) -> str:
    """How many values of two same-shaped CSVs differ, per column, and the
    largest absolute and relative move."""
    columns, a = read_csv(old)
    _, b = read_csv(new)
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    parts = []
    for name, x, y in zip(columns, a.T, b.T):
        moved = x != y
        if moved.any():
            rel = np.abs(x - y)[moved] / np.maximum(np.abs(x), np.abs(y))[moved]
            parts.append(f"{name}: {moved.sum()} of {len(x)}, max |d| "
                         f"{np.abs(x - y).max():.3g}, max relative {rel.max():.3g}")
    return "; ".join(parts) or "same values, other bytes"


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        new = Path(tmp, "new")
        MANIFEST.write_text(manifest_text(new), encoding="utf-8")
        print(f"wrote {MANIFEST}")
        if argv[:1] == ["--diff"]:
            old = Path(tmp, "old")
            code = (f"import sys; sys.path[:0] = [{str(Path(argv[1]).resolve())!r}, "
                    f"{str(MANIFEST.parent)!r}]; import byte_manifest; "
                    f"byte_manifest.generate({str(old)!r})")
            subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
            for path in sorted(new.iterdir()):
                if path.read_bytes() != (old / path.name).read_bytes():
                    moves = value_moves(old / path.name, path) if path.suffix == ".csv" else ""
                    print(f"{path.name}: {moves}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
