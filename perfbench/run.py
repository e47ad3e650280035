"""The qubitswap benchmark: fixed CLI workloads, end-to-end metrics, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Each pass runs a workload's commands through ``qubitswap.cli.main`` in a
fresh interpreter (perfbench/child.py), one after another (closed loop), and
the run repeats passes for about ``--seconds``.  The last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full report (environment, per-pass figures, digests, problems).

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer split of the
traced ones, plus the tracing overhead (traced minus untraced wall time).
``--smoke`` shrinks every workload to a tiny size, for the self-test.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
CHILD = BENCH_DIR / "child.py"

WORKLOADS = ("scan", "figures", "verify")
SCAN_OBSERVABLES = ("amplitude", "entropy", "entropy-avg", "concurrence", "density")
FIGURE_IDS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig5", "fig6", "fig7", "fig8a", "fig8b")
SMOKE_FIGURE_IDS = ("fig2a", "fig6", "fig8a")
OMEGA = 1.5e9
TAU_MAX = 50.0
SETUP_SAMPLES = 5          # set-up-only interpreters per run, on top of one per pass
PASS_TIMEOUT_S = 75
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# Children get one-thread BLAS pools unless the caller chose otherwise.  No
# workload makes a BLAS call large enough to be threaded, while starting the
# default pool added about 75 ms to each interpreter start and made set-up
# time less steady from one run to the next.
CHILD_ENV = {**os.environ, **{k: os.environ.get(k, "1") for k in THREAD_ENV}}


@dataclass
class Command:
    argv: list[str]
    curve: object = None            # checks.Curve for a scan
    figure: str | None = None       # preset id for a figure
    is_validate: bool = False
    reference: dict | None = None   # digests of the first pass that ran it
    check_problems: list[str] = field(default_factory=list)
    problems: set[str] = field(default_factory=set)
    failed: int = 0

    def outputs(self, workdir: Path) -> list[Path]:
        if self.curve is not None:
            return [workdir / self.argv[self.argv.index("--out") + 1]]
        if self.figure is not None:
            return sorted(workdir.glob(f"{self.figure}_*.csv"))
        return []

    def digests(self, workdir: Path, stdout: str) -> dict:
        """SHA-256 of each file the command wrote, and of its stdout."""
        out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in self.outputs(workdir) if p.is_file()}
        out["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        return out


def _num(x: float) -> str:
    return repr(float(x))


def _draw_model(rng: random.Random) -> tuple[float, float]:
    """R and beta inside the paper's ranges, away from degenerate roots."""
    from qubitswap.amplitude import ModelParams, build_amplitude_model

    while True:
        R, beta = rng.uniform(0.05, 20.0), rng.uniform(0.0, 2e-8)
        if not build_amplitude_model(ModelParams(R, beta, OMEGA)).degenerate:
            return R, beta


def _draw_angles(rng: random.Random) -> tuple[float, float, float, float]:
    """Bloch angles whose Bell-measurement success weight stays away from 0:
    |c1 c2| >= 0.1 and |Y|^2 >= 0.01, Y = s1 c2 e^(i phi1) - s2 c1 e^(i phi2)."""
    while True:
        t1, t2 = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
        f1, f2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
        c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
        y = s1 * c2 * cmath.exp(1j * f1) - s2 * c1 * cmath.exp(1j * f2)
        if c1 * c2 >= 0.1 and abs(y) ** 2 >= 0.01:
            return t1, f1, t2, f2


def _model_args(R, beta):
    return ["--R", _num(R), "--beta", _num(beta), "--omega-ratio", _num(OMEGA)]


def workload_commands(name: str, seed: int, smoke: bool = False) -> list[Command]:
    """The commands of one pass.  Only the input values depend on the seed."""
    from checks import Curve

    rng = random.Random(seed)
    if name == "scan":
        steps = 201 if smoke else 100_001
        R, beta = _draw_model(rng)
        angles = _draw_angles(rng)
        base = ["scan", *_model_args(R, beta),
                "--theta1", _num(angles[0]), "--phi1", _num(angles[1]),
                "--theta2", _num(angles[2]), "--phi2", _num(angles[3]),
                "--tau-max", _num(TAU_MAX), "--tau-steps", str(steps)]
        return [Command(base + ["--observable", obs, "--out", f"scan-{obs}.csv"],
                        curve=Curve(obs, R, beta, OMEGA, 0.0, TAU_MAX, steps, angles))
                for obs in SCAN_OBSERVABLES]
    if name == "figures":
        ids = SMOKE_FIGURE_IDS if smoke else FIGURE_IDS
        return [Command(["figure", fig, "--outdir", "."], figure=fig) for fig in ids]
    if name == "verify":
        R, beta = _draw_model(rng)
        mc_seed = rng.randrange(2**32)
        oracle_steps, mc_steps, mc_samples = (51, 6, 2_000) if smoke else (1_000, 200, 100_000)
        tau_max = 5.0 if smoke else TAU_MAX
        grid = ["--tau-max", _num(tau_max)]
        return [
            Command(["scan", *_model_args(R, beta), *grid, "--tau-steps", str(oracle_steps),
                     "--method", "oracle", "--observable", "amplitude",
                     "--out", "oracle-amplitude.csv"],
                    curve=Curve("amplitude", R, beta, OMEGA, 0.0, tau_max, oracle_steps,
                                method="oracle")),
            Command(["scan", *_model_args(R, beta), *grid, "--tau-steps", str(mc_steps),
                     "--observable", "power", "--power-method", "mc",
                     "--mc-samples", str(mc_samples), "--seed", str(mc_seed),
                     "--out", "mc-power.csv"],
                    curve=Curve("power", R, beta, OMEGA, 0.0, tau_max, mc_steps,
                                power_method="mc", mc_samples=mc_samples, mc_seed=mc_seed)),
            Command(["validate"], is_validate=True),
        ]
    raise ValueError(f"unknown workload {name!r}")


def check_outputs(cmd: Command, workdir: Path, stdout: str) -> list[str]:
    import checks
    from qubitswap import validate
    from qubitswap.scenario import figure_preset

    if cmd.curve is not None:
        return checks.check_curve(cmd.curve, cmd.outputs(workdir)[0])
    if cmd.figure is not None:
        problems = []
        for cfg in figure_preset(cmd.figure):
            problems += checks.check_curve(checks.curve_from_config(cfg), workdir / cfg.out)
        return problems
    if cmd.is_validate:
        return checks.check_validate_output(stdout, [name for name, _ in validate.ALL_CHECKS])
    return []


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(spec: dict) -> tuple[dict | None, str]:
    """Run one fresh interpreter on spec; return (its result, its stderr)."""
    spec_path = OUT / "spec.json"
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = _monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)], cwd=ROOT,
                            env=CHILD_ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return None, f"pass timed out after {PASS_TIMEOUT_S} s\n{err}"
    if proc.returncode != 0 or not result_path.is_file():
        return None, f"child exited {proc.returncode}\n{err}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end"] - t0
    return result, err


def measure(commands: list[Command], seconds: float, trace: bool, tag: str) -> dict:
    """Run passes over commands for about `seconds`; return the report."""
    workdir = OUT / "work"
    OUT.mkdir(exist_ok=True)
    setup = []
    for _ in range(SETUP_SAMPLES):
        result, err = _spawn({"setup_only": True, "result": str(OUT / "result.json")})
        if result is None:
            raise RuntimeError(f"set-up interpreter failed: {err}")
        setup.append(result["setup_s"])

    passes: list[dict] = []
    failed = 0
    t_start = _monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t_pass = _monotonic()
        result, err = _spawn({
            "commands": [c.argv for c in commands], "trace": traced,
            "workdir": str(workdir), "result": str(OUT / "result.json"),
            "spans_out": str(OUT / f"spans-{tag}.npz"),
        })
        record = {"traced": traced, "seconds": _monotonic() - t_pass}
        if result is None:
            record["error"] = err
            runs = [None] * len(commands)
        else:
            setup.append(result["setup_s"])
            record.update(wall_s=result["wall_s"], peak_rss_mb=result["peak_rss_mb"],
                          layers=result.get("layers"), digests=[])
            runs = result["commands"]
        for cmd, res in zip(commands, runs):
            problem = _attempt(cmd, res, workdir, record)
            if problem is not None:
                cmd.problems.add(problem)
                cmd.failed += 1
                failed += 1
        passes.append(record)

        elapsed = _monotonic() - t_start
        enough = any(not p["traced"] for p in passes) and (not trace or len(passes) >= 2)
        if enough and elapsed + record["seconds"] > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_samples": setup, "passes": passes,
            "attempted": len(passes) * len(commands), "failed": failed,
            "commands": [{"argv": c.argv, "failed": c.failed, "problems": sorted(c.problems)}
                         for c in commands]}


def _attempt(cmd: Command, res: dict | None, workdir: Path, record: dict) -> str | None:
    """Judge one command of one pass; return why it failed, or None."""
    if res is None:
        return "the pass's interpreter failed"
    digests = cmd.digests(workdir, res["stdout"])
    record["digests"].append(digests)
    if res["exit"] != 0 or res["raised"] is not None:
        return f"exit {res['exit']}, raised {res['raised']}: {res['stderr'].strip()[:300]}"
    if cmd.reference is None:
        cmd.reference = digests
        cmd.check_problems = check_outputs(cmd, workdir, res["stdout"])
    elif digests != cmd.reference:
        return "output bytes differ from the first pass"
    return "; ".join(cmd.check_problems) or None


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(report: dict) -> dict:
    good = [p for p in report["passes"] if not p["traced"] and "wall_s" in p]
    return {
        "wall_s": {"value": _median([p["wall_s"] for p in good]), "unit": "s"},
        "setup_s": {"value": _median(report["setup_samples"]), "unit": "s"},
        "peak_rss_mb": {"value": _median([p["peak_rss_mb"] for p in good]), "unit": "MB"},
        "success_rate": {"value": 1 - report["failed"] / report["attempted"], "unit": "ratio"},
    }


def per_layer(report: dict, units: dict) -> dict:
    traced = [p for p in report["passes"] if p["traced"] and p.get("layers")]
    untraced = [p for p in report["passes"] if not p["traced"] and "wall_s" in p]
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = (_median([p["wall_s"] for p in traced])
                     - _median([p["wall_s"] for p in untraced]))
        else:
            value = _median([p["layers"][name] for p in traced])
        out[name] = {"value": value, "unit": unit}
    return out


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "thread_env": {k: CHILD_ENV[k] for k in THREAD_ENV},
        "seed": seed,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "qubitswap" / "cli.py").is_file():
        print(f"error: no qubitswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    commands = workload_commands(args.workload, args.seed, args.smoke)
    tag = f"{args.workload}-trace{args.trace}"
    report = measure(commands, args.seconds, bool(args.trace), tag)
    report.update(workload=args.workload, smoke=args.smoke, seconds=args.seconds,
                  env=environment(args.seed))
    if args.trace:
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        metrics = per_layer(report, units)
        report["spans"] = str((OUT / f"spans-{tag}.npz").relative_to(ROOT))
    else:
        metrics = end_to_end(report)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
