"""Self-test of the benchmark, on the smoke sizes.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from qubitswap import cli  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric_without_failures(workload):
    report, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result["metrics"]) == units({m["name"]: m for m in SPEC["end_to_end"]})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["env"]["seed"] == 7 and report["env"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_keeps_csv_bytes(workload):
    report, result = bench(workload, 1)
    assert units(result["metrics"]) == units({m["name"]: m for m in SPEC["per_layer"]})
    assert result["failed"] == 0
    traced = [p["digests"] for p in report["passes"] if p["traced"]]
    untraced = [p["digests"] for p in report["passes"] if not p["traced"]]
    assert traced and untraced
    assert all(d == untraced[0] for d in traced + untraced)
    assert (ROOT / report["spans"]).is_file()


def test_invalid_command_is_counted_as_failed():
    valid = run.workload_commands("scan", 7, smoke=True)[0]
    invalid = run.Command(["scan", "--R", "1", "--omega-ratio", "1.5e9",
                           "--observable", "density", "--out", "bad.csv"])
    report = run.measure([valid, invalid], seconds=0, trace=False, tag="selftest")
    assert report["attempted"] == 2 and report["failed"] == 1
    assert report["commands"][0]["failed"] == 0
    assert report["commands"][1]["failed"] == 1
    assert report["commands"][1]["problems"][0].startswith("exit 1")


@pytest.mark.parametrize("observable", run.SCAN_OBSERVABLES)
def test_checks_catch_a_corrupted_row(observable, tmp_path):
    cmd = next(c for c in run.workload_commands("scan", 7, smoke=True)
               if c.curve.observable == observable)
    path = tmp_path / "out.csv"
    argv = cmd.argv[:-1] + [str(path)]
    assert cli.main(argv) == 0
    assert checks.check_curve(cmd.curve, path) == []

    header, *rows = path.read_text().splitlines()
    last = rows[-1].split(",")
    last[-1] = f"{float(last[-1]) + 1e-3:.17g}"
    path.write_text("\n".join([header, *rows[:-1], ",".join(last)]) + "\n")
    assert checks.check_curve(cmd.curve, path) != []


def test_checks_catch_a_shortened_number(tmp_path):
    cmd = run.workload_commands("scan", 7, smoke=True)[0]
    path = tmp_path / "out.csv"
    assert cli.main(cmd.argv[:-1] + [str(path)]) == 0
    text = path.read_text()
    last = text.splitlines()[-1]
    short = ",".join(f"{float(v):.16g}" for v in last.split(","))
    assert short != last
    path.write_text(text.replace(last, short))
    problems = checks.check_curve(cmd.curve, path)
    assert problems and "17 significant digits" in problems[0]

