"""One benchmark pass, run in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the CLI argument lists to run (in order, closed loop), the
directory to run them in, whether to trace, and where to write the result.
The first thing this script does is import ``qubitswap.cli``, so the
monotonic clock reading taken right after it marks the end of set-up; the
parent took the start reading just before it started this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import qubitswap.cli  # noqa: E402

SETUP_END = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from qubitswap import scenario, validate  # noqa: E402

MEASURES = ("linear_entropy", "average_linear_entropy", "post_bsm_projection",
            "concurrence_closed", "density_matrix", "concurrence_wootters")


class Tracer:
    """Spans kept in memory as flat arrays: name id, parent span id, start, end.

    A span's parent is the span open when it started, so within this single
    thread every span lies inside its parent's interval.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.counts: Counter = Counter()
        self.distinct_p: set[float] = set()

    def wrap(self, name, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.open[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self.open.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self.open.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, on_return=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), on_return))

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def layer_seconds(self) -> dict:
        """Total and self seconds per span name.  Self time is a span's
        duration minus the durations of its direct children."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        total = np.bincount(name_id, weights=dur, minlength=len(self.names))
        own = np.bincount(name_id, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        out: dict = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            rec["s"] += float(total[i])
            rec["self_s"] += float(own[i])
            rec["calls"] += int(calls[i])
        return out

    def save(self, path: Path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)


def rk4_steps(taus: np.ndarray, step: float) -> int:
    """Sub-steps amplitude_ode_oracle takes on this grid (same rounding)."""
    spans = np.diff(np.concatenate(([0.0], taus)))
    steps = np.maximum(1, np.ceil(spans / step - 1e-12)).astype(np.int64)
    return int(np.sum(np.where(spans > 0, steps, 0)))


def install(tracer: Tracer):
    """Wrap the package's public functions where their callers bind them."""
    cli = qubitswap.cli
    counts = tracer.counts

    def on_scan(args, kwargs, series):
        config = args[0]
        counts["scenario.rows"] += len(series.taus)
        if config.observable == "power" and config.power_method == "quad":
            counts["power.rows_quad"] += len(series.taus)

    def on_format(args, kwargs, text):
        counts["scenario.csv_bytes"] += len(text.encode("utf-8"))

    def on_build(args, kwargs, model):
        counts["amplitude.fallbacks"] += int(model.degenerate)

    def on_eval(args, kwargs, values):
        counts["amplitude.eval.points"] += int(np.size(values))

    def on_oracle(args, kwargs, values):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        step = args[2] if len(args) > 2 else kwargs.get("step", 1e-3)
        counts["amplitude.oracle.rk4_steps"] += rk4_steps(grid.taus(), step)

    def on_quad(args, kwargs, value):
        tracer.distinct_p.add(float(args[0]))

    def on_scenario_quad(args, kwargs, value):
        on_quad(args, kwargs, value)
        counts["power.quad.scan_calls"] += 1

    def on_mc(args, kwargs, value):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        counts["power.mc.samples"] += spec.n_samples

    for attr in ("parse_config", "run_scan", "format_csv", "emit_csv", "run_figure"):
        hook = {"run_scan": on_scan, "format_csv": on_format}.get(attr)
        tracer.patch(cli, attr, f"scenario.{attr}", hook)
    tracer.patch(validate, "run_all", "validate.run_all")
    validate.ALL_CHECKS = tuple(
        (name, tracer.wrap(f"validate.{name}", check)) for name, check in validate.ALL_CHECKS
    )

    for module in (scenario, validate):
        in_scenario = module is scenario
        tracer.patch(module, "build_amplitude_model", "amplitude.build",
                     on_build if in_scenario else None)
        tracer.patch(module, "amplitude", "amplitude.eval", on_eval)
        tracer.patch(module, "amplitude_ode_oracle", "amplitude.oracle", on_oracle)
        tracer.patch(module, "entangling_power_quadrature", "power.quad",
                     on_scenario_quad if in_scenario else on_quad)
        tracer.patch(module, "entangling_power_mc", "power.mc", on_mc)
        for fn in MEASURES:
            if hasattr(module, fn):
                tracer.patch(module, fn, f"measures.{fn}")
    # run_figure calls run_scan and emit_csv, and emit_csv calls format_csv,
    # through the scenario module's own bindings.
    tracer.patch(scenario, "run_scan", "scenario.run_scan", on_scan)
    tracer.patch(scenario, "emit_csv", "scenario.emit_csv")
    tracer.patch(scenario, "format_csv", "scenario.format_csv", on_format)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures of one traced pass, keyed by metric name."""
    spans = tracer.layer_seconds()
    counts = tracer.counts

    def span(name, field="s"):
        return spans.get(name, {}).get(field, 0)

    out = {
        "cli.self_s": span("cli.main", "self_s"),
        "scenario.parse_config.s": span("scenario.parse_config"),
        "scenario.run_scan.calls": span("scenario.run_scan", "calls"),
        "scenario.run_scan.self_s": span("scenario.run_scan", "self_s"),
        "scenario.run_figure.self_s": span("scenario.run_figure", "self_s"),
        "scenario.rows": counts["scenario.rows"],
        "scenario.format_csv.s": span("scenario.format_csv"),
        "scenario.csv_bytes": counts["scenario.csv_bytes"],
        "scenario.write.s": span("scenario.emit_csv", "self_s"),
        "amplitude.build.calls": span("amplitude.build", "calls"),
        "amplitude.build.s": span("amplitude.build"),
        "amplitude.eval.points": counts["amplitude.eval.points"],
        "amplitude.eval.s": span("amplitude.eval"),
        "amplitude.oracle.calls": span("amplitude.oracle", "calls"),
        "amplitude.oracle.rk4_steps": counts["amplitude.oracle.rk4_steps"],
        "amplitude.oracle.s": span("amplitude.oracle"),
        "amplitude.fallbacks": counts["amplitude.fallbacks"],
    }
    for fn in MEASURES:
        out[f"measures.{fn}.calls"] = span(f"measures.{fn}", "calls")
        out[f"measures.{fn}.s"] = span(f"measures.{fn}")
    rows = counts["power.rows_quad"]
    out.update({
        "power.quad.calls": span("power.quad", "calls"),
        "power.quad.distinct_p": len(tracer.distinct_p),
        "power.quad.s": span("power.quad"),
        "power.quad.reuse_ratio": 1 - counts["power.quad.scan_calls"] / rows if rows else 0.0,
        "power.mc.calls": span("power.mc", "calls"),
        "power.mc.samples": counts["power.mc.samples"],
        "power.mc.s": span("power.mc"),
    })
    for name, _ in validate.ALL_CHECKS:
        out[f"validate.{name}.s"] = span(f"validate.{name}")
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter since its exec.

    ru_maxrss is not used: Linux folds the parent's high-water mark into it
    at exec, so it would report the parent process's memory, not ours.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_pass(spec: dict) -> dict:
    os.chdir(spec["workdir"])
    tracer = Tracer() if spec["trace"] else None
    entry = qubitswap.cli.main
    if tracer is not None:
        install(tracer)
        entry = tracer.wrap("cli.main", entry)

    clock = time.perf_counter
    commands = []
    t_pass = clock()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = entry(argv)
        except Exception as exc:  # a raise is a failed command, not a failed pass
            code, raised = None, f"{type(exc).__name__}: {exc}"
        commands.append({"exit": code, "raised": raised, "seconds": clock() - t0,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall = clock() - t_pass

    result = {
        "setup_end": SETUP_END,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "commands": commands,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.save(Path(spec["spans_out"]))
    return result


def main(argv):
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    if spec.get("setup_only"):
        result = {"setup_end": SETUP_END}
    else:
        result = run_pass(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
