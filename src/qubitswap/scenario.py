"""Scenario configuration, observable scans over time grids, CSV emission,
and one-command presets for the published parameter sets."""

from __future__ import annotations

import math
import os
import shutil
import sys
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .amplitude import ModelParams, TimeGrid, build_amplitude_model, grid_amplitude, propagator
from .amplitude import amplitude, amplitude_ode_oracle  # noqa: F401 (re-exported)
from .errors import NonFiniteResult, ParseError, RangeError
from .format17 import format_g17
from .measures import (
    BlochAngles,
    _checked_abs_e,
    average_linear_entropy,
    concurrence_closed,
    density_populations,
    linear_entropy,
    post_bsm_projection,
    survival_probability,
)
from .power import MonteCarloSpec, entangling_power_grid, entangling_power_mc
from .power import entangling_power_quadrature  # noqa: F401 (re-exported)

COLUMNS = {  # observable -> CSV columns
    "amplitude": ("tau", "amplitude_re", "amplitude_im", "amplitude_abs"),
    "entropy": ("tau", "entropy"),
    "entropy-avg": ("tau", "entropy_avg"),
    "concurrence": ("tau", "concurrence"),
    "power": ("tau", "power"),
    "density": ("tau", "pop_ee", "pop_eg", "pop_ge", "pop_gg"),
}
OBSERVABLES = tuple(COLUMNS)
_CSV_CHUNK = 1 << 14  # values per scan block: amplitude, observable and power calls
_CSV_PIECE = 1 << 13  # values per format_g17 call: its ~1 MB working set fits an L2


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams
    grid: TimeGrid
    observable: str
    angles: tuple[BlochAngles, BlochAngles] | None = None
    method: str = "analytic"
    power_method: str = "quad"
    mc: MonteCarloSpec = field(default_factory=MonteCarloSpec)
    out: str = "-"

    def __post_init__(self):
        for opt in OPTIONS.values():
            if opt.choices and getattr(self, opt.field) not in opt.choices:
                raise RangeError(f"unknown {opt.key} {getattr(self, opt.field)!r}")
        if not self.out:
            raise RangeError("out must be a file path, or '-' for stdout")
        if self.observable in ("concurrence", "density") and self.angles is None:
            raise RangeError(
                f"observable {self.observable!r} requires theta1/phi1/theta2/phi2"
            )


def _check_increasing(taus: np.ndarray) -> None:
    """taus rise strictly."""
    if not np.all(np.diff(taus) > 0):
        raise RangeError("tau values must be strictly increasing")


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observable columns against scaled time."""

    columns: tuple[str, ...]
    taus: np.ndarray
    values: np.ndarray  # shape (len(taus), len(columns) - 1)


@dataclass(frozen=True)
class Option:
    """One scan option: ``--key`` on the command line, ``key = value`` in a
    config file.  It sets ``field`` of one part of a ScenarioConfig: the
    config itself, params, grid, q1 or q2 (the two angles) or mc."""

    key: str
    type: type
    part: str
    field: str
    help: str
    choices: tuple[str, ...] | None = None


# In the order config_text writes them.  An unset option takes the default
# of the field it sets.
OPTIONS = {opt.key: opt for opt in (
    Option("R", float, "params", "R", "scaled vacuum Rabi frequency"),
    Option("beta", float, "params", "beta", "qubit velocity ratio v/c"),
    Option("omega-ratio", float, "params", "Omega", "transition frequency over cavity linewidth"),
    Option("observable", str, "config", "observable", "quantity to evaluate", OBSERVABLES),
    Option("theta1", float, "q1", "theta", "polar Bloch angle of qubit 1"),
    Option("phi1", float, "q1", "phi", "azimuthal Bloch angle of qubit 1"),
    Option("theta2", float, "q2", "theta", "polar Bloch angle of qubit 2"),
    Option("phi2", float, "q2", "phi", "azimuthal Bloch angle of qubit 2"),
    Option("tau-min", float, "grid", "tau_start", "first scaled time"),
    Option("tau-max", float, "grid", "tau_end", "last scaled time"),
    Option("tau-steps", int, "grid", "n_points", "number of time points"),
    Option("method", str, "config", "method", "survival-amplitude route", ("analytic", "oracle")),
    Option("power-method", str, "config", "power_method", "entangling-power estimator",
           ("quad", "mc")),
    Option("mc-samples", int, "mc", "n_samples", "Monte Carlo sample count"),
    Option("seed", int, "mc", "seed", "Monte Carlo seed"),
    Option("out", str, "config", "out", "output CSV path, '-' for stdout"),
)}


def parse_config_file(text: str) -> dict:
    """Parse flat key = value config text into a raw option dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):  # a comment is a whole line
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in OPTIONS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value, f"line {lineno}")
    return out


def _coerce(key: str, value, where: str):
    try:
        return OPTIONS[key].type(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad value for {key!r}: {value!r}") from exc


def parse_config(options: dict, file_text: str | None = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig; explicit options override file values."""
    merged = parse_config_file(file_text) if file_text else {}
    for key, value in options.items():
        if value is None:
            continue
        if key not in OPTIONS:
            raise ParseError(f"unknown option {key!r}")
        merged[key] = _coerce(key, value, f"option {key!r}")
    for key in ("R", "omega-ratio", "observable"):
        if key not in merged:
            raise ParseError(f"{key} is required")

    fields = defaultdict(dict)  # part -> {field: value}
    for key, value in merged.items():
        fields[OPTIONS[key].part][OPTIONS[key].field] = value
    params = ModelParams(**{"beta": 0.0, **fields["params"]})
    grid = TimeGrid(**fields["grid"])
    angles = None
    if fields["q1"] or fields["q2"]:
        if "theta" not in fields["q1"] or "theta" not in fields["q2"]:
            raise ParseError("theta1 and theta2 are both required when angles are given")
        angles = (BlochAngles(**fields["q1"]), BlochAngles(**fields["q2"]))
    return ScenarioConfig(
        params=params,
        grid=grid,
        angles=angles,
        mc=MonteCarloSpec(**fields["mc"]),
        **fields["config"],
    )


def config_text(config: ScenarioConfig) -> str:
    """Serialize a config back to the flat key = value format.

    parse_config(config_text(c)) == c, or config_text raises.
    """
    q1, q2 = config.angles or (None, None)
    parts = {"config": config, "params": config.params, "grid": config.grid,
             "q1": q1, "q2": q2, "mc": config.mc}
    lines = []
    for opt in OPTIONS.values():
        if parts[opt.part] is not None:
            value = getattr(parts[opt.part], opt.field)
            text = format(value, ".17g") if opt.type is float else value
            if opt.type is str and (text != text.strip() or len(text.splitlines()) > 1):
                raise RangeError(f"{opt.key} {text!r} cannot be written as one config line")
            lines.append(f"{opt.key} = {text}")
    return "\n".join(lines) + "\n"


def scan_blocks(config: ScenarioConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The scan: (taus, values) for one block of rows at a time, amplitude
    then observable on that block only, so memory holds one block whatever
    the grid size.  The blocks are the bits of one pass over the whole grid:
    the taus are linspace's, Monte Carlo draws the same seeded samples for
    each block, and a point of either amplitude route depends on its index in
    the grid alone (a block is the points lo to hi - 1, for the taus and the
    amplitudes alike).  Every check runs before it returns."""
    grid, obs = config.grid, config.observable
    n, rows = grid.n_points, _CSV_CHUNK // len(COLUMNS[obs])
    for lo in range(0, n, rows):  # fail before any amplitude or power work
        _check_increasing(grid.taus(max(lo - 1, 0), lo + rows))  # and the point before
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite column is reported below
        points = (propagator(config.params, grid) if config.method == "oracle"
                  else grid_amplitude(build_amplitude_model(config.params), grid))

    def blocks():
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            with np.errstate(over="ignore", invalid="ignore"):  # reported once, just below
                e_vals = points(lo, hi)
            if not np.all(np.isfinite(e_vals)):
                raise NonFiniteResult(f"the survival amplitude overflowed for {config.params}")
            if obs == "amplitude":  # the measures' check of |E| <= 1, as for every observable
                _checked_abs_e(e_vals)
                vals = np.column_stack([e_vals.real, e_vals.imag, np.abs(e_vals)])
            elif obs == "entropy":
                theta = config.angles[0].theta if config.angles else 0.0
                vals = linear_entropy(theta, e_vals)[:, None]
            elif obs == "entropy-avg":
                vals = average_linear_entropy(e_vals)[:, None]
            elif obs == "concurrence":
                vals = concurrence_closed(post_bsm_projection(*config.angles, e_vals))[:, None]
            elif obs == "density":
                vals = density_populations(post_bsm_projection(*config.angles, e_vals))
            else:  # power
                p_vals = survival_probability(e_vals)
                vals = (entangling_power_grid(p_vals) if config.power_method == "quad"
                        else entangling_power_mc(p_vals, config.mc, stderr=False)[0])[:, None]
            del e_vals  # so that formatting the block can reuse its memory
            yield grid.taus(lo, hi), vals
    return blocks()


def run_scan(config: ScenarioConfig) -> TimeSeries:
    """Evaluate the configured observable on the time grid: the blocks of
    scan_blocks, joined, so memory grows with the grid."""
    taus, vals = zip(*scan_blocks(config))
    return TimeSeries(COLUMNS[config.observable], np.concatenate(taus), np.concatenate(vals))


def _csv_chunks(columns, blocks) -> Iterator[bytes]:
    """The CSV as ASCII blocks: the header line, then one line per tau with
    every value as ``{:.17g}``, formatted by ``format_g17`` about
    ``_CSV_PIECE`` values at a time from each block of (taus, values)."""
    yield (",".join(columns) + "\n").encode()
    rows = max(1, _CSV_PIECE // len(columns))
    for taus, values in blocks:
        for i in range(0, len(taus), rows):
            yield format_g17(np.column_stack([taus[i:i + rows], values[i:i + rows]]))


def format_csv(series: TimeSeries) -> str:
    """The whole CSV as one string, the bytes emit_csv writes."""
    chunks = _csv_chunks(series.columns, [(series.taus, series.values)])
    return "".join(chunk.decode() for chunk in chunks)


def emit_csv(config: ScenarioConfig, path) -> None:
    """Write config's scan block by block as CSV (LF endings, 17 significant
    digits, byte-identical across runs for the same config and seed) to path,
    or to stdout if path is ``"-"``.  A file, or a link's target, is written
    beside it and replaced, keeping its mode, once every block is written; a
    device, a pipe or a file in a directory that cannot be written is written
    in place.  On stdout the blocks before a failure are already written."""
    chunks = _csv_chunks(COLUMNS[config.observable], scan_blocks(config))
    if path == "-":
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
        return
    target = os.path.realpath(path)
    exists, dir_writable = os.path.exists(target), os.access(os.path.dirname(target), os.W_OK)
    in_place = exists and not (os.path.isfile(target) and dir_writable)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        if exists and not in_place:
            open(target, "ab").close()  # a read-only file fails here, as in place
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        if not in_place:
            if exists:
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
    except BaseException as exc:
        if not in_place and os.path.lexists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:  # not the temporary file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


# The published parameter sets: weak and strong coupling, Omega = 1.5e9.
WEAK = tuple(ModelParams(R=0.1, beta=b, Omega=1.5e9) for b in (0.0, 2e-9, 4e-9))
STRONG = tuple(ModelParams(R=10.0, beta=b, Omega=1.5e9) for b in (0.0, 10e-9, 15e-9))


def _curves(observable, params, angles=(None,), grid=TimeGrid()) -> tuple[ScenarioConfig, ...]:
    """One curve per parameter set and angle pair, in that order."""
    return tuple(ScenarioConfig(params=p, grid=grid, observable=observable, angles=a)
                 for p in params for a in angles)


_FIG8_ANGLES = tuple(
    (BlochAngles(t1, p1), BlochAngles(t2, p2)) for t1, p1, t2, p2 in (
        (math.pi / 2, 0.0, math.pi / 4, 0.0),
        (math.pi / 2, 0.0, 0.0, 0.0),
        (math.pi / 2, math.pi, math.pi / 4, 0.0),
    )
)

# Figure id -> one config per curve.  The entropy figures use theta = 0
# (initially excited qubit); the density snapshot uses the
# |e> (x) (|e>+|g>)/sqrt(2) initial state at tau = 1; fig8 takes the weak
# set's beta = 2e-9 at both couplings.
_PRESETS = {
    "fig2a": _curves("entropy", WEAK),
    "fig2b": _curves("entropy-avg", WEAK),
    "fig3a": _curves("entropy", STRONG),
    "fig3b": _curves("entropy-avg", STRONG),
    "fig5": _curves("power", STRONG),
    "fig6": _curves("density", (STRONG[0], STRONG[2]),
                    ((BlochAngles(theta=0.0), BlochAngles(theta=math.pi / 2, phi=0.0)),),
                    TimeGrid(1.0, 1.0, 1)),
    "fig7": _curves("power", WEAK),
    "fig8a": _curves("concurrence", (replace(WEAK[1], R=STRONG[1].R),), _FIG8_ANGLES),
    "fig8b": _curves("concurrence", WEAK[1:2], _FIG8_ANGLES),
}
FIGURE_IDS = tuple(_PRESETS)


def figure_preset(fig_id: str) -> list[ScenarioConfig]:
    """Parameter sets behind each published figure, one config per curve,
    each writing its CSV to ``<fig_id>_curve<i>.csv``."""
    if fig_id not in _PRESETS:
        raise RangeError(f"unknown figure id {fig_id!r} (known: {', '.join(FIGURE_IDS)})")
    return [replace(cfg, out=f"{fig_id}_curve{i}.csv") for i, cfg in enumerate(_PRESETS[fig_id])]


def run_figure(fig_id: str, outdir) -> list[Path]:
    """Run every curve of a preset and write its CSV into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    configs = figure_preset(fig_id)
    for cfg in configs:
        emit_csv(cfg, outdir / cfg.out)
    return [outdir / cfg.out for cfg in configs]
