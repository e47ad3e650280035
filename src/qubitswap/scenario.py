"""Scenario configuration, observable scans over time grids, CSV emission,
and one-command presets for the published parameter sets."""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .amplitude import (
    ModelParams,
    TimeGrid,
    amplitude,
    amplitude_ode_oracle,
    build_amplitude_model,
)
from .errors import NonFiniteResult, ParseError, RangeError, UnknownFigure
from .format17 import format_g17
from .measures import (
    BlochAngles,
    average_linear_entropy,
    concurrence_closed,
    density_populations,
    linear_entropy,
    post_bsm_projection,
)
from .power import MonteCarloSpec, entangling_power_grid, entangling_power_mc_grid
from .power import entangling_power_mc, entangling_power_quadrature  # noqa: F401 (re-exported)

OBSERVABLES = ("amplitude", "entropy", "entropy-avg", "concurrence", "power", "density")
METHODS = ("analytic", "oracle")
POWER_METHODS = ("quad", "mc")
_CSV_CHUNK = 1 << 14  # values formatted per numpy pass


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
        if self.observable not in OBSERVABLES:
            raise RangeError(f"unknown observable {self.observable!r}")
        if self.method not in METHODS:
            raise RangeError(f"unknown method {self.method!r}")
        if self.power_method not in POWER_METHODS:
            raise RangeError(f"unknown power method {self.power_method!r}")
        if self.observable in ("concurrence", "density") and self.angles is None:
            raise RangeError(
                f"observable {self.observable!r} requires theta1/phi1/theta2/phi2"
            )


def _check_increasing(taus: np.ndarray) -> None:
    if len(taus) > 1 and not np.all(np.diff(taus) > 0):
        raise RangeError("tau values must be strictly increasing")


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observable columns against scaled time."""

    columns: tuple[str, ...]
    taus: np.ndarray
    values: np.ndarray  # shape (len(taus), len(columns) - 1)

    def __post_init__(self):
        if self.columns[0] != "tau":
            raise RangeError("first column must be tau")
        _check_increasing(self.taus)
        if self.values.shape != (len(self.taus), len(self.columns) - 1):
            raise RangeError("value block shape does not match columns")


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
    Option("method", str, "config", "method", "survival-amplitude route", METHODS),
    Option("power-method", str, "config", "power_method", "entangling-power estimator",
           POWER_METHODS),
    Option("mc-samples", int, "mc", "n_samples", "Monte Carlo sample count"),
    Option("seed", int, "mc", "seed", "Monte Carlo seed"),
    Option("out", str, "config", "out", "output CSV path, '-' for stdout"),
)}


def parse_config_file(text: str) -> dict:
    """Parse flat key = value config text into a raw option dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
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

    parse_config(config_text(c)) reproduces c exactly.
    """
    q1, q2 = config.angles or (None, None)
    parts = {"config": config, "params": config.params, "grid": config.grid,
             "q1": q1, "q2": q2, "mc": config.mc}
    lines = []
    for opt in OPTIONS.values():
        if parts[opt.part] is not None:
            value = getattr(parts[opt.part], opt.field)
            text = format(value, ".17g") if opt.type is float else value
            lines.append(f"{opt.key} = {text}")
    return "\n".join(lines) + "\n"


def _survival_amplitudes(config: ScenarioConfig) -> np.ndarray:
    # An overflow inside a route is reported once, as NonFiniteResult below.
    with np.errstate(over="ignore", invalid="ignore"):
        model = build_amplitude_model(config.params)
        if config.method == "oracle" or model.degenerate:
            e_vals = amplitude_ode_oracle(config.params, config.grid)
        else:
            e_vals = amplitude(model, config.grid.taus())
    if not np.all(np.isfinite(e_vals)):
        raise NonFiniteResult(f"the survival amplitude overflowed for {config.params}")
    return e_vals


def run_scan(config: ScenarioConfig) -> TimeSeries:
    """Evaluate the configured observable on the time grid."""
    taus = config.grid.taus()
    _check_increasing(taus)  # fail before any amplitude or power work
    e_vals = _survival_amplitudes(config)

    obs = config.observable
    if obs == "amplitude":
        cols = ("tau", "amplitude_re", "amplitude_im", "amplitude_abs")
        vals = np.column_stack([e_vals.real, e_vals.imag, np.abs(e_vals)])
    elif obs == "entropy":
        theta = config.angles[0].theta if config.angles else 0.0
        cols = ("tau", "entropy")
        vals = linear_entropy(theta, e_vals)[:, None]
    elif obs == "entropy-avg":
        cols = ("tau", "entropy_avg")
        vals = average_linear_entropy(e_vals)[:, None]
    elif obs == "concurrence":
        cols = ("tau", "concurrence")
        vals = concurrence_closed(post_bsm_projection(*config.angles, e_vals))[:, None]
    elif obs == "density":
        cols = ("tau", "pop_ee", "pop_eg", "pop_ge", "pop_gg")
        vals = density_populations(post_bsm_projection(*config.angles, e_vals))
    elif obs == "power":
        cols = ("tau", "power")
        p_vals = np.clip(np.abs(e_vals) ** 2, 0.0, 1.0)
        if config.power_method == "mc":
            vals = entangling_power_mc_grid(p_vals, config.mc)[0][:, None]
        else:
            vals = entangling_power_grid(p_vals)[:, None]
    else:  # pragma: no cover - guarded by config validation
        raise RangeError(f"unknown observable {obs!r}")

    return TimeSeries(columns=cols, taus=taus, values=vals)


def _csv_chunks(series: TimeSeries) -> Iterator[bytes]:
    """The CSV as ASCII blocks: the header line, then one line per tau with
    every value as ``{:.17g}``, formatted by ``format_g17`` about
    ``_CSV_CHUNK`` values at a time."""
    yield (",".join(series.columns) + "\n").encode()
    rows = max(1, _CSV_CHUNK // len(series.columns))
    for i in range(0, len(series.taus), rows):
        yield format_g17(np.column_stack([series.taus[i:i + rows], series.values[i:i + rows]]))


def format_csv(series: TimeSeries) -> str:
    """The whole CSV as one string, the bytes emit_csv writes."""
    return "".join(chunk.decode() for chunk in _csv_chunks(series))


def emit_csv(series: TimeSeries, path) -> None:
    """Write the series as CSV with LF endings and 17 significant digits to
    path, or to stdout if path is ``"-"``; byte-identical across runs for
    identical configs and seeds.  Each block is written as soon as it is
    formatted, so memory holds one block of text, never the whole CSV."""
    if path == "-":
        for chunk in _csv_chunks(series):
            sys.stdout.write(chunk.decode())
        return
    with open(path, "wb") as fh:
        fh.writelines(_csv_chunks(series))


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
        raise UnknownFigure(f"unknown figure id {fig_id!r} (known: {', '.join(FIGURE_IDS)})")
    return [replace(cfg, out=f"{fig_id}_curve{i}.csv") for i, cfg in enumerate(_PRESETS[fig_id])]


def run_figure(fig_id: str, outdir) -> list[Path]:
    """Run every curve of a preset and write its CSV into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for cfg in figure_preset(fig_id):
        series = run_scan(cfg)
        path = outdir / cfg.out
        emit_csv(series, path)
        paths.append(path)
    return paths
