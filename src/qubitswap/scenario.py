"""Scenario configuration, observable scans over time grids, CSV emission,
and one-command presets for the published parameter sets."""

from __future__ import annotations

import math
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
from .measures import (
    BlochAngles,
    average_linear_entropy,
    concurrence_closed,
    density_populations,
    linear_entropy,
    post_bsm_projection,
)
from .power import MonteCarloSpec, QuadratureSpec, entangling_power_grid, entangling_power_mc_grid
from .power import entangling_power_mc, entangling_power_quadrature  # noqa: F401 (re-exported)

OBSERVABLES = ("amplitude", "entropy", "entropy-avg", "concurrence", "power", "density")
METHODS = ("analytic", "oracle")
POWER_METHODS = ("quad", "mc")

DEFAULT_TAU_MAX = 50.0
DEFAULT_TAU_STEPS = 1000


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams
    grid: TimeGrid
    observable: str
    angles: tuple[BlochAngles, BlochAngles] | None = None
    method: str = "analytic"
    power_method: str = "quad"
    mc: MonteCarloSpec = field(default_factory=MonteCarloSpec)
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
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


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observable columns against scaled time."""

    columns: tuple[str, ...]
    taus: np.ndarray
    values: np.ndarray  # shape (len(taus), len(columns) - 1)

    def __post_init__(self):
        if self.columns[0] != "tau":
            raise RangeError("first column must be tau")
        if len(self.taus) > 1 and not np.all(np.diff(self.taus) > 0):
            raise RangeError("tau values must be strictly increasing")
        if self.values.shape != (len(self.taus), len(self.columns) - 1):
            raise RangeError("value block shape does not match columns")


# Config files are flat "key = value" lines; keys are the CLI flag names
# without their leading dashes.
_FLOAT_KEYS = ("R", "beta", "omega-ratio", "theta1", "phi1", "theta2", "phi2",
               "tau-min", "tau-max", "quad-tol")
_INT_KEYS = ("tau-steps", "mc-samples", "seed", "quad-nodes")
_STR_KEYS = ("observable", "method", "power-method", "out")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS


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
        if key not in _ALL_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value, f"line {lineno}")
    return out


def _coerce(key: str, value, where: str):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad value for {key!r}: {value!r}") from exc


def parse_config(options: dict, file_text: str | None = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig; explicit options override file values."""
    merged = parse_config_file(file_text) if file_text else {}
    for key, value in options.items():
        if value is None:
            continue
        if key not in _ALL_KEYS:
            raise ParseError(f"unknown option {key!r}")
        merged[key] = _coerce(key, value, f"option {key!r}")

    if "R" not in merged:
        raise ParseError("R is required")
    if "omega-ratio" not in merged:
        raise ParseError("omega-ratio is required")
    if "observable" not in merged:
        raise ParseError("observable is required")

    params = ModelParams(
        R=merged["R"], beta=merged.get("beta", 0.0), Omega=merged["omega-ratio"]
    )
    grid = TimeGrid(
        tau_start=merged.get("tau-min", 0.0),
        tau_end=merged.get("tau-max", DEFAULT_TAU_MAX),
        n_points=merged.get("tau-steps", DEFAULT_TAU_STEPS),
    )
    angles = None
    angle_keys = ("theta1", "phi1", "theta2", "phi2")
    if any(k in merged for k in angle_keys):
        if "theta1" not in merged or "theta2" not in merged:
            raise ParseError("theta1 and theta2 are both required when angles are given")
        angles = (
            BlochAngles(theta=merged["theta1"], phi=merged.get("phi1", 0.0)),
            BlochAngles(theta=merged["theta2"], phi=merged.get("phi2", 0.0)),
        )
    return ScenarioConfig(
        params=params,
        grid=grid,
        observable=merged["observable"],
        angles=angles,
        method=merged.get("method", "analytic"),
        power_method=merged.get("power-method", "quad"),
        mc=MonteCarloSpec(
            n_samples=merged.get("mc-samples", 100_000), seed=merged.get("seed", 0)
        ),
        quad=QuadratureSpec(
            nodes_per_axis=merged.get("quad-nodes", 64),
            rel_tolerance=merged.get("quad-tol", 1e-9),
        ),
        out=merged.get("out", "-"),
    )


def config_text(config: ScenarioConfig) -> str:
    """Serialize a config back to the flat key = value format.

    parse_config(config_text(c)) reproduces c exactly.
    """
    lines = [
        f"R = {config.params.R:.17g}",
        f"beta = {config.params.beta:.17g}",
        f"omega-ratio = {config.params.Omega:.17g}",
        f"observable = {config.observable}",
        f"tau-min = {config.grid.tau_start:.17g}",
        f"tau-max = {config.grid.tau_end:.17g}",
        f"tau-steps = {config.grid.n_points}",
        f"method = {config.method}",
        f"power-method = {config.power_method}",
        f"mc-samples = {config.mc.n_samples}",
        f"seed = {config.mc.seed}",
        f"quad-nodes = {config.quad.nodes_per_axis}",
        f"quad-tol = {config.quad.rel_tolerance:.17g}",
        f"out = {config.out}",
    ]
    if config.angles is not None:
        q1, q2 = config.angles
        lines[4:4] = [
            f"theta1 = {q1.theta:.17g}",
            f"phi1 = {q1.phi:.17g}",
            f"theta2 = {q2.theta:.17g}",
            f"phi2 = {q2.phi:.17g}",
        ]
    return "\n".join(lines) + "\n"


def _survival_amplitudes(config: ScenarioConfig) -> np.ndarray:
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
            vals = entangling_power_grid(p_vals, config.quad)[:, None]
    else:  # pragma: no cover - guarded by config validation
        raise RangeError(f"unknown observable {obs!r}")

    return TimeSeries(columns=cols, taus=taus, values=vals)


def format_csv(series: TimeSeries) -> str:
    """Header line, then one line per tau with every value as ``{:.17g}``.

    All rows are formatted by a single ``%`` operation; ``%.17g`` and
    ``format(v, ".17g")`` render a float through the same routine, so the
    bytes equal those of per-value formatting.
    """
    block = np.column_stack([series.taus, series.values])
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return ",".join(series.columns) + "\n" + (row * len(block)) % tuple(block.ravel().tolist())


def emit_csv(series: TimeSeries, path) -> None:
    """Write the series as UTF-8 CSV with LF endings and 17 significant
    digits; byte-identical across runs for identical configs and seeds."""
    text = format_csv(series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


FIGURE_IDS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig5", "fig6", "fig7", "fig8a", "fig8b")

_OMEGA = 1.5e9
_WEAK_BETAS = (0.0, 2e-9, 4e-9)
_STRONG_BETAS = (0.0, 10e-9, 15e-9)
_FIG8_ANGLES = (
    (math.pi / 2, 0.0, math.pi / 4, 0.0),
    (math.pi / 2, 0.0, 0.0, 0.0),
    (math.pi / 2, math.pi, math.pi / 4, 0.0),
)


def _base_config(R, beta, observable, **kw) -> ScenarioConfig:
    return ScenarioConfig(
        params=ModelParams(R=R, beta=beta, Omega=_OMEGA),
        grid=kw.pop("grid", TimeGrid(0.0, DEFAULT_TAU_MAX, DEFAULT_TAU_STEPS)),
        observable=observable,
        **kw,
    )


def figure_preset(fig_id: str) -> list[ScenarioConfig]:
    """Parameter sets behind each published figure, one config per curve.

    Outputs are CSV curve data; the entropy figures use theta=0 (initially
    excited qubit), the density snapshot uses the |e> (x) (|e>+|g>)/sqrt(2)
    initial state at tau = 1.
    """
    excited_then_plus = (
        BlochAngles(theta=0.0), BlochAngles(theta=math.pi / 2, phi=0.0)
    )
    if fig_id == "fig2a":
        configs = [_base_config(0.1, b, "entropy") for b in _WEAK_BETAS]
    elif fig_id == "fig2b":
        configs = [_base_config(0.1, b, "entropy-avg") for b in _WEAK_BETAS]
    elif fig_id == "fig3a":
        configs = [_base_config(10.0, b, "entropy") for b in _STRONG_BETAS]
    elif fig_id == "fig3b":
        configs = [_base_config(10.0, b, "entropy-avg") for b in _STRONG_BETAS]
    elif fig_id == "fig5":
        configs = [_base_config(10.0, b, "power") for b in _STRONG_BETAS]
    elif fig_id == "fig6":
        configs = [
            _base_config(
                10.0, b, "density",
                grid=TimeGrid(1.0, 1.0, 1),
                angles=excited_then_plus,
            )
            for b in (0.0, 15e-9)
        ]
    elif fig_id == "fig7":
        configs = [_base_config(0.1, b, "power") for b in _WEAK_BETAS]
    elif fig_id in ("fig8a", "fig8b"):
        r = 10.0 if fig_id == "fig8a" else 0.1
        configs = [
            _base_config(
                r, 2e-9, "concurrence",
                angles=(BlochAngles(t1, p1), BlochAngles(t2, p2)),
            )
            for t1, p1, t2, p2 in _FIG8_ANGLES
        ]
    else:
        raise UnknownFigure(f"unknown figure id {fig_id!r} (known: {', '.join(FIGURE_IDS)})")

    return [
        replace(cfg, out=f"{fig_id}_curve{i}.csv") for i, cfg in enumerate(configs)
    ]


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
