"""Output checks against independent routes, run outside the timed region.

Each check returns a list of problems; an empty list means the output holds.
Every CSV must be LF-terminated with each value written as ``{:.17g}``
(checked on a subsample of rows). The values are checked against routes the
scan itself does not take:
  * amplitude rows     -- RK4 ODE oracle (analytic scans) or the analytic
                          exponential sum (oracle scans);
  * entropy, entropy-avg, density and concurrence rows -- closed forms in
                          |E|^2 and the Bloch angles, plus the Wootters
                          spin-flip route for concurrence on a subsample;
  * power rows         -- Monte Carlo for quadrature rows, quadrature for
                          Monte Carlo rows, within a few standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qubitswap.amplitude import (
    ModelParams,
    TimeGrid,
    amplitude,
    amplitude_ode_oracle,
    build_amplitude_model,
)
from qubitswap.measures import (
    BlochAngles,
    concurrence_wootters,
    density_matrix,
    post_bsm_projection,
)
from qubitswap.power import MonteCarloSpec, entangling_power_mc, entangling_power_quadrature
from qubitswap.scenario import ScenarioConfig

ORACLE_TOL = 1e-6        # RK4 (step 1e-3) against the exponential sum
CLOSED_TOL = 1e-12       # per-row measures against the closed forms
WOOTTERS_TOL = 1e-8      # closed-form against spin-flip concurrence
QUAD_TOL = 1e-9          # absolute convergence tolerance of the quadrature
MC_SIGMAS = 5
MC_MIN_P = 0.01
MC_CHECK_SAMPLES = 200_000
MC_CHECK_SEED = 20191112
WOOTTERS_ROWS = 200
FORMAT_ROWS = 2000
ORACLE_POINTS = 51

COLUMNS = {
    "amplitude": ("tau", "amplitude_re", "amplitude_im", "amplitude_abs"),
    "entropy": ("tau", "entropy"),
    "entropy-avg": ("tau", "entropy_avg"),
    "concurrence": ("tau", "concurrence"),
    "density": ("tau", "pop_ee", "pop_eg", "pop_ge", "pop_gg"),
    "power": ("tau", "power"),
}


@dataclass(frozen=True)
class Curve:
    """What one CSV should hold, stated independently of the CLI parser."""

    observable: str
    R: float
    beta: float
    Omega: float
    tau_min: float
    tau_max: float
    steps: int
    angles: tuple[float, float, float, float] | None = None  # theta1, phi1, theta2, phi2
    method: str = "analytic"
    power_method: str = "quad"
    mc_samples: int = 100_000
    mc_seed: int = 0


def curve_from_config(cfg: ScenarioConfig) -> Curve:
    angles = None
    if cfg.angles is not None:
        q1, q2 = cfg.angles
        angles = (q1.theta, q1.phi, q2.theta, q2.phi)
    return Curve(cfg.observable, cfg.params.R, cfg.params.beta, cfg.params.Omega,
                 cfg.grid.tau_start, cfg.grid.tau_end, cfg.grid.n_points, angles,
                 cfg.method, cfg.power_method, cfg.mc.n_samples, cfg.mc.seed)


def _worst(got, ref) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(ref)), initial=0.0))


def _subsample(n: int, k: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, k)).round().astype(int))


def check_curve(c: Curve, path: Path) -> list[str]:
    """Check one scan CSV against independent routes."""
    try:
        text = path.read_text(encoding="utf-8")
        header, *rows = text.split("\n")[:-1]
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not text.endswith("\n") or "\r" in text:
        return [f"{path.name}: not LF-terminated lines"]
    header = header.split(",")
    if tuple(header) != COLUMNS[c.observable]:
        return [f"{path.name}: header {header}"]
    taus = np.linspace(c.tau_min, c.tau_max, c.steps)
    if data.shape != (c.steps, len(header)):
        return [f"{path.name}: shape {data.shape}, expected {(c.steps, len(header))}"]
    if not np.all(np.isfinite(data)):
        return [f"{path.name}: non-finite values"]
    problems = [
        f"{path.name}: row {i} is not written with 17 significant digits: {rows[i]!r}"
        for i in _subsample(len(rows), FORMAT_ROWS)
        if rows[i] != ",".join(f"{float(v):.17g}" for v in rows[i].split(","))
    ][:1]

    def expect(label, worst, tol):
        if not worst <= tol:
            problems.append(f"{path.name}: {label} off by {worst:.3g} (tolerance {tol:g})")

    expect("tau column", _worst(data[:, 0], taus), CLOSED_TOL * max(1.0, c.tau_max))

    params = ModelParams(R=c.R, beta=c.beta, Omega=c.Omega)
    model = build_amplitude_model(params)
    analytic = c.method == "analytic" and not model.degenerate

    if c.observable == "amplitude":
        e = data[:, 1] + 1j * data[:, 2]
        expect("amplitude_abs", _worst(data[:, 3], np.abs(e)), CLOSED_TOL)
        if analytic:
            idx = _oracle_rows(c.steps)
            grid = TimeGrid(taus[idx[0]], taus[idx[-1]], len(idx))
            expect("amplitude vs ODE oracle", _worst(e[idx], amplitude_ode_oracle(params, grid)),
                   ORACLE_TOL)
        else:
            expect("oracle amplitude vs analytic", _worst(e, amplitude(model, taus)), ORACLE_TOL)
        return problems

    # The scan's own amplitude route; the amplitude rows check covers it.
    e = amplitude(model, taus) if analytic else amplitude_ode_oracle(params, TimeGrid(
        c.tau_min, c.tau_max, c.steps))
    p = np.minimum(np.abs(e) ** 2, 1.0)

    if c.observable == "entropy":
        theta = c.angles[0] if c.angles else 0.0
        expect("entropy", _worst(data[:, 1], 2 * (1 - p) * p * math.cos(theta / 2) ** 4),
               CLOSED_TOL)
    elif c.observable == "entropy-avg":
        expect("entropy_avg", _worst(data[:, 1], (2 / 3) * (1 - p) * p), CLOSED_TOL)
    elif c.observable in ("concurrence", "density"):
        t1, f1, t2, f2 = c.angles
        x_sq = (math.cos(t1 / 2) * math.cos(t2 / 2)) ** 2 * np.abs(e) ** 2
        y_sq = abs(math.sin(t1 / 2) * math.cos(t2 / 2) * np.exp(1j * f1)
                   - math.sin(t2 / 2) * math.cos(t1 / 2) * np.exp(1j * f2)) ** 2
        norm = 2 * x_sq + y_sq
        if c.observable == "density":
            pops = np.column_stack([np.zeros_like(norm), x_sq / norm, x_sq / norm, y_sq / norm])
            expect("populations", _worst(data[:, 1:], pops), CLOSED_TOL)
        else:
            expect("concurrence", _worst(data[:, 1], 2 * x_sq / norm), CLOSED_TOL)
            q1, q2 = BlochAngles(t1, f1), BlochAngles(t2, f2)
            idx = _subsample(c.steps, WOOTTERS_ROWS)
            ref = [concurrence_wootters(density_matrix(post_bsm_projection(q1, q2, e[i])))
                   for i in idx]
            expect("concurrence vs Wootters", _worst(data[idx, 1], ref), WOOTTERS_TOL)
    elif c.observable == "power":
        problems += _check_power(c, path.name, data[:, 1], np.clip(np.abs(e) ** 2, 0.0, 1.0))
    return problems


def _oracle_rows(n: int) -> np.ndarray:
    """Evenly spaced rows whose taus form a uniform grid for the oracle."""
    stride = (n - 1) // (ORACLE_POINTS - 1) if n > ORACLE_POINTS else 1
    if (n - 1) % stride:
        stride = 1
    return np.arange(0, n, stride)


def _check_power(c: Curve, name: str, values: np.ndarray, p: np.ndarray) -> list[str]:
    """Cross-check a few rows with p >= MC_MIN_P.  Below that the Monte Carlo
    concurrence is dominated by rare near-ridge samples, so its standard
    error understates the true error and cannot serve as a bound."""
    problems = []
    if np.any(values < 0) or np.any(values > 1):
        problems.append(f"{name}: power outside [0, 1]")
    rows = np.flatnonzero(p >= MC_MIN_P)
    for i in sorted({int(rows[k]) for k in (0, len(rows) // 2, -1)} if len(rows) else ()):
        if c.power_method == "quad":
            ref, se = entangling_power_mc(p[i], MonteCarloSpec(MC_CHECK_SAMPLES, MC_CHECK_SEED))
        else:
            ref = entangling_power_quadrature(p[i])
            _, se = entangling_power_mc(p[i], MonteCarloSpec(c.mc_samples, c.mc_seed))
        if not abs(values[i] - ref) <= MC_SIGMAS * se + QUAD_TOL:
            problems.append(f"{name}: power row {i} (p={p[i]:.6g}) = {float(values[i])!r}, "
                            f"cross-check {float(ref)!r} +- {se:.3g}")
    return problems


def check_validate_output(stdout: str, check_names) -> list[str]:
    expected = [f"PASS {name}" for name in check_names]
    got = stdout.splitlines()
    return [] if got == expected else [f"validate printed {got}, expected {expected}"]
