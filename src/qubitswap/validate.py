"""Self-contained invariant and cross-oracle checks, used by the CLI
`validate` subcommand.  Each check either returns quietly or raises
AssertionError with a diagnostic."""

from __future__ import annotations

import math

import numpy as np

from .amplitude import (
    ModelParams,
    TimeGrid,
    amplitude,
    amplitude_ode_oracle,
    build_amplitude_model,
    closed_form_beta0,
    cubic_coefficients,
)
from .measures import (
    BlochAngles,
    average_linear_entropy,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    linear_entropy,
    post_bsm_projection,
)
from .power import (MonteCarloSpec, entangling_power_grid, entangling_power_mc_grid,
                    entangling_power_quadrature)
from .power import entangling_power_mc  # noqa: F401 (re-exported)
from .scenario import STRONG, WEAK


def check_model_invariants():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        params = ModelParams(
            R=rng.uniform(0.05, 20.0),
            beta=rng.uniform(0.0, 2e-8),
            Omega=rng.uniform(1e8, 1e10),
        )
        model = build_amplitude_model(params)
        if model.degenerate:
            continue
        q, a = model.roots, model.weights
        c = cubic_coefficients(params)
        assert abs(sum(a) - 1) < 1e-10, f"sum A != 1 for {params}"
        assert abs(sum(ai * qi for ai, qi in zip(a, q))) < 1e-10, f"sum A q != 0 for {params}"
        scale = max(1.0, max(abs(x) for x in q))
        assert abs(sum(q) + 2) < 1e-10 * scale, f"Vieta sum fails for {params}"
        e1 = q[0] * q[1] + q[0] * q[2] + q[1] * q[2]
        assert abs(e1 - c.a1) < 1e-10 * max(1.0, abs(c.a1)), f"Vieta pair-sum fails for {params}"
        prod = q[0] * q[1] * q[2]
        assert abs(prod + c.a0) < 1e-10 * max(1.0, abs(c.a0)), f"Vieta product fails for {params}"


def check_static_reduction():
    taus = np.linspace(0.0, 50.0, 1000)
    for params in (WEAK[0], STRONG[0]):
        got = amplitude(build_amplitude_model(params), taus)
        ref = np.array([closed_form_beta0(params.R, t) for t in taus])
        worst = np.max(np.abs(got - ref))
        assert worst < 1e-10, f"beta=0 reduction off by {worst} at R={params.R}"


def check_ode_oracle_agreement():
    grid = TimeGrid(0.0, 50.0, 501)
    for params in WEAK + STRONG:
        model = build_amplitude_model(params)
        analytic = amplitude(model, grid.taus())
        oracle = amplitude_ode_oracle(params, grid, step=1e-3)
        worst = np.max(np.abs(analytic - oracle))
        assert worst < 1e-6, f"oracle deviates by {worst} for {params}"


def check_contractivity_and_stability():
    taus = np.linspace(0.0, 100.0, 2001)
    for params in WEAK + STRONG:
        model = build_amplitude_model(params)
        assert max(q.real for q in model.roots) <= 1e-12, f"growing root for {params}"
        mags = np.abs(amplitude(model, taus))
        assert np.max(mags) <= 1 + 1e-9, f"|E| exceeds 1 for {params}"
        leaked = 1 - mags**2
        assert np.all(leaked >= -1e-9) and np.all(leaked <= 1 + 1e-9)


def check_entropy_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        theta = rng.uniform(0, math.pi)
        s = linear_entropy(theta, e)
        assert 0 <= s <= 0.5 + 1e-12
        sav = average_linear_entropy(e)
        assert 0 <= sav <= 1 / 6 + 1e-12


def check_concurrence_oracle():
    rng = np.random.default_rng(99)
    for _ in range(300):
        q1 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        q2 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        e = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        state = post_bsm_projection(q1, q2, e)
        if state.N < 1e-12:
            continue
        closed = concurrence_closed(state)
        wootters = concurrence_wootters(density_matrix(state))
        assert abs(closed - wootters) < 1e-8, f"concurrence mismatch at {q1}, {q2}"


def check_power_estimators():
    ps = (0.1, 0.5, 1.0)
    spec = MonteCarloSpec(n_samples=200_000, seed=4)
    for p, mean, stderr in zip(ps, *entangling_power_mc_grid(np.array(ps), spec)):
        quad = entangling_power_quadrature(p)
        assert abs(quad - mean) <= 3 * stderr, (
            f"estimators disagree at p={p}: quad={quad}, mc={mean}+-{stderr}"
        )
        assert 0 <= quad <= 1


def check_power_monotone():
    vals = entangling_power_grid(np.linspace(0.0, 1.0, 21))
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0), f"power not increasing: {vals.tolist()}"


ALL_CHECKS = (
    ("model-invariants", check_model_invariants),
    ("static-reduction", check_static_reduction),
    ("ode-oracle-agreement", check_ode_oracle_agreement),
    ("contractivity-stability", check_contractivity_and_stability),
    ("entropy-bounds", check_entropy_bounds),
    ("concurrence-oracle", check_concurrence_oracle),
    ("power-estimators", check_power_estimators),
    ("power-monotone", check_power_monotone),
)


def run_all(report=print) -> bool:
    ok = True
    for name, check in ALL_CHECKS:
        try:
            check()
        except AssertionError as exc:
            ok = False
            report(f"FAIL {name}: {exc}")
        else:
            report(f"PASS {name}")
    return ok
