"""Self-contained invariant and cross-oracle checks, used by the CLI
`validate` subcommand and by the acceptance tests.  Each check returns
`(worst, bound)` and passes when `worst <= bound`; a NaN worst fails."""

from __future__ import annotations

import math

import numpy as np

from .amplitude import (
    ModelParams,
    TimeGrid,
    amplitude,
    amplitude_ode_oracle,
    build_amplitude_model,
    cubic_coefficients,
    grid_amplitude,
)
from .measures import (
    BlochAngles,
    average_linear_entropy,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    density_populations,
    linear_entropy,
    post_bsm_projection,
)
from .power import (MonteCarloSpec, _uniform, entangling_power_grid, entangling_power_mc,
                    entangling_power_quadrature)
from .scenario import STRONG, WEAK


def _tightest(*conditions):
    """The (worst, bound) condition with the least headroom relative to its
    bound.  A bound of 0 is exact and has no headroom: it is picked only when
    it fails.  np.argmax takes the first NaN, so a NaN worst fails."""
    excess = [-np.inf if b == 0 and w <= 0 else (w - b) / (b or 1) for w, b in conditions]
    return conditions[int(np.argmax(excess))]


def check_model_invariants():
    errs = []
    for x in _uniform(20240817, 0, 300).reshape(100, 3).tolist():
        params = ModelParams(R=0.05 + 19.95 * x[0], beta=2e-8 * x[1], Omega=1e8 + 9.9e9 * x[2])
        model = build_amplitude_model(params)
        if model.degenerate:
            continue
        q, a = model.roots, model.weights
        _, a1, a0 = cubic_coefficients(params)
        scale = max(1.0, max(abs(x) for x in q))
        errs.append([
            abs(sum(a) - 1),
            abs(sum(ai * qi for ai, qi in zip(a, q))),
            abs(sum(q) + 2) / scale,
            abs(q[0] * q[1] + q[0] * q[2] + q[1] * q[2] - a1) / max(1.0, abs(a1)),
            abs(q[0] * q[1] * q[2] + a0) / max(1.0, abs(a0)),
        ])
    # normalization and Vieta's formulas; at most 9 of the 100 draws skipped
    return _tightest((np.max(errs), 1e-10), (100 - len(errs), 9))


def check_static_reduction():
    # at beta = 0 the cubic is (q + 1)(q^2 + q + R^2/2) and E(tau) =
    # sum over +- of (1 +- 1/D)/2 exp((+-D - 1) tau/2), D = sqrt(1 - 2 R^2)
    taus = np.linspace(0.0, 50.0, 1000)
    errs = []
    for params in (WEAK[0], STRONG[0]):
        d = np.sqrt(complex(1 - 2 * params.R**2))
        ref = sum((1 + s / d) / 2 * np.exp((s * d - 1) * taus / 2) for s in (1, -1))
        errs.append(np.abs(amplitude(build_amplitude_model(params), taus) - ref))
    return np.max(errs), 1e-10


def check_ode_oracle_agreement():
    grid = TimeGrid(0.0, 50.0, 501)
    errs = []
    for params in WEAK + STRONG:  # amplitude() and the lattice that scans write
        model, ref = build_amplitude_model(params), amplitude_ode_oracle(params, grid)
        errs += [amplitude(model, grid.taus()) - ref, grid_amplitude(model, grid)(0, 501) - ref]
    return np.max(np.abs(errs)), 1e-10


def check_contractivity_and_stability():
    taus = np.linspace(0.0, 100.0, 2001)
    growth, mags = [], []
    for params in WEAK + STRONG:
        model = build_amplitude_model(params)
        growth += [q.real for q in model.roots]
        mags.append(np.abs(amplitude(model, taus)))
    leaked = 1 - np.array(mags) ** 2
    return _tightest((np.max(growth), 1e-12), (np.max(mags) - 1, 1e-9),
                     (np.max(-leaked), 1e-9), (np.max(leaked) - 1, 1e-9))


def check_entropy_bounds():
    # 200 seeded (|E|^2, arg E, theta) triples, one batch
    u, arg, theta = (_uniform(7, 0, 600).reshape(200, 3) * [1, 2 * math.pi, math.pi]).T
    e = np.sqrt(u) * np.exp(1j * arg)
    s, sav = linear_entropy(theta, e), average_linear_entropy(e)
    return _tightest((-np.min(s), 0.0), (np.max(s) - 0.5, 1e-12),
                     (-np.min(sav), 0.0), (np.max(sav) - 1 / 6, 1e-12))


def check_concurrence_oracle():
    # 300 seeded draws of (theta1, phi1, theta2, phi2, |E|^2, arg E), then the
    # Bell state (theta = phi, the same for both qubits) at four |E|: one batch
    t1, p1, t2, p2, u, arg = (_uniform(99, 0, 1800).reshape(300, 6)
                              * ([math.pi, 2 * math.pi] * 2 + [1, 2 * math.pi])).T
    t1, p1, t2, p2 = (np.r_[a, np.repeat([0.3, 1.0, 1.4], 4)] for a in (t1, p1, t2, p2))
    e = np.r_[np.sqrt(u) * np.exp(1j * arg), [1, 1e-16, 1e-200, 5e-324] * 3]
    s = post_bsm_projection(BlochAngles(t1, p1), BlochAngles(t2, p2), e)
    rho = density_matrix(s)
    errs = np.c_[concurrence_closed(s) - concurrence_wootters(rho),
                 density_populations(s) - np.diagonal(rho.matrix, axis1=1, axis2=2).real]
    return np.max(np.abs(errs)), 1e-8


def check_power_estimators():
    ps = (1e-3, 0.1, 0.5, 1.0)
    spec = MonteCarloSpec(n_samples=200_000, seed=4)
    conditions = []
    for p, mean, stderr in zip(ps, *entangling_power_mc(np.array(ps), spec)):
        quad = entangling_power_quadrature(p)
        conditions += [(abs(quad - mean), 3 * stderr), (-quad, 0.0), (quad - 1, 0.0)]
    return _tightest(*conditions)


def check_power_monotone():
    vals = entangling_power_grid(np.linspace(0.0, 1.0, 21))
    # exact: P(0) is 0.0, each of the 20 steps rises strictly, and P <= 1
    not_rising = np.count_nonzero(~(np.diff(vals) > 0))
    return _tightest((abs(vals[0]), 0.0), (not_rising, 0), (np.max(vals) - 1, 0.0))


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


def run_all() -> bool:
    """PASS or FAIL per check; one that raises fails with its error.  True if all pass."""
    ok = True
    for name, check in ALL_CHECKS:
        try:
            worst, bound = check()
            failure = None if worst <= bound else f"worst {worst:.3g} exceeds bound {bound:.3g}"
        except Exception as exc:  # the library under test raised
            failure = f"{type(exc).__name__}: {exc}"
        print(f"PASS {name}" if failure is None else f"FAIL {name}: {failure}")
        ok = ok and failure is None
    return ok
