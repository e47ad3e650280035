"""Acceptance suite, each test printing a PASS/FAIL line: every check of
`qubitswap.validate.ALL_CHECKS` with its margin (worst against bound), then
the release criteria only tests need.  Run with
`pytest tests/test_acceptance.py -v -s`."""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from qubitswap import validate
from qubitswap.amplitude import ModelParams, TimeGrid, amplitude, build_amplitude_model
from qubitswap.measures import (
    BlochAngles,
    PostBsmState,
    average_linear_entropy,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    post_bsm_projection,
)
from qubitswap.power import entangling_power_quadrature
from qubitswap.scenario import (
    STRONG,
    WEAK,
    ScenarioConfig,
    figure_preset,
    run_figure,
    run_scan,
)

OMEGA = 1.5e9


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.mark.parametrize("name, check", validate.ALL_CHECKS,
                         ids=[name for name, _ in validate.ALL_CHECKS])
def test_check(name, check):
    start = time.perf_counter()
    worst, bound = check()
    elapsed = time.perf_counter() - start
    report(name, worst <= bound and elapsed < 1.0,
           f"worst {worst:.3g}, bound {bound:.3g}, in {elapsed:.2f}s")


def test_criterion_4_entropy():
    rng = np.random.default_rng(271828)
    n = 1_000_000
    mc_ok = True
    details = []
    for p in (0.1, 0.5, 0.9):
        theta = np.arccos(rng.uniform(-1, 1, n))
        samples = 2 * (1 - p) * p * np.cos(theta / 2) ** 4
        mean = samples.mean()
        stderr = samples.std(ddof=1) / math.sqrt(n)
        target = average_linear_entropy(math.sqrt(p))
        mc_ok &= abs(mean - target) < 3 * stderr
        details.append(f"p={p}: |{mean:.6f}-{target:.6f}| vs 3se={3*stderr:.2g}")

    # wherever |E| crosses 1/sqrt(2), the running maximum of S_av is 1/6
    peak_ok = True
    for params in (ModelParams(0.1, 0.0, OMEGA), ModelParams(10.0, 0.0, OMEGA)):
        model = build_amplitude_model(params)

        def crossing(tau):
            return abs(amplitude(model, tau)) ** 2 - 0.5

        taus = np.linspace(0.0, 200.0, 8001)
        vals = np.array([crossing(t) for t in taus])
        idx = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert len(idx) > 0, "no |E| = 1/sqrt(2) crossing found"
        tau_star = brentq(crossing, taus[idx[0]], taus[idx[0] + 1], xtol=1e-14)
        s_peak = average_linear_entropy(amplitude(model, tau_star))
        peak_ok &= abs(s_peak - 1 / 6) < 1e-9
    report("criterion 4", mc_ok and peak_ok, "; ".join(details) + f"; peak at 1/6: {peak_ok}")


def test_criterion_5_concurrence_oracles():
    # the table's concurrence-oracle draws E from the unit disk; here E comes
    # from the moving-qubit model at random times, as one batch of the first
    # 1000 states of non-vanishing norm; row i of the seeded draw holds
    # (theta1, phi1, theta2, phi2, tau) of state i
    model = build_amplitude_model(ModelParams(R=10.0, beta=2e-9, Omega=OMEGA))
    t1, p1, t2, p2, tau = np.random.default_rng(5).uniform(
        0, [math.pi, 2 * math.pi, math.pi, 2 * math.pi, 20], (1100, 5)).T
    s = post_bsm_projection(BlochAngles(t1, p1), BlochAngles(t2, p2), amplitude(model, tau))
    keep = np.flatnonzero(s.N >= 1e-12)[:1000]
    assert len(keep) == 1000
    batch = PostBsmState(s.X[keep], s.Y[keep])
    worst = np.max(np.abs(concurrence_wootters(density_matrix(batch)) - concurrence_closed(batch)))
    report("criterion 5", worst < 1e-8,
           f"closed form vs spin-flip worst gap {worst:.3g} over 1000 draws")


def test_criterion_6_bell_conditions():
    # identical initial states end in the stationary Bell state: concurrence
    # exactly 1 and populations exactly (0, 1/2, 1/2, 0) at every tau, for
    # every paper set, also where |E|^2 underflows (STRONG[0] beyond 732)
    grid = TimeGrid(0.0, 1000.0, 2001)
    identical = (BlochAngles(0.0), BlochAngles(1.1, 0.7), BlochAngles(math.pi / 2, 0.3))
    ground, other = BlochAngles(theta=math.pi), BlochAngles(theta=0.9, phi=2.0)
    bell = {"concurrence": [1.0], "density": [0.0, 0.5, 0.5, 0.0]}
    zero = {"concurrence": [0.0], "density": [0.0, 0.0, 0.0, 1.0]}
    max_ok = zero_ok = True
    for params, obs in itertools.product(WEAK + STRONG, bell):
        for q in identical:
            values = run_scan(ScenarioConfig(params, grid, obs, (q, q))).values
            max_ok &= bool(np.all(values == bell[obs]))
        values = run_scan(ScenarioConfig(params, grid, obs, (ground, other))).values
        zero_ok &= bool(np.all(values == zero[obs]))
    report("criterion 6", max_ok and zero_ok,
           f"theta1=theta2 exact Bell state on [0, 1000]: {max_ok}; "
           f"theta1=pi exact product |gg>: {zero_ok}")


def first_peak_tau(taus, values):
    # S_av rises to its ceiling where |E|^2 crosses 1/2 and decays after,
    # so the global maximum is the first (and only) major peak; local-ripple
    # detection would trip on the tiny fast-root oscillations near tau = 0
    return taus[int(np.argmax(values))]


def test_criterion_8_figure_trends():
    start = time.perf_counter()

    # (a) weak coupling: first entropy-average peak arrives later as beta grows
    peaks = []
    for params in WEAK:
        model = build_amplitude_model(params)
        # movement slows the decay a lot: the |E|^2 = 1/2 crossings for
        # beta in {0, 2e-9, 4e-9} sit near tau = 70, 690 and 2560
        taus = np.linspace(0.0, 4000.0, 16001)
        s = np.array([average_linear_entropy(e) for e in amplitude(model, taus)])
        peaks.append(first_peak_tau(taus, s))
    a_ok = peaks[0] < peaks[1] < peaks[2]

    # (b) strong coupling at tau=1: movement raises entropy average and power
    def at_tau1(params, fn):
        return fn(amplitude(build_amplitude_model(params), 1.0))

    s_static = at_tau1(STRONG[0], average_linear_entropy)
    s_moving = at_tau1(STRONG[2], average_linear_entropy)
    pw_static = entangling_power_quadrature(
        min(1.0, abs(amplitude(build_amplitude_model(STRONG[0]), 1.0)) ** 2)
    )
    pw_moving = entangling_power_quadrature(
        min(1.0, abs(amplitude(build_amplitude_model(STRONG[2]), 1.0)) ** 2)
    )
    b_ok = s_moving > s_static and pw_moving > pw_static

    # (c) density snapshot: movement lowers the |gg> population at tau=1
    gg = []
    for cfg in figure_preset("fig6"):
        series = run_scan(cfg)
        gg.append(series.values[0, series.columns.index("pop_gg") - 1])
    c_ok = gg[1] < gg[0]

    # (d) weak coupling at tau=10: power increases with beta
    powers = []
    for params in WEAK:
        p = min(1.0, abs(amplitude(build_amplitude_model(params), 10.0)) ** 2)
        powers.append(entangling_power_quadrature(p))
    d_ok = powers[0] < powers[1] < powers[2]

    elapsed = time.perf_counter() - start
    report(
        "criterion 8",
        a_ok and b_ok and c_ok and d_ok and elapsed < 60.0,
        f"(a) peaks {['%.3f' % p for p in peaks]}; (b) entropy {s_static:.4f}<{s_moving:.4f}, "
        f"power {pw_static:.4f}<{pw_moving:.4f}; (c) gg {gg[0]:.4f}>{gg[1]:.4f}; "
        f"(d) powers {['%.4f' % p for p in powers]}; {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    identical = True
    for fig_id in ("fig2b", "fig6", "fig8a"):
        a = run_figure(fig_id, tmp_path / "a" / fig_id)
        b = run_figure(fig_id, tmp_path / "b" / fig_id)
        identical &= all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a, b))
    report("criterion 9", identical, "repeated figure runs produce byte-identical CSVs")
