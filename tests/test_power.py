import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from qubitswap import power
from qubitswap.amplitude import ModelParams, TimeGrid
from qubitswap.errors import NotConverged, RangeError
from qubitswap.measures import BlochAngles, concurrence_closed, post_bsm_projection
from qubitswap.power import (
    MonteCarloSpec,
    QuadratureSpec,
    entangling_power_grid,
    entangling_power_mc,
    entangling_power_mc_grid,
    entangling_power_quadrature,
    reduced_integrand,
)
from qubitswap.scenario import ScenarioConfig, run_scan

# Average swapped concurrence at p=1, frozen from a 1e7-sample Monte Carlo
# over the full 4-angle product-state measure (seed 12345).
POWER_AT_UNIT_P = 0.4456144
POWER_AT_UNIT_P_STDERR = 8.85e-5


def ridge_quadrature(p: float, n: int = 256) -> float:
    """Independent 2-D oracle: tensor Gauss-Legendre over both polar angles.

    With u = (theta1+theta2)/2 and v = (theta1-theta2)/2 the azimuth-averaged
    integrand has a bump of width sqrt(A) along v = 0; mapping
    v = delta sinh(y) with delta = sqrt(A(u, 0)) flattens it, so the node
    count needed does not grow as p -> 0.  By v -> -v symmetry only v >= 0 is
    integrated (doubled).
    """
    x, w = leggauss(n)
    u = (x + 1) * (math.pi / 2)
    wu = w * (math.pi / 2)
    v_max = np.minimum(u, math.pi - u)
    delta = np.maximum(math.sqrt(2 * p) * (1 + np.cos(u)) / 2, 1e-150)
    y_max = np.arcsinh(v_max / delta)
    y = (x[None, :] + 1) * (y_max[:, None] / 2)
    wy = w[None, :] * (y_max[:, None] / 2)
    v = delta[:, None] * np.sinh(y)
    dv_dy = delta[:, None] * np.cosh(y)
    uu = u[:, None]
    a = p * (np.cos(uu) + np.cos(v)) ** 2 / 2
    denom = (a + np.sin(v) ** 2) * (a + np.sin(uu) ** 2)
    f = np.where(denom > 0, a / np.sqrt(np.maximum(denom, 1e-300)), 0.0)
    # sin(theta1) sin(theta2) = (cos 2v - cos 2u)/2; the measure's 1/4 cancels
    # against dtheta1 dtheta2 = 2 du dv and the folded v >= 0 half
    integrand = (np.cos(2 * v) - np.cos(2 * uu)) / 2 * f * dv_dy
    return float(np.sum(wu[:, None] * wy * integrand))


def mc_reference(p: float, spec: MonteCarloSpec) -> tuple[float, float]:
    """Per-p Monte Carlo loop that draws its own samples, as the package did
    before the draws were shared across p."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    ct1 = rng.uniform(-1, 1, n)
    ct2 = rng.uniform(-1, 1, n)
    ph1 = rng.uniform(0, 2 * math.pi, n)
    ph2 = rng.uniform(0, 2 * math.pi, n)
    t1, t2 = np.arccos(ct1), np.arccos(ct2)
    c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
    c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
    x_sq = p * (c1 * c2) ** 2
    y_sq = np.abs(s1 * c2 * np.exp(1j * ph1) - s2 * c1 * np.exp(1j * ph2)) ** 2
    denom = 2 * x_sq + y_sq
    conc = np.where(denom > 0, 2 * x_sq / np.maximum(denom, 1e-300), 0.0)
    stderr = float(conc.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(conc.mean()), stderr


class TestSpecs:
    def test_quadrature_bounds(self):
        with pytest.raises(RangeError):
            QuadratureSpec(nodes_per_axis=8)
        with pytest.raises(RangeError):
            QuadratureSpec(rel_tolerance=1e-12)
        with pytest.raises(RangeError):
            QuadratureSpec(rel_tolerance=math.nan)

    def test_mc_bounds(self):
        with pytest.raises(RangeError):
            MonteCarloSpec(n_samples=0)


class TestReducedIntegrand:
    def test_zero_survival(self):
        assert reduced_integrand(0.3, 1.2, 0.0) == 0.0

    def test_both_excited(self):
        assert reduced_integrand(0.0, 0.0, 0.5) == pytest.approx(1.0)

    def test_no_phase_dependence_axis(self):
        # theta2 = 0 kills the cos(phi) coefficient; average equals 2p/(2p+1)
        for p in (0.05, 0.4, 1.0):
            assert reduced_integrand(math.pi / 2, 0.0, p) == pytest.approx(
                2 * p / (2 * p + 1)
            )

    def test_matches_phi_average_of_concurrence(self):
        # brute-force phi average against the analytic 1/sqrt(B^2-C^2) identity
        rng = np.random.default_rng(17)
        phis = np.linspace(0, 2 * math.pi, 20001)[:-1]
        for _ in range(10):
            t1, t2 = rng.uniform(0.1, math.pi - 0.1, 2)
            p = rng.uniform(0.05, 1.0)
            q2 = BlochAngles(t2, 0.0)
            vals = [
                concurrence_closed(
                    post_bsm_projection(BlochAngles(t1, phi), q2, math.sqrt(p))
                )
                for phi in phis
            ]
            assert reduced_integrand(t1, t2, p) == pytest.approx(
                np.mean(vals), abs=1e-6
            )

    def test_rejects_bad_p(self):
        with pytest.raises(RangeError):
            reduced_integrand(0.1, 0.1, 1.5)


class TestQuadrature:
    def test_zero(self):
        assert entangling_power_quadrature(0.0) == 0.0

    def test_unit_p_matches_frozen_monte_carlo(self):
        val = entangling_power_quadrature(1.0)
        assert abs(val - POWER_AT_UNIT_P) <= 3 * POWER_AT_UNIT_P_STDERR

    def test_monotone(self):
        vals = [entangling_power_quadrature(p) for p in (0.25, 0.5, 1.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_range(self):
        for p in np.linspace(0.0, 1.0, 11):
            assert 0 <= entangling_power_quadrature(float(p)) <= 1

    def test_positive_for_positive_p(self):
        for p in (1e-4, 0.01, 0.3):
            assert entangling_power_quadrature(p) > 0


class TestOneDimensionalRule:
    PS = [1e-40, 1e-12, 1e-3, 0.5, 1.0]

    @pytest.mark.parametrize("p", PS)
    def test_matches_two_dimensional_oracle(self, p):
        assert abs(entangling_power_quadrature(p) - ridge_quadrature(p)) <= 1e-10

    @pytest.mark.parametrize("p", [1e-300, 1e-40, 1e-12])
    def test_small_p_asymptote(self, p):
        # I(x) -> (1 - 2x) + x ln(1/(2 p x^2)) as p -> 0, so
        # P = 2p int x I dx = (2/3) p (ln(1/(2p)) + 1/6) + O(p^2 ln p)
        asymptote = 2 / 3 * p * (math.log(1 / (2 * p)) + 1 / 6)
        assert abs(entangling_power_quadrature(p) / asymptote - 1) <= 1e-13 + 2 * p

    def test_half_is_one_third(self):
        assert abs(entangling_power_quadrature(0.5) - 1 / 3) <= 1e-14

    def test_array_equals_scalar(self):
        ps = np.concatenate([[0.0, 1e-300, 1e-40], np.linspace(0.0, 1.0, 301)])
        vals = entangling_power_grid(ps)
        assert vals.shape == ps.shape
        for p, val in zip(ps, vals):
            assert val == entangling_power_quadrature(float(p))
        assert np.array_equal(entangling_power_grid(ps.reshape(2, -1)), vals.reshape(2, -1))

    def test_endpoints_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = entangling_power_grid([0.0, 1e-300, 1.0])
        assert vals[0] == 0.0
        assert 0 < vals[1] < 1e-290 and vals[2] == entangling_power_quadrature(1.0)

    @pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan], -1e-12, 1.5, math.inf])
    def test_rejects_bad_p(self, bad):
        for estimate in (entangling_power_grid, entangling_power_quadrature,
                         lambda p: entangling_power_mc_grid(p, MonteCarloSpec(10))):
            with pytest.raises(RangeError):
                estimate(bad)

    def test_not_converged_when_rules_disagree(self, monkeypatch):
        monkeypatch.setattr(power, "_rule", lambda p, n: np.full(len(p), 1.0 / n))
        with pytest.raises(NotConverged):
            entangling_power_quadrature(0.3)
        with pytest.raises(NotConverged):
            entangling_power_grid(np.linspace(0.0, 1.0, 300))


class TestMonteCarlo:
    def test_zero(self):
        mean, stderr = entangling_power_mc(0.0, MonteCarloSpec(10_000, 1))
        assert mean == 0.0 and stderr == 0.0

    def test_deterministic(self):
        spec = MonteCarloSpec(n_samples=50_000, seed=77)
        assert entangling_power_mc(0.6, spec) == entangling_power_mc(0.6, spec)

    def test_seed_sensitivity(self):
        a = entangling_power_mc(0.6, MonteCarloSpec(50_000, 1))
        b = entangling_power_mc(0.6, MonteCarloSpec(50_000, 2))
        assert a != b

    def test_shared_draws_match_per_p_loop(self):
        spec = MonteCarloSpec(n_samples=20_000, seed=3)
        ps = np.array([0.0, 1e-300, 1e-12, 0.25, 0.5, 1.0])
        means, stderrs = entangling_power_mc_grid(ps, spec)
        for p, mean, stderr in zip(ps, means, stderrs):
            ref = mc_reference(float(p), spec)
            assert (mean, stderr) == ref
            assert entangling_power_mc(float(p), spec) == ref

    @pytest.mark.parametrize("p", [1e-3, 0.1, 0.5, 1.0])
    def test_agrees_with_quadrature(self, p):
        mean, stderr = entangling_power_mc(p, MonteCarloSpec(n_samples=400_000, seed=9))
        assert abs(mean - entangling_power_quadrature(p)) <= 3 * stderr


def power_scan(params, grid, method="analytic"):
    config = ScenarioConfig(params=params, grid=grid, observable="power", method=method)
    return run_scan(config).values[:, 0]


class TestSeries:
    """Power along a time grid, through run_scan's amplitude routes."""

    def test_initial_value_is_unit_p_power(self):
        series = power_scan(ModelParams(R=10.0, beta=0.0, Omega=1.5e9), TimeGrid(0.0, 2.0, 21))
        assert series[0] == pytest.approx(entangling_power_quadrature(1.0), abs=1e-9)

    def test_depends_only_on_survival_probability(self):
        # the power is a pure function of p: repeated evaluation is bit-equal,
        # and a repeated series is too
        assert entangling_power_quadrature(0.37) == entangling_power_quadrature(0.37)
        params = ModelParams(R=0.1, beta=0.0, Omega=1.5e9)
        grid = TimeGrid(0.0, 1.0, 5)
        assert np.array_equal(power_scan(params, grid), power_scan(params, grid))

    def test_movement_slows_decay(self):
        grid = TimeGrid(1.0, 1.0, 1)
        static = power_scan(ModelParams(R=10.0, beta=0.0, Omega=1.5e9), grid, "oracle")
        moving = power_scan(ModelParams(R=10.0, beta=15e-9, Omega=1.5e9), grid, "oracle")
        assert moving[0] > static[0]
