import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubitswap.amplitude import (
    _POINTS_PER_ROW,
    ModelParams,
    TimeGrid,
    _exp_increments,
    _mul,
    amplitude,
    amplitude_ode_oracle,
    build_amplitude_model,
    cubic_coefficients,
    grid_amplitude,
    propagator,
    solve_cubic,
)
from qubitswap.errors import RangeError
from qubitswap.scenario import _CSV_CHUNK, COLUMNS, STRONG, WEAK, ScenarioConfig, run_scan


def residual(c, r):
    a2, a1, a0 = c
    return abs(((r + a2) * r + a1) * r + a0)


def rk4_loop_reference(params, grid, step=1e-3):
    """Classical RK4 on the unbalanced system s = (E, z+, z-), one step at a
    time: each span between grid points takes ceil(span/step) equal steps.
    The third route, independent of the cubic's roots and of the propagator;
    its error is about 1e-9 on the paper sets."""
    yp, ym = params.y_plus, params.y_minus
    k = params.R**2 / 4

    def deriv(e, zp, zm):
        return -k * (zp + zm), e - yp * zp, e - ym * zm

    e, zp, zm = 1 + 0j, 0j, 0j
    out = []
    t0 = 0.0
    for t1 in grid.taus():
        span = t1 - t0
        t0 = t1
        if span > 0:
            n_sub = max(1, int(np.ceil(span / step - 1e-12)))
            h = span / n_sub
            for _ in range(n_sub):
                d1 = deriv(e, zp, zm)
                d2 = deriv(e + h / 2 * d1[0], zp + h / 2 * d1[1], zm + h / 2 * d1[2])
                d3 = deriv(e + h / 2 * d2[0], zp + h / 2 * d2[1], zm + h / 2 * d2[2])
                d4 = deriv(e + h * d3[0], zp + h * d3[1], zm + h * d3[2])
                e += h / 6 * (d1[0] + 2 * d2[0] + 2 * d3[0] + d4[0])
                zp += h / 6 * (d1[1] + 2 * d2[1] + 2 * d3[1] + d4[1])
                zm += h / 6 * (d1[2] + 2 * d2[2] + 2 * d3[2] + d4[2])
        out.append(e)
    return np.array(out)


def closed_form_beta0(R: float, tau: float) -> complex:
    """Static-qubit amplitude: the cubic factors as (q + 1)(q^2 + q + R^2/2)
    and only the damped-cavity quadratic survives.  D = sqrt(1 - 2 R^2),
    complex in the strong-coupling regime; the D -> 0 confluent limit is
    exp(-tau/2) (1 + tau/2)."""
    if tau == 0:
        return 1.0 + 0j
    d = cmath.sqrt(1 - 2 * R * R)
    if abs(d) < 1e-12:
        return cmath.exp(-tau / 2) * (1 + tau / 2)
    if abs(d) * tau / 2 < 700:
        # cosh/sinh form is stable through the confluent region d -> 0
        return cmath.exp(-tau / 2) * (
            cmath.cosh(d * tau / 2) + cmath.sinh(d * tau / 2) / d
        )
    # cosh would overflow: fold the envelope into the exponents (both have
    # non-positive real part)
    return 0.5 * (
        (1 + 1 / d) * cmath.exp((d - 1) * tau / 2)
        + (1 - 1 / d) * cmath.exp(-(d + 1) * tau / 2)
    )


def exact_reference(params, grid):
    """closed_form_beta0 at beta = 0, else the analytic route."""
    if params.beta == 0:
        return np.array([closed_form_beta0(params.R, t) for t in grid.taus()])
    return amplitude(build_amplitude_model(params), grid.taus())


def exp_increment_reference(m, span):
    """exp(span m) - I by scaling and squaring for one span: the degree-17
    Taylor series of span m / 2^s, ||span m / 2^s||_1 <= 1/2, in increment
    form, then s squarings, with numpy's matrix product."""
    s = max(0, math.frexp(span * np.abs(m).sum(axis=0).max())[1] + 1)
    a = math.ldexp(span, -s) * m
    eye = np.eye(3)
    p = eye
    for k in range(17, 1, -1):
        p = eye + a @ p / k
    d = a @ p
    for _ in range(s):
        d = 2 * d + d @ d
    return d


def propagator_generator(params):
    g = params.R / 2
    return np.array([[0, -g, -g], [g, -params.y_plus, 0], [g, 0, -params.y_minus]], dtype=complex)


def sequential_walk_reference(params, grid):
    """The propagator stepped along the grid one point at a time: s = s + D s
    with the D of each span, as exp_increment_reference forms it."""
    m, state, last, out = propagator_generator(params), np.array([1, 0, 0], dtype=complex), 0.0, []
    for tau in grid.taus().tolist():
        if tau > last:
            state = state + exp_increment_reference(m, tau - last) @ state
        out.append(state[0])
        last = tau
    return np.array(out)


def near_triple_root(beta):
    """R^2 = 16/27 and beta*Omega = 1/sqrt(27): the cubic's three roots
    crowd round -2/3, the closer the smaller beta."""
    return ModelParams(R=0.769800358919501, beta=beta, Omega=0.19245008972987526 / beta)


ROUTE_TABLE = [  # (params, whether build_amplitude_model flags them)
    *((p, False) for p in WEAK + STRONG),  # conditioning 4.5e-14 (WEAK[0]), else 2.2e-16
    (ModelParams(3000.0, 0.0, 1.5e9), False),
    (ModelParams(1000.0, 5e-7, 1.5e9), False),  # beta*Omega = 750
    (ModelParams(R=2e-3, beta=1e-8, Omega=0.05), True),  # 1.1e-10
    *((near_triple_root(b), True) for b in (1e-9, 1e-12, 1e-15)),  # 7.4e-8 to 7.1e-2
    (ModelParams(0.0215, 0.0, 1.0), False),  # at beta = 0 about 2 eps / R^2
    (ModelParams(0.021, 0.0, 1.0), True),
]


class TestModelParams:
    def test_valid(self):
        p = ModelParams(R=0.1, beta=2e-9, Omega=1.5e9)
        assert p.y_plus == 1 + 2e-9 * (1 + 1.5e9j)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(R=0.0, beta=0.0, Omega=1.0),
            dict(R=-1.0, beta=0.0, Omega=1.0),
            dict(R=1.0, beta=-1e-9, Omega=1.0),
            dict(R=1.0, beta=0.0, Omega=0.0),
            dict(R=1.0, beta=1e-3, Omega=1.0),  # classical-motion cutoff
            dict(R=1.0, beta=0.01, Omega=1.0),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(RangeError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(R=math.inf, beta=0.0, Omega=1.0),
            dict(R=math.nan, beta=0.0, Omega=1.0),
            dict(R=1.0, beta=math.nan, Omega=1.0),
            dict(R=1.0, beta=0.0, Omega=math.inf),
            dict(R=1e200, beta=0.0, Omega=1.0),  # R**2 overflows
            dict(R=1.0, beta=1e-4, Omega=1e300),  # (beta*Omega)**2 overflows
        ],
    )
    def test_rejects_non_finite_and_overflowing(self, kwargs):
        with pytest.raises(RangeError):
            ModelParams(**kwargs)

    def test_largest_r_builds_coefficients(self):
        r_max = math.sqrt(sys.float_info.max)
        _, _, a0 = cubic_coefficients(ModelParams(r_max, 0.0, 1.0))
        assert math.isfinite(a0.real)
        with pytest.raises(RangeError):
            ModelParams(math.nextafter(r_max, math.inf), 0.0, 1.0)


class TestPhaseBound:
    """Beyond R*tau/sqrt(2) = 1e-3/eps (4.5e12) the phase of E is uncertain
    by more than 1e-3.  The library routes refuse it as a scan does: at
    R = 1e100 amplitude() gave finite, meaningless values, and the propagator
    [1, 0, 0] after overflow warnings."""

    MESSAGE = r"^R\*tau_end/sqrt\(2\) = .* exceeds 4\.5e\+12, where the phase"

    def test_amplitude_checks_its_largest_tau(self):
        model = build_amplitude_model(ModelParams(R=1e100, beta=0.0, Omega=1.5e9))
        with pytest.raises(RangeError, match=self.MESSAGE):
            amplitude(model, [0.5, 1.0])
        model = build_amplitude_model(ModelParams(R=1e10, beta=0.0, Omega=1.5e9))
        assert np.all(np.isfinite(amplitude(model, [0.0, 600.0])))  # phase 4.2e12
        assert amplitude(model, np.array([])).shape == (0,)
        for tau in (700.0, [1.0, 700.0], math.inf):  # phase 4.9e12
            with pytest.raises(RangeError, match=self.MESSAGE):
                amplitude(model, tau)

    def test_amplitude_refuses_nan_and_negative_tau(self):
        # TimeGrid's rule, tau finite and at least 0: NaN gave nan+nanj with no
        # error, tau = -10 gave |E| = 1312 and a flagged model (R = 0.01) 2.6e17 at -50
        for R, beta in ((10.0, 1e-8), (0.01, 0.0)):
            model = build_amplitude_model(ModelParams(R=R, beta=beta, Omega=1.5e9))
            for tau in (math.nan, -10.0, -50.0, [1.0, math.nan], [0.0, -5e-324]):
                with pytest.raises(RangeError, match=r"^tau must be finite and at least 0, got"):
                    amplitude(model, tau)

    def test_propagator_checks_tau_end(self):
        for params in (ModelParams(R=1e100, beta=0.0, Omega=1.5e9),
                       ModelParams(R=1e10, beta=0.0, Omega=1.5e9)):
            with pytest.raises(RangeError, match=self.MESSAGE):
                amplitude_ode_oracle(params, TimeGrid(0.0, 700.0, 3))
            with pytest.raises(RangeError, match=self.MESSAGE):
                propagator(params, TimeGrid(0.0, 700.0, 3))
            with pytest.raises(RangeError, match=self.MESSAGE):
                grid_amplitude(build_amplitude_model(params), TimeGrid(0.0, 700.0, 3))
        e = amplitude_ode_oracle(ModelParams(R=1e10, beta=0.0, Omega=1.5e9),
                                 TimeGrid(0.0, 600.0, 3))
        assert e[0] == 1 and np.all(np.isfinite(e))
        model = build_amplitude_model(ModelParams(R=1e10, beta=0.0, Omega=1.5e9))
        assert np.all(np.isfinite(grid_amplitude(model, TimeGrid(0.0, 600.0, 3))(0, 3)))


class TestCubicCoefficients:
    def test_static_weak(self):
        a2, a1, a0 = cubic_coefficients(ModelParams(R=0.1, beta=0.0, Omega=1.5e9))
        # beta=0 forces y+ y- = 1 exactly
        assert a2 == 2
        assert a1 == pytest.approx(1.005)
        assert a0 == pytest.approx(0.005)

    def test_static_strong(self):
        _, a1, a0 = cubic_coefficients(ModelParams(R=10.0, beta=0.0, Omega=7.0))
        assert a1 == pytest.approx(51.0)
        assert a0 == pytest.approx(50.0)

    def test_moving(self):
        # y+ y- = 1 - beta^2 (1 + i Omega)^2, expanded symbolically
        beta, omega = 2e-9, 1.5e9
        _, a1, _ = cubic_coefficients(ModelParams(R=0.1, beta=beta, Omega=omega))
        expected = 1 - beta**2 * (1 + 1j * omega) ** 2 + 0.005
        assert a1 == pytest.approx(expected, rel=1e-14)
        assert expected.real == pytest.approx(10.005, rel=1e-9)
        assert expected.imag == pytest.approx(-1.2e-8, rel=1e-9)


class TestSolveCubic:
    def test_static_weak_factorization(self):
        # beta=0 factors as (q+1)(q^2 + q + R^2/2); sqrt(0.98) by hand
        c = cubic_coefficients(ModelParams(R=0.1, beta=0.0, Omega=1.0))
        roots = solve_cubic(c)
        d = math.sqrt(0.98)
        expected = sorted([-1.0, (-1 - d) / 2, (-1 + d) / 2])
        assert roots == pytest.approx(expected, abs=1e-10)

    def test_static_strong_complex_pair(self):
        c = cubic_coefficients(ModelParams(R=10.0, beta=0.0, Omega=1.0))
        roots = solve_cubic(c)
        d = math.sqrt(199)
        expected = [-1.0, -0.5 - d / 2 * 1j, -0.5 + d / 2 * 1j]
        assert roots == pytest.approx(expected, abs=1e-9)

    def test_zero_constant_term(self):
        c = (2.0, 1.0 + 0.5j, 0.0)
        roots = solve_cubic(c)
        assert min(abs(r) for r in roots) < 1e-12

    def test_residual_bound_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = tuple(complex(*rng.normal(0, 10, 2)) for _ in range(3))  # (a2, a1, a0)
            for r in solve_cubic(c):
                assert residual(c, r) <= 1e-9 * max(1.0, abs(r) ** 3)

    @pytest.mark.parametrize("k", [-300, -100, 100, 300])
    def test_residual_bound_scaled(self, k):
        # the same cubics with every root times 2^k: the closed form scales
        # them to order 1 first, so nothing overflows or underflows
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = tuple(complex(*rng.normal(0, 10, 2)) for _ in range(3))
            size = math.ldexp(max(1.0, *np.abs(np.roots([1.0, *c]))), k)
            scaled = tuple(math.ldexp(1.0, n * k) * a for n, a in zip((1, 2, 3), c))
            for r in solve_cubic(scaled):
                assert residual(scaled, r) <= 1e-9 * size**3

    def test_ordering(self):
        c = cubic_coefficients(ModelParams(R=10.0, beta=0.0, Omega=1.0))
        roots = solve_cubic(c)
        assert [ (r.real, r.imag) for r in roots ] == sorted(
            (r.real, r.imag) for r in roots
        )


class TestAmplitudeModel:
    def test_weight_vanishes_on_double_factor(self):
        # beta=0: numerator (q+1)^2 kills the q=-1 root's weight
        model = build_amplitude_model(ModelParams(R=0.1, beta=0.0, Omega=1.5e9))
        idx = int(np.argmin([abs(q + 1) for q in model.roots]))
        assert abs(model.weights[idx]) < 1e-9

    @pytest.mark.parametrize("R,beta", [(0.1, 0.0), (0.1, 4e-9), (10.0, 15e-9)])
    def test_normalization(self, R, beta):
        model = build_amplitude_model(ModelParams(R=R, beta=beta, Omega=1.5e9))
        assert abs(sum(model.weights) - 1) < 1e-10
        assert abs(sum(a * q for a, q in zip(model.weights, model.roots))) < 1e-10

    def test_degenerate_flagged_and_answered(self):
        # R = 1/sqrt(2) at rest: the quadratic factor has a double root, and
        # the confluent closed form is exp(-tau/2)(1 + tau/2)
        model = build_amplitude_model(ModelParams(R=1 / math.sqrt(2), beta=0.0, Omega=1.0))
        assert model.degenerate
        one = amplitude(model, 1.5)
        assert type(one) is complex and abs(one - math.exp(-0.75) * 1.75) <= 1e-12
        grid = TimeGrid(0.0, 50.0, 1001)
        taus = grid.taus()
        assert np.max(np.abs(amplitude(model, taus) - np.exp(-taus / 2) * (1 + taus / 2))) <= 1e-12
        points = grid_amplitude(model, grid)(0, grid.n_points)
        assert points.tobytes() == propagator(model.params, grid)(0, grid.n_points).tobytes()

    @pytest.mark.parametrize("R", [1e110, 1e150])
    def test_overflowed_roots_are_flagged_and_answered(self, R):
        # the cubic's roots overflow to inf and NaN, so the conditioning is
        # NaN; the model takes the propagator, not NaN amplitudes.  Built
        # without np.errstate: the overflow must not warn (pytest makes a
        # warning an error).  E is the large-R limit exp(-tau/2) cos(R tau/sqrt(2)),
        # within a few eps times the phase, which reaches 7 here.
        model = build_amplitude_model(ModelParams(R=R, beta=0.0, Omega=1.5e9))
        assert not np.isfinite([*model.roots, *model.weights]).all()
        assert model.degenerate
        grid = TimeGrid(0.0, 10 / R, 41)
        taus = grid.taus()
        limit = np.exp(-taus / 2) * np.cos(R * taus / math.sqrt(2))
        assert np.max(np.abs(amplitude(model, taus) - limit)) <= 1e-14
        assert abs(amplitude(model, taus[7]) - limit[7]) <= 1e-14
        points = grid_amplitude(model, grid)(0, grid.n_points)
        assert np.max(np.abs(points - limit)) <= 1e-14
        assert points.tobytes() == propagator(model.params, grid)(0, grid.n_points).tobytes()

    def test_flagged_amplitude_equals_the_propagator_at_any_taus(self):
        # every R below about 0.02 is flagged at beta = 0; amplitude() takes
        # exp(M tau) at each tau, so a tau has the same bits alone, in any
        # array and at any place in it, and the grid's values within 1e-12
        params = ModelParams(R=0.01, beta=0.0, Omega=1.5e9)
        model = build_amplitude_model(params)
        assert model.degenerate
        grid = TimeGrid(0.0, 50.0, 1001)
        out = amplitude(model, grid.taus())
        assert np.max(np.abs(out - amplitude_ode_oracle(params, grid))) <= 1e-12
        taus = np.random.default_rng(5).uniform(0.0, 50.0, (3, 700))
        shaped = amplitude(model, taus)
        assert shaped.shape == (3, 700)
        assert shaped.tobytes() == amplitude(model, taus.reshape(-1)[::-1])[::-1].tobytes()
        assert all(amplitude(model, t) == shaped[1, j] for j, t in enumerate(taus[1, :50]))
        assert amplitude(model, []).shape == (0,)

    def test_flagged_amplitude_memory_is_bounded(self):
        # a flagged model's amplitude() takes its taus a bounded slice at a
        # time: one call on all of them took about 1.2 kB a tau, 116 MB here
        model = build_amplitude_model(ModelParams(R=0.01, beta=0.0, Omega=1.5e9))
        taus = np.linspace(0.0, 50.0, 100_000)
        amplitude(model, taus[:10])
        tracemalloc.start()
        try:
            out = amplitude(model, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == taus.shape and np.all(np.isfinite(out))
        assert peak < 8e6

    @pytest.mark.parametrize("params,degenerate", ROUTE_TABLE)
    def test_routed_by_conditioning(self, params, degenerate):
        # analytic only where the weights' conditioning eps sum|A_i| scale / gap
        # is at most 1e-12; a fixed root gap of 1e-6 let every flagged one here through
        assert build_amplitude_model(params).degenerate == degenerate

    def test_models_build_without_lapack(self, monkeypatch):
        # the roots are in closed form: neither numpy.roots nor an eigenvalue call
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np, "roots", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for params, degenerate in ROUTE_TABLE:
            assert build_amplitude_model(params).degenerate == degenerate

    @pytest.mark.parametrize("R", [1e34, 1e50, 1e100])
    @pytest.mark.parametrize("beta", [0.0, 1e-8])
    def test_large_r_keeps_the_slow_root(self, R, beta):
        # at beta = 0 the cubic is (q + 1)(q^2 + q + R^2/2): the companion
        # eigenvalues lost the root -1 to an exact 0 here, unflagged
        model = build_amplitude_model(ModelParams(R=R, beta=beta, Omega=1.5e9))
        assert not model.degenerate and 0 not in model.roots
        assert abs(min(model.roots, key=abs) + 1) <= 1e-12
        # the pair's real part, -1/2, is still lost to rounding (up to +5.8e17 at
        # R = 1e50), but inside the phase bound it cannot move E
        tau_end = 1e-3 / sys.float_info.epsilon * math.sqrt(2) / R
        assert max(q.real for q in model.roots) * tau_end <= 1e-19

    @pytest.mark.parametrize("R", [1.5223437009626503e-4, 1.1845575740339161e-4])
    def test_double_root_at_small_r_is_flagged(self, R):
        # the cubic is (q + 1)(q^2 + q + R^2/2): two roots about 1e-8 apart.
        # An unguarded Newton polish threw one of them 0.09 or 0.2 away, so
        # the model passed as regular and its amplitude was off by 0.1 and 0.18.
        params = ModelParams(R=R, beta=0.0, Omega=1.5e9)
        assert build_amplitude_model(params).degenerate
        grid = TimeGrid(0.0, 50.0, 101)
        out = amplitude_ode_oracle(params, grid)
        assert np.max(np.abs(out - exact_reference(params, grid))) < 1e-12

    def test_initial_value(self):
        model = build_amplitude_model(ModelParams(R=10.0, beta=1e-8, Omega=1.5e9))
        assert amplitude(model, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_matches_static_closed_form(self):
        model = build_amplitude_model(ModelParams(R=0.1, beta=0.0, Omega=1.5e9))
        assert amplitude(model, 10.0) == pytest.approx(
            closed_form_beta0(0.1, 10.0), abs=1e-10
        )

    def test_strong_coupling_oscillates(self):
        model = build_amplitude_model(ModelParams(R=10.0, beta=0.0, Omega=1.5e9))
        taus = np.linspace(0, 5, 2000)
        mags = np.abs(amplitude(model, taus))
        # decaying oscillation: |E| dips close to zero early and revives
        first_dip = int(np.flatnonzero(mags < 0.05)[0])
        assert taus[first_dip] < 0.5
        assert mags[first_dip : first_dip + 200].max() > 0.3

    def test_contractive(self):
        for R, beta in [(0.1, 0.0), (0.1, 4e-9), (10.0, 0.0), (10.0, 15e-9)]:
            model = build_amplitude_model(ModelParams(R=R, beta=beta, Omega=1.5e9))
            mags = np.abs(amplitude(model, np.linspace(0, 100, 4001)))
            assert mags.max() <= 1 + 1e-9

    @pytest.mark.parametrize("beta_omega", [1e3, 1e4, 1e6, 1e9, 1e12, 1e15])
    def test_markov_limit_at_large_detuning(self, beta_omega):
        # For beta*Omega >> R the cavity modes, detuned by about ±i beta*Omega,
        # follow E adiabatically: E' = -(R^2/4)(1/y+ + 1/y-) E, with an error
        # of second order in R/(beta*Omega).  An oracle independent of the
        # cubic's roots, out to detunings where the propagator loses accuracy.
        params = ModelParams(R=10.0, beta=9.99e-4, Omega=beta_omega / 9.99e-4)
        model = build_amplitude_model(params)
        grid = TimeGrid(0.0, 50.0, 1001)
        got = grid_amplitude(model, grid)(0, grid.n_points)
        rate = params.R**2 / 4 * (1 / params.y_plus + 1 / params.y_minus)
        want = np.exp(-rate * grid.taus())
        assert not model.degenerate
        assert np.max(np.abs(got - want)) <= 2 * (params.R / beta_omega) ** 2 + 1e-15

    @pytest.mark.parametrize("n", [0, 1, 1000, 16383, 16384, 100001])
    def test_in_place_sum_equals_expression(self, n):
        # the sum of the terms a * exp(q t), each product in that operand
        # order at every size (an expression's ``a * np.exp(...)`` would be
        # reordered by numpy from 16384 points on); n = 0 is a scalar tau
        model = build_amplitude_model(ModelParams(R=5.93, beta=1.13e-8, Omega=1.5e9))
        taus = np.asarray(np.linspace(0, 50, n) if n else 50.0)
        ref = np.zeros(taus.shape, dtype=complex)
        for a, q in zip(model.weights, model.roots):
            ref += np.multiply(a, np.exp(q * taus))
        got = np.atleast_1d(amplitude(model, taus if n else 50.0))
        assert np.array_equal(got.view(np.float64), np.atleast_1d(ref).view(np.float64))


class TestClosedFormBeta0:
    def test_initial_value(self):
        assert closed_form_beta0(0.3, 0.0) == 1.0

    def test_weak_coupling_decays(self):
        # slow root is approximately -R^2/2, so the decay scale is ~1/0.005
        vals = [abs(closed_form_beta0(0.1, t)) for t in (0, 100, 500, 2000)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 1e-4

    def test_confluent_limit(self):
        # D = 0 at R = 1/sqrt(2): E(tau) = exp(-tau/2)(1 + tau/2)
        assert closed_form_beta0(1 / math.sqrt(2), 2.0) == pytest.approx(
            2 * math.exp(-1), abs=1e-12
        )

    def test_strong_coupling_matches_trig_form(self):
        # imaginary D turns cosh/sinh into cos/sin
        r, tau = 10.0, 0.7
        d = math.sqrt(2 * r * r - 1)
        expected = cmath.exp(-tau / 2) * (math.cos(d * tau / 2) + math.sin(d * tau / 2) / d)
        assert closed_form_beta0(r, tau) == pytest.approx(expected, abs=1e-12)


class TestOdeOracle:
    def test_initial_value(self):
        grid = TimeGrid(0.0, 1.0, 3)
        out = amplitude_ode_oracle(ModelParams(R=0.5, beta=0.0, Omega=2.0), grid)
        assert out[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_static_closed_form(self):
        params, grid = ModelParams(R=0.1, beta=0.0, Omega=1.5e9), TimeGrid(0.0, 50.0, 201)
        ref = exact_reference(params, grid)
        assert np.max(np.abs(amplitude_ode_oracle(params, grid) - ref)) < 1e-12
        assert np.max(np.abs(rk4_loop_reference(params, grid) - ref)) < 1e-8

    def test_matches_exponential_sum_with_motion(self):
        params = ModelParams(R=10.0, beta=15e-9, Omega=1.5e9)
        grid = TimeGrid(0.0, 50.0, 201)
        ref = exact_reference(params, grid)
        assert np.max(np.abs(amplitude_ode_oracle(params, grid) - ref)) < 1e-12
        assert np.max(np.abs(rk4_loop_reference(params, grid) - ref)) < 1e-6

    def test_handles_degenerate_case(self):
        params = ModelParams(R=1 / math.sqrt(2), beta=0.0, Omega=1.0)
        grid = TimeGrid(0.0, 4.0, 5)
        out = amplitude_ode_oracle(params, grid)
        assert np.max(np.abs(out - exact_reference(params, grid))) < 1e-12

    @pytest.mark.parametrize(
        "params,grid",
        [(p, TimeGrid(0.0, 50.0, 501)) for p in WEAK + STRONG]
        + [
            (ModelParams(R=3.7, beta=7e-9, Omega=1.5e9), TimeGrid(2.5, 17.3, 333)),
            (ModelParams(R=0.1, beta=2e-9, Omega=1.5e9), TimeGrid(1.0, 1.0, 1)),
            (ModelParams(R=1 / math.sqrt(2), beta=0.0, Omega=1.0), TimeGrid(0.0, 50.0, 501)),
        ],
    )
    def test_matrix_form_equals_step_loop(self, params, grid):
        # the propagator is exact to rounding; the RK4 loop within its error;
        # the walk one point at a time within eps per unit of phase, since
        # the propagator forms exp(M t_c) exp(M i h), not a product of steps
        out = amplitude_ode_oracle(params, grid)
        assert np.max(np.abs(out - exact_reference(params, grid))) < 1e-12
        assert np.max(np.abs(out - rk4_loop_reference(params, grid))) < 1e-6
        phase = max(1.0, params.R, abs(params.y_plus), abs(params.y_minus)) * grid.tau_end
        err = np.max(np.abs(out - sequential_walk_reference(params, grid)))
        assert err <= np.finfo(float).eps * phase

    @pytest.mark.parametrize("R", [20.0, 140.0, 142.0, 1000.0, 3000.0])
    def test_exact_at_large_rabi_rate(self, R):
        # no step and no guard: the error grows only with the phase R tau
        params, grid = ModelParams(R=R, beta=0.0, Omega=1.5e9), TimeGrid(0.0, 5.0, 501)
        err = np.max(np.abs(amplitude_ode_oracle(params, grid) - exact_reference(params, grid)))
        assert err < 1e-15 * R * grid.tau_end

    @pytest.mark.parametrize("params,grid,values", [
        (ModelParams(3000.0, 0.0, 1.5e9), TimeGrid(0.0, 5.0, 501), {
            1: complex(-0.7086392744960590305772684980875361097633, 0.0),
            167: complex(0.1921988272773438180278168363719974354826, 0.0),
            335: complex(0.1854720199231721152263418455838174687584, 0.0),
            500: complex(0.06846294183061786029024860249890608784486, 0.0),
        }),
        (near_triple_root(1e-9), TimeGrid(0.0, 50.0, 501), {
            1: complex(0.9985670855041193775659971581636028333996,
                       -4.475028744905242198965813002389973288275e-16),
            167: complex(0.0004793146590603283086025666543552491312764,
                         -1.141699372682875003771804139112382370811e-11),
            335: complex(2.127919133703266451059423932052604615352e-8,
                         -3.867669761627039320472545972336774131658e-15),
            500: complex(7.328050153010202347386930785219635785914e-13,
                         -4.296180221070897096368617446850859642579e-19),
        }),
        (near_triple_root(1e-15), TimeGrid(0.0, 50.0, 501), {
            1: complex(0.9985670855041193775659983207534466541818,
                       -4.719865822512291516375007006309255803024e-22),
            167: complex(0.0004793146590603283556998438098465321668361,
                         -1.204163851426551906207356638843764130491e-17),
            335: complex(2.12791913370327615126436430698871394675e-8,
                         -4.079277108879056303966802507311057255446e-21),
            500: complex(7.328050153010572899793788452735698853388e-13,
                         -4.531232166021593460764520237979519669556e-25),
        }),
        (WEAK[1], TimeGrid(0.0, 1000.0, 2001), {
            1: complex(0.9995487117082337906313707257408729316949,
                       -1.008066064557396730881536832711578290655e-13),
            667: complex(0.8461290702114572557014510097125547439188,
                         -1.6949679493971652474523779782540656271e-10),
            1335: complex(0.7160419089946777746034103174882549272385,
                          -2.868320747186079278302736312854075298682e-10),
            2000: complex(0.6064093066367593109936351291469543807957,
                          -3.638094355397219561683748816027770783845e-10),
        }),
    ], ids=["R-3000", "triple-1e-9", "triple-1e-15", "tau-1000"])
    def test_pinned_to_40_digit_values(self, params, grid, values):
        # E at grid points to 40 digits: the first entry of exp(M tau) by
        # mpmath at 60 digits (80 agree) on the exact doubles of M and tau
        out = amplitude_ode_oracle(params, grid)
        phase = max(1.0, params.R, abs(params.y_plus), abs(params.y_minus)) * grid.tau_end
        for j, exact in values.items():
            assert abs(out[j] - exact) <= np.finfo(float).eps * phase

    def test_beats_the_analytic_route_near_confluence(self):
        # The root gap, 2.0e-6, leaves the weights' conditioning at 1.1e-10,
        # so the model is flagged and scans take the propagator; the
        # analytic route was off by 3.1e-11 at tau = 1.  E(1) to 40 digits:
        # the first entry of exp(M) by mpmath at 60 digits on the exact
        # doubles, which the 60-digit exponential sum matches.
        params = ModelParams(R=2e-3, beta=1e-8, Omega=0.05)
        exact = complex(0.9999992642412315860492299350202176718187,
                        -4.667384651355145394772226920414679652585e-25)
        model = build_amplitude_model(params)
        assert model.degenerate
        config = ScenarioConfig(params, TimeGrid(0.0, 1.0, 2), "amplitude")
        re, im, _ = run_scan(config).values[-1]
        assert abs(complex(re, im) - exact) <= 1e-15
        assert abs(amplitude(model, 1.0) - exact) <= 1e-15

    @pytest.mark.parametrize("rows", sorted({
        1, 2, 7, 23, 25, _POINTS_PER_ROW - 1, _POINTS_PER_ROW + 1, 250, 500, 4097,
        *(_CSV_CHUNK // len(columns) for columns in COLUMNS.values())}))
    def test_walk_over_blocks_equals_one_call(self, rows):
        # a point's bits depend on its index alone, whether a block starts
        # or ends inside a row of the lattice or not, in every observable's
        # scan blocks, for the propagator on the analytic and on the fallback
        # route's model and for the analytic lattice; a lattice that formed
        # another row first changes no bit either
        grid = TimeGrid(0.5, 20.0, 301 + 2 * rows)
        routes = [lambda: propagator(STRONG[2], grid),
                  lambda: propagator(ModelParams(1 / math.sqrt(2), 0.0, 1.5e9), grid),
                  lambda: grid_amplitude(build_amplitude_model(STRONG[2]), grid)]
        n = grid.n_points
        for route in routes:
            points, got, taus = route(), [], []
            for lo in range(0, n, rows):
                taus.append(grid.taus(lo, lo + rows))
                got.append(points(lo, lo + len(taus[-1])))
            assert np.concatenate(taus).tobytes() == np.linspace(0.5, 20.0, n).tobytes()
            got = np.concatenate(got)
            assert got.tobytes() == route()(0, grid.n_points).tobytes()
            later = route()
            later(grid.n_points - 1, grid.n_points)
            assert got[:rows].tobytes() == later(0, rows).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 24, _POINTS_PER_ROW, 1000])
    def test_stacked_product_adds_in_order(self, n):
        # each stacked exponential's bits, and so the propagator's, rest on
        # this order of the sum
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, 3, 3, n)) + 1j * rng.normal(size=(2, 3, 3, n))
        prod = a[:, :, None] * b[None]
        assert _mul(a, b).tobytes() == (prod[:, 0] + prod[:, 1] + prod[:, 2]).tobytes()

    @pytest.mark.parametrize("params", [*WEAK, *STRONG, ModelParams(3000.0, 0.0, 1.5e9),
                                        ModelParams(1 / math.sqrt(2), 0.0, 1.0)])
    def test_stacked_increments_match_one_span_at_a_time(self, params):
        # the spans of three linspace grids, and spans far below and above 1:
        # each matrix has its bits whatever the stack holds, and is within a
        # few ulps per unit of phase span ||m||_1 of the reference, whose
        # squarings round otherwise
        spans = sorted({*np.diff(TimeGrid(0.0, 50.0, 1000).taus()).tolist(),
                        *np.diff(TimeGrid(2.5, 17.3, 333).taus()).tolist(),
                        *np.diff(TimeGrid(0.0, 5.0, 501).taus()).tolist(), 1e-9, 0.7, 30.0})
        m = propagator_generator(params)
        norm = np.abs(m).sum(axis=0).max()
        stacked = _exp_increments(m, spans)
        for i, span in enumerate(spans):
            alone = _exp_increments(m, [span])[..., 0]
            assert alone.tobytes() == stacked[..., i].tobytes()
            ref = exp_increment_reference(m, span)
            ulp = np.finfo(float).eps * np.max(np.abs(ref))
            assert np.max(np.abs(alone - ref)) <= 4 * ulp * max(1.0, span * norm)

    @settings(max_examples=300, deadline=None)
    @given(r_exp=st.floats(-4, 4), beta_exp=st.one_of(st.none(), st.floats(-12, -3.001)),
           omega_exp=st.floats(-3, 12), tau_exp=st.floats(-3, 3), n=st.integers(2, 200))
    def test_analytic_route_equals_propagator(self, r_exp, beta_exp, omega_exp, tau_exp, n):
        # over the documented box with max(R, beta*Omega) tau_end <= 1e6: both
        # routes lose about eps per unit of phase, and the analytic route also
        # its weights' conditioning, sum |A_i| and root scale over root gap
        beta = 0.0 if beta_exp is None else 10.0**beta_exp
        params = ModelParams(R=10.0**r_exp, beta=beta, Omega=10.0**omega_exp)
        grid = TimeGrid(0.0, 10.0**tau_exp, n)
        assume(max(params.R, beta * params.Omega) * grid.tau_end <= 1e6)
        model = build_amplitude_model(params)
        assume(not model.degenerate)
        q = model.roots
        gap = min(abs(q[i] - q[j]) for i in range(3) for j in range(i + 1, 3))
        conditioning = sum(map(abs, model.weights)) * max(1.0, *map(abs, q)) / gap
        phase = max(1.0, params.R * grid.tau_end,
                    abs(params.y_plus) * grid.tau_end, abs(params.y_minus) * grid.tau_end)
        oracle = amplitude_ode_oracle(params, grid)
        for analytic in (amplitude(model, grid.taus()), grid_amplitude(model, grid)(0, n)):
            err = np.max(np.abs(analytic - oracle))
            assert err <= 100 * np.finfo(float).eps * conditioning * phase


class TestTimeGrid:
    def test_rejects_reversed_span(self):
        with pytest.raises(RangeError):
            TimeGrid(2.0, 1.0, 10)

    def test_rejects_single_point_span(self):
        with pytest.raises(RangeError):
            TimeGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize(
        "start,end", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (math.inf, math.inf)]
    )
    def test_rejects_non_finite_bounds(self, start, end):
        with pytest.raises(RangeError, match="finite"):
            TimeGrid(start, end, 10)

    def test_single_instant_allowed(self):
        assert list(TimeGrid(1.0, 1.0, 1).taus()) == [1.0]

    @pytest.mark.parametrize("grid", [
        TimeGrid(0.0, 50.0, 1000), TimeGrid(1.0, 1.0, 1), TimeGrid(1.0, 1.0, 9),
        TimeGrid(1.0, 1.000000000000001, 100), TimeGrid(0.3, 77.7, 3277),
        TimeGrid(0.0, 1e-300, 5), TimeGrid(2.5, 17.3, 8193),
        TimeGrid(0.0, 5e-324, 4),  # the step underflows to 0: numpy divides first
    ])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4096, 8192])
    def test_blocks_are_linspace_bits(self, grid, rows):
        n = grid.n_points
        want = np.linspace(grid.tau_start, grid.tau_end, n)
        assert grid.taus().tobytes() == want.tobytes()
        blocks = [grid.taus(lo, lo + rows) for lo in range(0, n, rows)]
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        # every block but the last has rows points
        assert all(len(b) == rows for b in blocks[:-1])

    def test_random_grids_block_like_linspace(self):
        rng, ranges = np.random.default_rng(8), np.random.default_rng(9)
        for _ in range(200):
            start = rng.uniform(0, 10) ** rng.integers(1, 3)
            end = start + rng.uniform(0, 100) * 10.0 ** rng.integers(-15, 3)
            n = int(rng.integers(2, 5000))
            grid, rows = TimeGrid(start, end, n), int(rng.integers(2, 700))
            want = np.linspace(start, end, n)
            got = np.concatenate([grid.taus(lo, lo + rows) for lo in range(0, n, rows)])
            assert got.tobytes() == want.tobytes()
            # any range of points, such as a block and the point before it
            lo, hi = sorted(ranges.integers(0, n + 1, 2))
            assert grid.taus(lo, hi).tobytes() == want[lo:hi].tobytes()
