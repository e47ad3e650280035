import cmath
import math
import sys

import numpy as np
import pytest

from qubitswap.amplitude import (
    ModelParams,
    TimeGrid,
    amplitude,
    amplitude_ode_oracle,
    build_amplitude_model,
    closed_form_beta0,
    cubic_coefficients,
    solve_cubic,
)
from qubitswap.errors import DegenerateModel, RangeError, StepTooLarge
from qubitswap.scenario import STRONG, WEAK


def residual(c, r):
    return abs(((r + c.a2) * r + c.a1) * r + c.a0)


def rk4_loop_reference(params, grid, step=1e-3):
    """The oracle's classical RK4, one step at a time: each span between grid
    points takes ceil(span/step) equal steps.  amplitude_ode_oracle applies
    the same steps as powers of the one-step matrix."""
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
        assert math.isfinite(cubic_coefficients(ModelParams(r_max, 0.0, 1.0)).a0.real)
        with pytest.raises(RangeError):
            ModelParams(math.nextafter(r_max, math.inf), 0.0, 1.0)


class TestCubicCoefficients:
    def test_static_weak(self):
        c = cubic_coefficients(ModelParams(R=0.1, beta=0.0, Omega=1.5e9))
        # beta=0 forces y+ y- = 1 exactly
        assert c.a2 == 2
        assert c.a1 == pytest.approx(1.005)
        assert c.a0 == pytest.approx(0.005)

    def test_static_strong(self):
        c = cubic_coefficients(ModelParams(R=10.0, beta=0.0, Omega=7.0))
        assert c.a1 == pytest.approx(51.0)
        assert c.a0 == pytest.approx(50.0)

    def test_moving(self):
        # y+ y- = 1 - beta^2 (1 + i Omega)^2, expanded symbolically
        beta, omega = 2e-9, 1.5e9
        c = cubic_coefficients(ModelParams(R=0.1, beta=beta, Omega=omega))
        expected = 1 - beta**2 * (1 + 1j * omega) ** 2 + 0.005
        assert c.a1 == pytest.approx(expected, rel=1e-14)
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
        from qubitswap.amplitude import CubicCoefficients

        c = CubicCoefficients(a2=2.0, a1=1.0 + 0.5j, a0=0.0)
        roots = solve_cubic(c)
        assert min(abs(r) for r in roots) < 1e-12

    def test_residual_bound_random(self):
        rng = np.random.default_rng(3)
        from qubitswap.amplitude import CubicCoefficients

        for _ in range(200):
            c = CubicCoefficients(
                a2=complex(*rng.normal(0, 10, 2)),
                a1=complex(*rng.normal(0, 10, 2)),
                a0=complex(*rng.normal(0, 10, 2)),
            )
            for r in solve_cubic(c):
                assert residual(c, r) <= 1e-9 * max(1.0, abs(r) ** 3)

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

    def test_degenerate_flagged_and_refused(self):
        # R = 1/sqrt(2) at rest: the quadratic factor has a double root
        model = build_amplitude_model(ModelParams(R=1 / math.sqrt(2), beta=0.0, Omega=1.0))
        assert model.degenerate
        with pytest.raises(DegenerateModel):
            amplitude(model, 1.0)

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
        grid = TimeGrid(0.0, 50.0, 201)
        out = amplitude_ode_oracle(ModelParams(R=0.1, beta=0.0, Omega=1.5e9), grid, step=1e-3)
        ref = np.array([closed_form_beta0(0.1, t) for t in grid.taus()])
        assert np.max(np.abs(out - ref)) < 1e-8

    def test_matches_exponential_sum_with_motion(self):
        params = ModelParams(R=10.0, beta=15e-9, Omega=1.5e9)
        grid = TimeGrid(0.0, 50.0, 201)
        out = amplitude_ode_oracle(params, grid, step=1e-3)
        ref = amplitude(build_amplitude_model(params), grid.taus())
        assert np.max(np.abs(out - ref)) < 1e-6

    def test_handles_degenerate_case(self):
        params = ModelParams(R=1 / math.sqrt(2), beta=0.0, Omega=1.0)
        grid = TimeGrid(0.0, 4.0, 5)
        out = amplitude_ode_oracle(params, grid, step=1e-3)
        ref = np.array([closed_form_beta0(params.R, t) for t in grid.taus()])
        assert np.max(np.abs(out - ref)) < 1e-8

    def test_step_guard(self):
        params = ModelParams(R=10.0, beta=15e-9, Omega=1.5e9)  # |y| ~ 22.5
        with pytest.raises(StepTooLarge):
            amplitude_ode_oracle(params, TimeGrid(0.0, 1.0, 3), step=0.01)

    def test_rejects_bad_step(self):
        with pytest.raises(RangeError):
            amplitude_ode_oracle(ModelParams(R=1, beta=0, Omega=1), TimeGrid(0, 1, 3), step=0.0)

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
        out = amplitude_ode_oracle(params, grid)
        assert np.max(np.abs(out - rk4_loop_reference(params, grid))) < 1e-13

    @pytest.mark.parametrize("R", [20.0, 140.0])
    def test_step_guard_accepts_rabi_rate_below_bound(self, R):
        # step * R/sqrt(2) <= 0.1 up to R = 141.4 at the default step
        params = ModelParams(R=R, beta=0.0, Omega=1.5e9)
        grid = TimeGrid(0.0, 5.0, 501)
        ref = np.array([closed_form_beta0(R, t) for t in grid.taus()])
        assert np.max(np.abs(amplitude_ode_oracle(params, grid) - ref)) < 1e-4

    @pytest.mark.parametrize("R", [142.0, 1000.0, 3000.0])
    def test_step_guard_counts_rabi_rate(self, R):
        # |y+-| = 1 here; the oscillating roots approach +-iR/sqrt(2)
        with pytest.raises(StepTooLarge, match="R/sqrt"):
            amplitude_ode_oracle(ModelParams(R=R, beta=0.0, Omega=1.5e9), TimeGrid(0.0, 1.0, 3))


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
