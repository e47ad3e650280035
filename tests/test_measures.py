import enum
import math

import mpmath
import numpy as np
import pytest

from qubitswap import validate
from qubitswap.amplitude import ModelParams, TimeGrid, amplitude, build_amplitude_model
from qubitswap.errors import NonPhysicalInput, RangeError, ZeroNorm
from qubitswap.measures import (
    BlochAngles,
    DensityMatrix4,
    PostBsmState,
    average_linear_entropy,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    density_populations,
    linear_entropy,
    post_bsm_projection,
)


class InitialStateClass(enum.Enum):
    MAXIMALLY_ENTANGLED = "maximally-entangled"
    ALWAYS_ZERO = "always-zero"
    GENERIC = "generic"


def classify_initial_state(q1: BlochAngles, q2: BlochAngles) -> InitialStateClass:
    """Sort an initial angle pair into the analytic regimes of the swapped
    concurrence: |Y| = 0 gives a time-independent singlet (concurrence 1 for
    all times with E != 0); either qubit starting in the ground state gives
    concurrence identically zero."""
    c1c2 = math.cos(q1.theta / 2) * math.cos(q2.theta / 2)
    if c1c2 < 1e-12:
        return InitialStateClass.ALWAYS_ZERO
    y_sq = 0.5 * (
        1
        - math.cos(q1.theta) * math.cos(q2.theta)
        - math.sin(q1.theta) * math.sin(q2.theta) * math.cos(q1.phi - q2.phi)
    )
    if y_sq < 1e-12:
        return InitialStateClass.MAXIMALLY_ENTANGLED
    return InitialStateClass.GENERIC


def random_amplitude(rng):
    return math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi))


class TestBlochAngles:
    def test_phi_wraps(self):
        assert BlochAngles(theta=1.0, phi=5 * math.pi).phi == pytest.approx(math.pi)

    @pytest.mark.parametrize("phi", [-1e-300, -1e-17, -4e-16])
    def test_tiny_negative_phi_wraps_to_zero(self, phi):
        # phi % 2pi rounds to 2pi here; stored phi must stay in [0, 2pi)
        wrapped = BlochAngles(theta=1.0, phi=phi).phi
        assert wrapped == 0.0
        assert BlochAngles(theta=1.0, phi=wrapped).phi == wrapped

    def test_theta_range(self):
        with pytest.raises(RangeError):
            BlochAngles(theta=-0.1)
        with pytest.raises(RangeError):
            BlochAngles(theta=math.pi + 0.1)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_phi_must_be_finite(self, phi):
        with pytest.raises(RangeError):
            BlochAngles(theta=1.0, phi=phi)


class TestLinearEntropy:
    def test_maximum(self):
        assert linear_entropy(0.0, math.sqrt(0.5)) == pytest.approx(0.5)

    def test_ground_state_zero(self):
        # exactly: cos(pi/2) rounds to 6e-17, but the ground state is ruled exact
        assert linear_entropy(math.pi, 0.3 + 0.4j) == 0.0
        assert np.all(linear_entropy(math.pi, np.array([0.3 + 0.4j, 0.5, 1.0])) == 0.0)

    def test_pure_state_zero(self):
        assert linear_entropy(0.0, 1.0) == 0.0


class TestAverageLinearEntropy:
    def test_maximum_at_half(self):
        assert average_linear_entropy(math.sqrt(0.5)) == pytest.approx(1 / 6)

    @pytest.mark.parametrize("E", [0.0, 1.0, 1j])
    def test_extremes_zero(self, E):
        assert average_linear_entropy(E) == pytest.approx(0.0, abs=1e-15)

    def test_matches_bloch_sphere_monte_carlo(self):
        # Haar average of the theta-resolved entropy via cos(theta) ~ U(-1,1)
        rng = np.random.default_rng(21)
        p = 0.7
        e = math.sqrt(p)
        theta = np.arccos(rng.uniform(-1, 1, 200_000))
        samples = 2 * (1 - p) * p * np.cos(theta / 2) ** 4
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - average_linear_entropy(e)) < 3 * stderr
        assert average_linear_entropy(e) == pytest.approx((2 / 3) * 0.3 * 0.7)


class TestPostBsmProjection:
    def test_symmetric_equator_state(self):
        q = BlochAngles(theta=math.pi / 2, phi=0.0)
        e = 0.6 - 0.3j
        s = post_bsm_projection(q, q, e)
        assert s.X == pytest.approx(e / 2)
        assert abs(s.Y) < 1e-15
        assert s.N == pytest.approx(abs(e) ** 2 / 2)

    def test_excited_cross_plus(self):
        # |e> (x) (|e>+|g>)/sqrt(2)
        s = post_bsm_projection(
            BlochAngles(theta=0.0), BlochAngles(theta=math.pi / 2, phi=0.0), 0.9
        )
        assert s.X == pytest.approx(math.sqrt(2) / 2 * 0.9)
        assert s.Y == pytest.approx(-math.sqrt(2) / 2)
        assert s.N == pytest.approx(0.9**2 + 0.5)

    def test_first_qubit_ground(self):
        s = post_bsm_projection(
            BlochAngles(theta=math.pi), BlochAngles(theta=0.3, phi=1.0), 0.8
        )
        assert s.X == 0  # exactly, despite cos(pi/2) rounding to 6e-17
        assert s.N == pytest.approx(abs(s.Y) ** 2)

    def test_rejects_superunitary_amplitude(self):
        with pytest.raises(RangeError):
            post_bsm_projection(BlochAngles(0.1), BlochAngles(0.2), 1.1)


class TestConcurrenceClosed:
    def test_singlet_branch_is_maximal(self):
        q = BlochAngles(theta=math.pi / 2, phi=0.0)
        for e in (1.0, 0.5, 0.1j, 1e-6, 1e-16, 1e-200, 5e-324):
            s = post_bsm_projection(q, q, e)
            assert concurrence_closed(s) == 1.0
            assert density_populations(s).tolist() == [0.0, 0.5, 0.5, 0.0]
            # the cross-check too, where N = |X|^2 underflows
            assert abs(concurrence_wootters(density_matrix(s)) - 1) <= 1e-15

    def test_excited_cross_plus_formula(self):
        # 2p/(2p+1) with p = |E|^2
        q1, q2 = BlochAngles(0.0), BlochAngles(math.pi / 2, 0.0)
        assert concurrence_closed(post_bsm_projection(q1, q2, 1.0)) == pytest.approx(2 / 3)
        p = 0.37
        s = post_bsm_projection(q1, q2, math.sqrt(p))
        assert concurrence_closed(s) == pytest.approx(2 * p / (2 * p + 1))

    def test_zero_when_x_vanishes(self):
        s = post_bsm_projection(BlochAngles(math.pi), BlochAngles(0.4, 0.7), 0.5)
        assert concurrence_closed(s) == 0.0
        assert density_populations(s).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_zero_norm_raises(self):
        s = post_bsm_projection(BlochAngles(math.pi), BlochAngles(math.pi), 0.5)
        with pytest.raises(ZeroNorm):
            concurrence_closed(s)

    def test_monotone_in_p_at_fixed_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q1 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            q2 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            vals = []
            for p in np.linspace(0.01, 1.0, 12):
                s = post_bsm_projection(q1, q2, math.sqrt(p))
                if s.N < 1e-12:
                    break
                vals.append(concurrence_closed(s))
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestDensityMatrix:
    def test_populations_excited_cross_plus(self):
        s = post_bsm_projection(
            BlochAngles(0.0), BlochAngles(math.pi / 2, 0.0), 1.0
        )
        pops = np.diag(density_matrix(s).matrix).real
        # |gg> population (1/2)/(p + 1/2) = 1/3 at p=1
        assert pops == pytest.approx([0, 1 / 3, 1 / 3, 1 / 3])

    def test_gg_population_grows_with_dissipation(self):
        q1, q2 = BlochAngles(0.0), BlochAngles(math.pi / 2, 0.0)
        pop_gg = []
        for p in (1.0, 0.6, 0.2):
            s = post_bsm_projection(q1, q2, math.sqrt(p))
            pop_gg.append(density_matrix(s).matrix[3, 3].real)
        assert pop_gg[0] < pop_gg[1] < pop_gg[2]

    def test_singlet_populations(self):
        q = BlochAngles(math.pi / 2, 0.0)
        s = post_bsm_projection(q, q, 0.7)
        pops = np.diag(density_matrix(s).matrix).real
        assert pops == pytest.approx([0, 0.5, 0.5, 0])

    def test_validation(self):
        with pytest.raises(NonPhysicalInput):
            DensityMatrix4(np.eye(4))  # trace 4
        with pytest.raises(NonPhysicalInput):
            DensityMatrix4(np.diag([0.5, 0.5, 0.5, -0.5]))
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = 1.0  # not Hermitian
        with pytest.raises(NonPhysicalInput):
            DensityMatrix4(m)


class TestConcurrenceWootters:
    def test_singlet(self):
        v = np.array([0, 1, -1, 0]) / math.sqrt(2)
        rho = DensityMatrix4(np.outer(v, v.conj()))
        assert concurrence_wootters(rho) == pytest.approx(1.0)

    def test_product_state(self):
        rho = DensityMatrix4(np.diag([0, 0, 0, 1.0]).astype(complex))
        assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            q1 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            q2 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            s = post_bsm_projection(q1, q2, random_amplitude(rng))
            if s.N < 1e-12:
                continue
            assert abs(
                concurrence_wootters(density_matrix(s)) - concurrence_closed(s)
            ) < 1e-8


def seeded_states():
    """The 300 drawn states that validate's concurrence-oracle checks:
    default_rng(99) drawn one value at a time, (theta1, phi1, theta2, phi2,
    |E|^2, arg E) for each sample."""
    rng = np.random.default_rng(99)
    states = []
    for _ in range(300):
        q1 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        q2 = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        e = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        states.append(post_bsm_projection(q1, q2, e))
    return states


def stack(states):
    return PostBsmState(np.array([s.X for s in states]), np.array([s.Y for s in states]))


class TestBatchedWootters:
    def test_stack_equals_scalar_calls(self):
        states = seeded_states()
        rho = density_matrix(stack(states))
        assert rho.matrix.shape == (len(states), 4, 4)
        scalar = [density_matrix(s) for s in states]
        assert rho.matrix.tobytes() == np.array([r.matrix for r in scalar]).tobytes()
        got = concurrence_wootters(rho)
        assert got.tobytes() == np.array([concurrence_wootters(r) for r in scalar]).tobytes()
        assert concurrence_closed(stack(states)).tobytes() == (
            np.array([concurrence_closed(s) for s in states]).tobytes())

    def test_validate_checks_the_seeded_states_as_one_batch(self, monkeypatch):
        batches = []
        real = validate.density_matrix
        monkeypatch.setattr(validate, "density_matrix", lambda s: batches.append(s) or real(s))
        assert validate.check_concurrence_oracle()[0] <= 1e-8
        # the same draws and the same states, projected as one batch of angles
        (batch,) = batches
        expected = stack(seeded_states())
        assert min(expected.N) > 1e-4  # no draw comes near N = 1e-12: the batch needs no filter
        np.testing.assert_allclose(batch.X[:300], expected.X, rtol=0, atol=4e-16)
        np.testing.assert_allclose(batch.Y[:300], expected.Y, rtol=0, atol=4e-16)
        # then twelve Bell states: identical angles, so Y = 0, down to |E| = 5e-324
        bell = PostBsmState(batch.X[300:], batch.Y[300:])
        assert len(bell.X) == 12 and np.all(bell.Y == 0) and np.min(np.abs(bell.X)) == 5e-324
        assert np.max(np.abs(concurrence_wootters(density_matrix(bell)) - 1)) <= 1e-15

    def test_validate_checks_the_populations_against_the_matrix(self, monkeypatch):
        # populations moved 2e-8 off the matrix diagonal, still summing to 1
        real = validate.density_populations
        monkeypatch.setattr(validate, "density_populations",
                            lambda s: real(s) + [0.0, 2e-8, 0.0, -2e-8])
        worst, bound = validate.check_concurrence_oracle()
        assert worst > bound == 1e-8

    def test_bell_and_product_state_in_one_stack(self):
        v = np.array([0, 1, -1, 0]) / math.sqrt(2)
        rho = DensityMatrix4(np.array([np.outer(v, v), np.diag([0, 0, 0, 1.0])]))
        assert concurrence_wootters(rho) == pytest.approx([1.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("flaw, message", [
        (lambda m: m.__setitem__((0, 1), 1e-9), "not Hermitian"),
        (lambda m: m.__setitem__((3, 3), m[3, 3] + 1e-9), "trace"),
        (lambda m: m.__setitem__(np.s_[:], np.diag([0.5, 0.5, 0.25, -0.25])), "eigenvalue"),
    ])
    def test_one_flawed_matrix_fails_the_stack(self, flaw, message):
        rho = density_matrix(stack(seeded_states()[:20])).matrix.copy()
        flaw(rho[7])
        with pytest.raises(NonPhysicalInput, match=message) as info:
            DensityMatrix4(rho)
        assert "\n" not in str(info.value)


class TestOneVanishingRule:
    """The closed form and the spin-flip route share one ZeroNorm rule, X = Y
    = 0, and the spin-flip route scales X and Y as the closed form does."""

    # (q1, q2, E) and whether X = Y = 0
    CASES = [
        ((math.pi, 0.0), (math.pi, 0.0), 0.5, True),  # both qubits in |g>
        ((1.0, 2.0), (1.0, 2.0), 0.0, True),  # identical angles, E = 0
        ((1.0, 2.0), (1.0, 2.0), 5e-324, False),  # the Bell state, |E| least subnormal
        ((1.0, 2.0), (1.0, 2.0), 1e-200, False),
        ((1.0, 0.0), (1.0, 1e-300), 0.0, False),  # X = 0, |Y| about 1e-300: N underflows
        ((0.4, 1.0), (1.2, 0.3), 0.0, False),  # X = 0, Y normal
        ((0.4, 1.0), (math.pi, 0.0), 0.5, False),  # X = 0 from a ground qubit
        ((0.4, 1.0), (1.2, 0.3), 1e-160, False),  # Y normal, |X|^2 underflows
    ]

    @staticmethod
    def measures():
        return (concurrence_closed, density_populations,
                lambda s: concurrence_wootters(density_matrix(s)))

    @pytest.mark.parametrize("q1, q2, e, vanishes", CASES)
    def test_same_states_raise_zero_norm(self, q1, q2, e, vanishes):
        s = post_bsm_projection(BlochAngles(*q1), BlochAngles(*q2), e)
        assert (s.X == 0 and s.Y == 0) is vanishes
        for measure in self.measures():
            if vanishes:
                with pytest.raises(ZeroNorm):
                    measure(s)
            else:
                assert np.all(np.isfinite(measure(s)))
        # in a batch, the one row decides for the whole batch
        batch = PostBsmState(np.array([0.3 + 0.1j, s.X]), np.array([0.2, s.Y]))
        for measure in self.measures():
            if vanishes:
                with pytest.raises(ZeroNorm):
                    measure(batch)
            else:
                assert np.all(np.isfinite(measure(batch)))

    def test_density_matrix_keeps_its_bits(self):
        # where N and both squares are normal the power-of-two scaling is
        # exact: the unscaled (0, X, -X, Y)/sqrt(N) outer product, bit for bit
        rng = np.random.default_rng(2501)
        n = 4000
        t1, p1, t2, p2 = rng.uniform(0, [math.pi, 2 * math.pi] * 2, (n, 4)).T
        e = 10 ** rng.uniform(-150, 0, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        s = post_bsm_projection(BlochAngles(t1, p1), BlochAngles(t2, p2), e)
        x2, y2 = np.abs(s.X) ** 2, np.abs(s.Y) ** 2
        tiny = np.finfo(float).tiny
        keep = (x2 >= tiny) & (y2 >= tiny) & (s.N >= tiny)
        assert np.count_nonzero(keep) > 3900
        s = PostBsmState(s.X[keep], s.Y[keep])
        x, y = s.X, s.Y
        vec = np.stack([np.zeros_like(x), x, -x, y], axis=-1) / np.sqrt(s.N)[..., None]
        unscaled = vec[..., :, None] * vec[..., None, :].conj()
        assert np.array_equal(density_matrix(s).matrix, unscaled)
        for i in range(0, len(x), 97):  # and the scalar route
            one = PostBsmState(complex(x[i]), complex(y[i]))
            assert np.array_equal(density_matrix(one).matrix, unscaled[i])


class TestClassifyInitialState:
    @pytest.mark.parametrize(
        "q1,q2,expected",
        [
            ((0.0, 0.0), (0.0, 0.0), InitialStateClass.MAXIMALLY_ENTANGLED),
            ((0.0, 1.0), (0.0, 2.5), InitialStateClass.MAXIMALLY_ENTANGLED),
            ((math.pi / 2, 0.3), (math.pi / 2, 0.3), InitialStateClass.MAXIMALLY_ENTANGLED),
            ((math.pi, 0.0), (0.4, 1.0), InitialStateClass.ALWAYS_ZERO),
            ((0.4, 1.0), (math.pi, 0.0), InitialStateClass.ALWAYS_ZERO),
            ((math.pi / 2, 0.0), (math.pi / 4, 0.0), InitialStateClass.GENERIC),
            ((math.pi / 2, math.pi), (math.pi / 4, 0.0), InitialStateClass.GENERIC),
        ],
    )
    def test_cases(self, q1, q2, expected):
        assert classify_initial_state(BlochAngles(*q1), BlochAngles(*q2)) is expected

    def test_maximally_entangled_implies_unit_concurrence(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            theta = rng.uniform(0, math.pi - 0.2)
            phi = rng.uniform(0, 2 * math.pi)
            q = BlochAngles(theta, phi)
            assert classify_initial_state(q, q) is InitialStateClass.MAXIMALLY_ENTANGLED
            for tau_amp in (0.9, 0.5, 0.05):
                s = post_bsm_projection(q, q, tau_amp)
                assert concurrence_closed(s) == pytest.approx(1.0, abs=1e-10)


def random_batch(rng, n):
    return np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))


class TestArrayMeasures:
    """The array route of each closed-form measure against a per-row loop over
    its scalar route, which is the reference."""

    N = 10_000
    MAX_ULP = 4

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(2024)
        e = random_batch(rng, self.N)
        e[:3] = (0.0, 1.0, -1j)  # extremes of the survival probability
        return e

    @pytest.fixture
    def angles(self):
        return BlochAngles(0.9, 0.4), BlochAngles(2.1, 5.0)

    def test_linear_entropy(self, batch):
        got = linear_entropy(0.7, batch)
        ref = np.array([linear_entropy(0.7, e) for e in batch])
        np.testing.assert_array_max_ulp(got, ref, maxulp=self.MAX_ULP)

    def test_average_linear_entropy(self, batch):
        got = average_linear_entropy(batch)
        ref = np.array([average_linear_entropy(e) for e in batch])
        np.testing.assert_array_max_ulp(got, ref, maxulp=self.MAX_ULP)

    def test_projection_and_weight(self, batch, angles):
        s = post_bsm_projection(*angles, batch)
        rows = [post_bsm_projection(*angles, e) for e in batch]
        np.testing.assert_array_max_ulp(s.X.real, [r.X.real for r in rows], maxulp=self.MAX_ULP)
        np.testing.assert_array_max_ulp(s.X.imag, [r.X.imag for r in rows], maxulp=self.MAX_ULP)
        assert all(r.Y == s.Y for r in rows)
        np.testing.assert_array_max_ulp(s.N, [r.N for r in rows], maxulp=self.MAX_ULP)

    def test_concurrence_closed(self, batch, angles):
        got = concurrence_closed(post_bsm_projection(*angles, batch))
        ref = [concurrence_closed(post_bsm_projection(*angles, e)) for e in batch]
        np.testing.assert_array_max_ulp(got, ref, maxulp=self.MAX_ULP)

    def test_density_populations(self, batch, angles):
        # both routes against (0, |X|^2, |X|^2, |Y|^2)/N at 40 digits; they
        # round differently, so each is held to the truth, not to the other
        s = post_bsm_projection(*angles, batch)
        with mpmath.workdps(40):
            y_sq = abs(mpmath.mpc(s.Y)) ** 2
            truth = []
            for x in s.X:
                x_sq = abs(mpmath.mpc(x)) ** 2
                n = 2 * x_sq + y_sq
                truth.append([0.0, float(x_sq / n), float(x_sq / n), float(y_sq / n)])
        got = density_populations(s)
        outer = np.array(
            [np.diag(density_matrix(post_bsm_projection(*angles, e)).matrix).real for e in batch]
        )
        assert got.shape == (self.N, 4)
        np.testing.assert_array_max_ulp(got, truth, maxulp=5)
        np.testing.assert_array_max_ulp(outer, truth, maxulp=5)

    def test_scalar_and_array_bits_on_a_scan_grid(self):
        # the module's promise, on 2 000 amplitudes of one scan: the array
        # routes give the scalar bits
        model = build_amplitude_model(ModelParams(R=10.0, beta=1e-8, Omega=1.5e9))
        batch = amplitude(model, TimeGrid(0.0, 50.0, 2000).taus())
        q1, q2 = BlochAngles(math.pi / 2, 0.3), BlochAngles(math.pi / 4)
        for measure in (lambda e: linear_entropy(q1.theta, e), average_linear_entropy,
                        lambda e: concurrence_closed(post_bsm_projection(q1, q2, e)),
                        lambda e: density_populations(post_bsm_projection(q1, q2, e))):
            ref = np.array([measure(complex(e)) for e in batch])
            assert measure(batch).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1000, 100_001])
    def test_density_populations_equal_stacked_expression(self, angles, n):
        # (2|X|^2, |Y|^2)/N with both moduli scaled by the larger one first
        s = post_bsm_projection(*angles, random_batch(np.random.default_rng(n), n))
        x, y = np.hypot(s.X.real, s.X.imag), abs(s.Y)
        m = np.maximum(x, y)
        a2, b2 = 2 * (x / m) ** 2, (y / m) ** 2
        c, g = a2 / (a2 + b2), b2 / (a2 + b2)
        ref = np.stack([np.zeros_like(c), c / 2, c / 2, g], axis=-1)
        assert np.array_equal(density_populations(s), ref)

    @pytest.mark.parametrize("wrap", [float, np.float64, np.array],
                             ids=["python", "numpy-scalar", "0-d-array"])
    def test_scalar_in_scalar_out(self, angles, wrap):
        assert type(linear_entropy(0.3, wrap(0.6))) is float
        assert type(linear_entropy(wrap(0.3), np.complex128(0.6))) is float
        assert type(average_linear_entropy(wrap(0.6))) is float
        s = post_bsm_projection(*angles, wrap(0.6))
        assert type(s.X) is complex and type(s.Y) is complex and type(s.N) is float
        assert type(concurrence_closed(s)) is float
        assert type(concurrence_wootters(density_matrix(s))) is float
        assert density_populations(s).shape == (4,)
        q = BlochAngles(wrap(0.3), wrap(0.4))
        assert type(q.theta) is float and type(q.phi) is float
        model = build_amplitude_model(ModelParams(R=10.0, beta=1e-8, Omega=1.5e9))
        assert type(amplitude(model, wrap(1.0))) is complex

    def test_array_theta_equals_scalar_calls(self, batch):
        theta = np.r_[0.0, math.pi, np.random.default_rng(5).uniform(0, math.pi, 98)]
        e = batch[:100]
        ref = np.array([linear_entropy(t, x) for t, x in zip(theta, e)])
        assert linear_entropy(theta, e).tobytes() == ref.tobytes()
        assert linear_entropy(theta, e)[1] == 0.0

    def test_vanishing_weight_in_batch_raises(self):
        e = np.array([0.5, 0.3 + 0.1j, 0.9])
        with pytest.raises(ZeroNorm):
            concurrence_closed(post_bsm_projection(BlochAngles(math.pi), BlochAngles(math.pi), e))
        # singlet branch (Y = 0): only the row with E = 0 has a vanishing weight
        q = BlochAngles(math.pi / 2, 0.0)
        state = post_bsm_projection(q, q, np.array([0.5, 0.0, 0.9]))
        with pytest.raises(ZeroNorm):
            concurrence_closed(state)
        with pytest.raises(ZeroNorm):
            density_populations(state)

    @pytest.mark.parametrize("bad", [1 + 1e-6, math.nan, complex(math.nan, 0.1), math.inf])
    def test_bad_amplitude_in_batch_raises(self, bad):
        e = np.array([0.5, bad, 0.9j], dtype=complex)
        q1, q2 = BlochAngles(0.4), BlochAngles(1.2, 0.3)
        for measure in (
            lambda e: linear_entropy(0.3, e),
            average_linear_entropy,
            lambda e: post_bsm_projection(q1, q2, e),
        ):
            with pytest.raises(RangeError):
                measure(e)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.2, math.nan), math.inf, -math.inf])
    def test_non_finite_scalar_amplitude_raises(self, bad):
        with pytest.raises(RangeError):
            linear_entropy(0.3, bad)
        with pytest.raises(RangeError):
            average_linear_entropy(bad)
        with pytest.raises(RangeError):
            post_bsm_projection(BlochAngles(0.4), BlochAngles(1.2, 0.3), bad)

    def test_populations_check_rejects_unnormalised_state(self, monkeypatch):
        # fractions that do not sum to 1 fail the trace condition
        from qubitswap import measures

        monkeypatch.setattr(measures, "_fractions", lambda s: (0.5, 0.9))
        with pytest.raises(NonPhysicalInput):
            density_populations(post_bsm_projection(BlochAngles(0.0), BlochAngles(1.0), 0.5))
