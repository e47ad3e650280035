import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from qubitswap import power
from qubitswap.amplitude import ModelParams, TimeGrid
from qubitswap.errors import RangeError
from qubitswap.measures import BlochAngles, concurrence_closed, post_bsm_projection
from qubitswap.power import (
    MonteCarloSpec,
    _checked_p,
    entangling_power_grid,
    entangling_power_mc,
    entangling_power_mc_grid,
    entangling_power_quadrature,
)
from qubitswap.scenario import ScenarioConfig, run_scan

# Average swapped concurrence at p=1, frozen from a 1e7-sample Monte Carlo
# over the full 4-angle product-state measure (seed 12345).
POWER_AT_UNIT_P = 0.4456144
POWER_AT_UNIT_P_STDERR = 8.85e-5

# P at the double nearest each p, to 40 digits: the closed form evaluated
# with mpmath at 800 digits, which also matches the Bessel form by mpmath
# quadrature to 25 digits at p = 0.3 and 1e-3.  P(1) = 2G - 2 ln 2.
REFERENCE = (
    (1e-300, 4.60166031589546962556401364456238183242e-298),
    (1e-200, 3.066603587232772332966916883055175238269e-198),
    (1e-100, 1.531546858570075295545575874264434388701e-98),
    (1e-40, 6.105128213724569487569044001829390468983e-39),
    (1e-20, 3.03501475639917550640664251269535222052e-19),
    (1e-12, 1.806969373471231632609198625895008680819e-11),
    (1e-06, 8.859364447281005025509961385802832327141e-06),
    (0.001, 0.004259746436637578739549595556287131866898),
    (0.01, 0.02756624248496864647038210788949122235883),
    (0.05, 0.08866879417773253599391304307913739367727),
    (0.1, 0.1390390928911287139634565088831282414679),
    (0.2, 0.2091907933065200107186907956811131695062),
    (0.24999999999999997, 0.2362478958696604222276622578260894938866),
    (0.25, 0.236247895869660436226076674064667998199),
    (0.3, 0.2599405263405457881830016318762846469237),
    (0.4, 0.300075958273994527850965883198754848941),
    (0.6, 0.3617173603150117320169640741556131422704),
    (0.75, 0.3977050258051477763494830148948809094638),
    (0.9, 0.4279223565672317309423422461951424119775),
    (0.99, 0.4439405375954956486459541412946073496434),
    (1.0, 0.4456368272345474112747427869484150853973),
)


def reduced_integrand(theta1: float, theta2: float, p: float):
    """Azimuth-averaged concurrence at fixed polar angles.

    With A = 2 p c1^2 c2^2, B = A + s1^2 c2^2 + c1^2 s2^2, C = 2 s1 c1 s2 c2,
    the phi average of A / (B - C cos phi) is A / sqrt(B^2 - C^2).  The
    B -> C ridge (theta1 = theta2, vanishing |Y| coefficient) gets its
    pointwise limit: 1 where A > 0, else 0.  Vectorized over the angles.
    """
    p = _checked_p(p)
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    c1, c2 = np.cos(t1 / 2), np.cos(t2 / 2)
    a = 2 * p * c1**2 * c2**2
    # cancellation-free: B -+ C = A + sin^2((theta1 -+ theta2)/2)
    b_minus_c = a + np.sin((t1 - t2) / 2) ** 2
    b_plus_c = a + np.sin((t1 + t2) / 2) ** 2
    regular = b_minus_c > 1e-14
    disc = np.where(regular, b_minus_c * b_plus_c, 1.0)
    out = np.where(regular, a / np.sqrt(disc), np.where(a > 0, 1.0, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


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


def rule_1d(p, n: int = 128) -> np.ndarray:
    """Independent 1-D oracle: an n-node Gauss-Legendre rule on the one
    integral left after the elementary ones, for an array of p in (0, 1].

    After the azimuthal integrals (reduced_integrand), with
    x = cos^2(theta1/2) and y = cos^2(theta2/2) both uniform on [0, 1],

        P(p) = 2p int_0^1 x I(x) dx,   I(x) = int_0^1 y dy / sqrt(Q(y)),
        Q = a y^2 + b y + c,   a = (1 - 2x + 2px)^2 + 4x(1 - x),
        b = 2x(2px - 1),   c = x^2,   sqrt(Q(1)) = 1 - x + 2px,
        I = (sqrt(Q(1)) - x)/a - (b/2a) J    (Gradshteyn & Ryzhik 2.261, 2.264),
        J = [asinh((2a + b)/r) - asinh(b/r)] / sqrt(a),

    r = sqrt(4ac - b^2) = 4x sqrt(x) sqrt(2p(1 - x)), where log p enters
    through r alone and 2a + b = 2(1 - x) + 4px(2 - 3x + 2px) does not
    cancel at x -> 1.  The outer integral is Gauss-Legendre in s with x = s^2
    (x I(x) ~ x^2 ln x at x = 0); it reaches rounding by about 24 nodes.
    """
    t, w = leggauss(n)
    s = (t + 1) / 2
    x, wx = s * s, w * s
    one_minus_x = 1 - x
    p = np.asarray(p, dtype=float)[:, None]
    u = one_minus_x - x * (1 - 2 * p)  # sqrt(Q(1)) - x
    a = u * u + 4 * x * one_minus_x
    b = 2 * x * (2 * p * x - 1)
    two_a_plus_b = 2 * one_minus_x + 4 * p * x * (2 - 3 * x + 2 * p * x)
    r = 4 * x * np.sqrt(x) * np.sqrt(2 * p * one_minus_x)
    j = (np.arcsinh(two_a_plus_b / r) - np.arcsinh(b / r)) / np.sqrt(a)
    inner = (u - b / 2 * j) / a
    return 2 * p[:, 0] * np.sum(x * inner * wx, axis=1)


def bessel_form(p: float) -> float:
    """Independent oracle: P = 2p int_0^inf k^3 K1(k)^2 K0(sqrt(2p) k) dk,
    Parseval's theorem for E[p / (p + r)] over the stereographic images of
    the two Bloch vectors, whose density has 2-D Fourier transform |k| K1(|k|).
    Bessel functions from scipy.special, the integral by scipy's QUADPACK."""
    alpha = math.sqrt(2 * p)

    def integrand(k):
        return k**3 * special.k1(k) ** 2 * special.k0(alpha * k)

    value, _ = integrate.quad(integrand, 0, math.inf, epsabs=0, epsrel=1e-13, limit=200)
    return 2 * p * value


def clausen_coefficients(n: int) -> list[Fraction]:
    """a_k = |B_2k| / (2k (2k+1)!), k = 1..n, of
    Cl2(x) = x (1 - ln x + sum_k a_k x^{2k}); B_m from the recurrence
    sum_{i<=m} C(m+1, i) B_i = 0."""
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * n + 1):
        bernoulli.append(-sum(math.comb(m + 1, i) * bernoulli[i] for i in range(m)) / (m + 1))
    return [abs(bernoulli[2 * k]) / (2 * k * math.factorial(2 * k + 1)) for k in range(1, n + 1)]


def series_coefficients(n: int) -> tuple[list[Fraction], list[Fraction]]:
    """r_k and beta_k, k = 1..n, of P(p) = sum_k p^k (r_k + beta_k ln 2p),
    as exact fractions from truncated power series of the closed form.

    With S = asin(sqrt(p/2)) / sqrt(p/2), the Clausen argument is
    C = sqrt(2p) S, so ln C = ln(2p)/2 + ln S and C^2 = 2p S^2, and with
    (2 - p)^{-k} = 2^{-k} (1 - p/2)^{-k} the closed form becomes
    P = A(p) + B(p) ln(2p) with
    A = (1 - p)/(2 - p) + (2p - 1) S (1 - p/2)^{-5/2} (1 - ln S + sum_k a_k C^{2k}) / 2,
    B = -(1 + p)(1 - p/2)^{-2} / 4 - (2p - 1) S (1 - p/2)^{-5/2} / 4,
    a_k from clausen_coefficients, both power series in p with A(0) = B(0) = 0.
    """

    def mul(f, g):
        out = [Fraction(0)] * (n + 1)
        for i, fi in enumerate(f):
            for j in range(n + 1 - i):
                out[i + j] += fi * g[j]
        return out

    def poly(*coeffs):
        return [Fraction(c) for c in coeffs] + [Fraction(0)] * (n + 1 - len(coeffs))

    half = [Fraction(1, 2**k) for k in range(n + 1)]
    s = [Fraction(math.comb(2 * k, k), 4**k * (2 * k + 1)) * half[k] for k in range(n + 1)]
    inv_s = poly(1)  # 1/S, for (ln S)' = S'/S
    for k in range(1, n + 1):
        inv_s[k] = -sum(s[i] * inv_s[k - i] for i in range(1, k + 1))
    d_ln_s = mul([(k + 1) * s[k + 1] for k in range(n)] + [Fraction(0)], inv_s)
    ln_s = [Fraction(0)] + [d_ln_s[k - 1] / k for k in range(1, n + 1)]
    clausen = [c - l for c, l in zip(poly(1), ln_s)]  # 1 - ln S + sum_k a_k C^{2k}
    c_sq, power_k = mul(poly(0, 2), mul(s, s)), poly(1)
    for a_k in clausen_coefficients(n):
        power_k = mul(power_k, c_sq)
        clausen = [c + a_k * q for c, q in zip(clausen, power_k)]
    g52 = [Fraction(1)]  # (1 - p/2)^{-5/2}
    for k in range(1, n + 1):
        g52.append(g52[-1] * (Fraction(3, 2) + k) / (2 * k))
    g2 = [(k + 1) * half[k] for k in range(n + 1)]  # (1 - p/2)^{-2}
    shared = mul(mul(poly(-1, 2), s), g52)
    a = [f / 2 + t / 2 for f, t in zip(mul(poly(1, -1), half), mul(shared, clausen))]
    b = [-f / 4 - t / 4 for f, t in zip(mul(poly(1, 1), g2), shared)]
    assert a[0] == b[0] == 0
    return a[1:], b[1:]


MASK64 = 2**64 - 1


def splitmix64(seed: int, i: int) -> int:
    """Output i of SplitMix64 from seed, in Python ints: counters mod 2^64."""
    z = (seed + ((i & MASK64) + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def uniform_reference(seed: int, lo: int, hi: int) -> list[float]:
    """Outputs lo..hi-1 as doubles in [0, 1): the top 53 bits times 2^-53."""
    return [(splitmix64(seed, i) >> 11) * 2.0**-53 for i in range(lo, hi)]


def mc_draws(spec: MonteCarloSpec) -> np.ndarray:
    """The whole seeded stream in one call: rows c1^2, c2^2, f1 and f2 of
    every sample."""
    return power._uniform(spec.seed, 0, 4 * spec.n_samples).reshape(4, -1)


def mc_reference(p: float, spec: MonteCarloSpec) -> tuple[float, float]:
    """Per-p Monte Carlo loop in complex arithmetic: the Bloch angles of the
    draws, theta = 2 arccos(c) and phi = 2 pi f, and the concurrence
    2|X|^2 / (2|X|^2 + |Y|^2) of the projected state."""
    n = spec.n_samples
    x1, x2, f1, f2 = mc_draws(spec)
    t1, t2 = 2 * np.arccos(np.sqrt(x1)), 2 * np.arccos(np.sqrt(x2))
    c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
    c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
    a = (c1 * c2) ** 2
    y_sq = np.abs(s1 * c2 * np.exp(2j * math.pi * f1) - s2 * c1 * np.exp(2j * math.pi * f2)) ** 2
    denom = 2 * p * a + y_sq

    def concurrences(scale):
        return np.divide(2 * scale * a, denom, out=np.zeros(n), where=denom > 0)

    # the package's scale-safe form: 2^k times the concurrences, the largest
    # in [1/2, 1), so that squares of concurrences of order p do not underflow
    k = -math.frexp(float(concurrences(p).max()))[1]
    conc = concurrences(math.ldexp(p, k))
    stderr = float(conc.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return math.ldexp(float(conc.mean()), -k), math.ldexp(stderr, -k)


def ratios_reference(x1, x2, f1, f2) -> np.ndarray:
    """The package's ratios r = |Y|^2 / (2 (c1 c2)^2) of the given draws."""
    a, b = np.sqrt((1 - x1) * x2), np.sqrt((1 - x2) * x1)
    y_sq = (a - b) ** 2 + 4 * a * b * np.sin(math.pi * (f1 - f2)) ** 2
    two_a = 2 * x1 * x2
    r = np.full(len(x1), math.inf)
    np.divide(y_sq, two_a, out=r, where=two_a > 0)
    return r


def mc_draws_reference(spec: MonteCarloSpec) -> np.ndarray:
    """power._ratios of every block, joined, as one draw of every sample."""
    return ratios_reference(*mc_draws(spec))


def mc_half_angle_reference(p: float, spec: MonteCarloSpec) -> tuple[float, float]:
    """Per-p loop of the package's half-angle arithmetic over the one-shot
    ratios: the concurrence is p / (p + r), scaled by the package's power of
    two, summed by numpy over each block of power._DRAW_BLOCK samples, and
    the block sums added in block order."""
    if p == 0:
        return 0.0, 0.0
    n = spec.n_samples
    r = mc_draws_reference(spec)
    k = min(-math.frexp(p)[1], (1022 - n.bit_length()) // 2)  # 2^k p in [1/2, 1), n 4^k finite
    conc = math.ldexp(p, k) / (p + r)
    blocks = [conc[lo:lo + power._DRAW_BLOCK] for lo in range(0, n, power._DRAW_BLOCK)]
    total = squares = 0.0
    for block in blocks:
        total += float(np.sum(block))
        squares += float(np.sum(block * block))
    if n == 1:
        return math.ldexp(total, -k), 0.0
    sq_dev = max(squares - total * (total / n), 0.0)
    return math.ldexp(total, -k) / n, math.ldexp(math.sqrt(sq_dev / (n - 1)), -k) / math.sqrt(n)


def fix_draws(monkeypatch, x1, x2, f1, f2):
    """Stand the given values in for the seeded stream c1^2 | c2^2 | f1 | f2
    that power._ratios reads (power._uniform)."""
    stream = np.array([x1, x2, f1, f2], dtype=float).ravel()
    assert np.all((0 <= stream) & (stream <= 1))

    def fixed(seed, lo, hi):
        assert 0 <= lo <= hi <= stream.size
        return stream[lo:hi]

    monkeypatch.setattr(power, "_uniform", fixed)


class TestSpecs:
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
    def test_unit_p_matches_frozen_monte_carlo(self):
        val = entangling_power_quadrature(1.0)
        assert abs(val - POWER_AT_UNIT_P) <= 3 * POWER_AT_UNIT_P_STDERR

    def test_positive_for_positive_p(self):
        for p in (1e-4, 0.01, 0.3):
            assert entangling_power_quadrature(p) > 0


class TestOneDimensionalRule:
    """The closed form against the oracles, its pins and its edges."""

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
        assert abs(entangling_power_quadrature(0.5) - 1 / 3) <= 2 * math.ulp(1 / 3)

    def test_unit_p_is_two_catalan_minus_two_ln2(self):
        # P(1) = 2G - 2 ln 2, G Catalan's constant: the 40-digit literal
        two_g_minus_two_ln2 = REFERENCE[-1][1]
        assert REFERENCE[-1][0] == 1.0
        assert abs(entangling_power_quadrature(1.0) - two_g_minus_two_ln2) <= 2 * math.ulp(0.4)

    def test_array_equals_scalar(self):
        switch = power._SERIES_BELOW
        ps = np.concatenate([[0.0, 1e-300, 1e-40, np.nextafter(switch, 0), switch],
                             np.linspace(0.0, 1.0, 301)])
        vals = entangling_power_grid(ps)
        assert vals.shape == ps.shape
        for p, val in zip(ps, vals):
            assert val == entangling_power_quadrature(float(p))
        assert np.array_equal(entangling_power_grid(ps.reshape(2, -1)), vals.reshape(2, -1))
        # a scalar p gives a Python float with the one-element array's bits
        for p in (0.3, *ps[:5]):
            scalar, (one,) = entangling_power_grid(p), entangling_power_grid(np.array([p]))
            assert type(scalar) is float and scalar == one

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



class TestClosedForm:
    """The Clausen form above power._SERIES_BELOW and the series below it."""

    EDGES = [1e-300, 1e-40, 1e-12, 1e-3, float(np.nextafter(0.1, 0)), 0.1,
             float(np.nextafter(0.1, 1)), float(np.nextafter(0.25, 0)), 0.25,
             float(np.nextafter(0.25, 1)), 0.5, 1.0]

    @pytest.mark.parametrize("p,ref", REFERENCE)
    def test_matches_forty_digit_values(self, p, ref):
        assert abs(entangling_power_quadrature(p) - ref) <= 2e-15 * ref

    def test_matches_1d_rule_on_seeded_grid(self):
        rng = np.random.default_rng(20261018)
        ps = np.concatenate([rng.uniform(0, 1, 5000), 10 ** rng.uniform(-300, 0, 5000)])
        ps = ps[ps > 0]
        ref = np.concatenate([rule_1d(block) for block in np.array_split(ps, 20)])
        assert np.all(np.abs(entangling_power_grid(ps) - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("p", EDGES)
    def test_matches_1d_rule_at_edges(self, p):
        ref = rule_1d([p])[0]
        assert abs(entangling_power_quadrature(p) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("p", [1e-12, 1e-3, 0.1, 0.25, 0.5, 1.0])
    def test_matches_bessel_form(self, p):
        ref = bessel_form(p)
        assert abs(entangling_power_quadrature(p) - ref) <= 1e-13 * ref

    def test_bessel_form_pins(self):
        assert bessel_form(1.0) == pytest.approx(REFERENCE[-1][1], rel=1e-14, abs=0)
        assert bessel_form(0.5) == pytest.approx(1 / 3, rel=1e-14, abs=0)

    def test_tables_regenerate_from_exact_series(self):
        r, beta = series_coefficients(len(power._R))
        assert [float(x) for x in r] == list(power._R)
        assert [float(x) for x in beta] == list(power._BETA)
        assert r[:5] == [Fraction(1, 9), Fraction(44, 75), Fraction(786, 1225),
                         Fraction(10496, 19845), Fraction(61340, 160083)]
        assert [float(x) for x in clausen_coefficients(len(power._CL2))] == list(power._CL2)

    def test_truncations_are_below_rounding(self):
        # the first omitted terms of the series at the largest p it serves,
        # and of Cl2(x) / x at the largest x = arccos(1 - p) = pi/2
        n, p = len(power._R), power._SERIES_BELOW
        r, beta = series_coefficients(n + 3)
        tail = sum(abs(r[k] + beta[k] * math.log(2 * p)) * p ** (k + 1) for k in range(n, n + 3))
        assert tail <= 1e-17 * entangling_power_quadrature(p)
        n, x = len(power._CL2), math.pi / 2
        a = clausen_coefficients(n + 3)
        assert sum(a[k] * x ** (2 * k + 2) for k in range(n, n + 3)) <= 1e-17


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
        ps = np.array([0.0, 1e-300, 1e-12, 0.25, 0.3, 0.5, 1.0])
        for spec in (MonteCarloSpec(n_samples=20_000, seed=3), MonteCarloSpec(n_samples=1, seed=3)):
            means, stderrs = entangling_power_mc_grid(ps, spec)
            for p, mean, stderr in zip(ps, means, stderrs):
                ref = mc_half_angle_reference(float(p), spec)
                assert (mean, stderr) == ref
                assert entangling_power_mc(float(p), spec) == ref
                # a scalar p gives Python floats with the one-element array's bits
                scalar = entangling_power_mc_grid(float(p), spec)
                assert [type(x) for x in scalar] == [float, float] and scalar == ref
                (one_mean,), (one_stderr,) = entangling_power_mc_grid(np.array([p]), spec)
                assert scalar == (one_mean, one_stderr)
                mean_only = entangling_power_mc_grid(float(p), spec, stderr=False)
                assert type(mean_only[0]) is float and mean_only == (one_mean, None)

    @pytest.mark.parametrize("seed", [3, 9, 1999951809])
    def test_matches_complex_arithmetic(self, seed):
        # same draws as the complex-exponential form; only rounding differs
        spec = MonteCarloSpec(n_samples=50_000, seed=seed)
        ps = [1e-300, 1e-12, 1e-3, 0.25, 0.5, 1.0]
        for p, mean, stderr in zip(ps, *entangling_power_mc_grid(np.array(ps), spec)):
            ref_mean, ref_stderr = mc_reference(p, spec)
            assert abs(mean - ref_mean) <= 1e-12 * ref_mean
            assert abs(stderr - ref_stderr) <= 1e-9 * ref_stderr

    @pytest.mark.parametrize("seed", [1, 9])
    def test_stderr_scales_with_tiny_p(self, seed):
        # the concurrence is p / (p + r) -> p / r, so stderr / p settles as
        # p -> 0; unscaled squares of the concurrences underflowed to a
        # standard error of exactly 0 below p of about 1e-165
        spec = MonteCarloSpec(n_samples=100_000, seed=seed)
        ps = np.array([1e-100, 1e-200, 1e-300])
        means, stderrs = entangling_power_mc_grid(ps, spec)
        ratios = stderrs / ps
        assert ratios[0] > 0.1
        assert ratios[1:] == pytest.approx(ratios[0], rel=1e-12, abs=0)
        assert means / ps == pytest.approx(means[0] / ps[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("u1,u2,ph1,ph2,ridge", [
        # the draws c1^2, c2^2, phi1/2pi and phi2/2pi of each sample:
        # A = 0 (c^2 = 0 on either side, or both), then the ridge |Y| = 0
        ([0, 0.65, 0, 1, 0, 1, 0.6], [0.65, 0, 0, 0, 1, 1, 0.6],
         [0.02, 0.3, 0.15, 0, 0.5, 0.08, 0.27], [0.3, 0.02, 0.15, 0.5, 0, 0.08, 0.27], 2),
        ([0, 0, 0.75], [0, 0.75, 0], [0.15, 0.3, 0.5], [0.15, 0.6, 0.8], 0),
        ([0.85] * 3, [0.85] * 3, [0.4] * 3, [0.4] * 3, 3),
        ([0], [0.7], [0.15], [0.3], 0),
    ])
    def test_degenerate_samples(self, monkeypatch, u1, u2, ph1, ph2, ridge):
        fix_draws(monkeypatch, u1, u2, ph1, ph2)
        n = len(u1)
        ps = np.array([0.0, 1e-300, 1e-12, 0.5, 1.0])
        means, stderrs = entangling_power_mc_grid(ps, MonteCarloSpec(n_samples=n))
        assert means[0] == 0.0 and stderrs[0] == 0.0
        assert np.all(np.isfinite(means)) and np.all((means >= 0) & (means <= 1))
        assert np.all(np.isfinite(stderrs)) and np.all(stderrs >= 0)
        # every sample is on the ridge (concurrence 1) or has A = 0 (concurrence 0)
        assert np.all(means[1:] == ridge / n)

    @pytest.mark.parametrize("value", [0.4, 0.45, 0.7, 0.9])
    def test_equal_samples_have_zero_stderr(self, monkeypatch, value):
        # c1^2 = c2^2 = 1/2 gives A = 1/4 and |Y|^2 = sin^2(d/2), so
        # r = 2 sin^2(d/2) and p = 1 makes the concurrence 1/(1 + r) = value
        # in every sample; d = 2 pi f1 with f2 = 0
        f = math.asin(math.sqrt((1 / value - 1) / 2)) / math.pi
        fix_draws(monkeypatch, [0.5] * 3, [0.5] * 3, [f] * 3, [0.0] * 3)
        mean, stderr = entangling_power_mc(1.0, MonteCarloSpec(n_samples=3))
        assert mean == pytest.approx(value, rel=1e-14) and 0 <= stderr < 1e-8

    def test_degenerate_samples_across_block_edges(self, monkeypatch):
        # the first case of test_degenerate_samples, drawn two samples a block
        monkeypatch.setattr(power, "_DRAW_BLOCK", 2)
        self.test_degenerate_samples(
            monkeypatch, [0, 0.65, 0, 1, 0, 1, 0.6], [0.65, 0, 0, 0, 1, 1, 0.6],
            [0.02, 0.3, 0.15, 0, 0.5, 0.08, 0.27], [0.3, 0.02, 0.15, 0.5, 0, 0.08, 0.27], 2)

    @pytest.mark.parametrize("seed", [0, 4, 2**64 - 1])
    @pytest.mark.parametrize("n", sorted({
        1, power._DRAW_BLOCK - 1, power._DRAW_BLOCK, power._DRAW_BLOCK + 1,
        2 * power._DRAW_BLOCK + 1, 16_383, 16_384, 16_385, 32_769, 200_000, 1_000_003}))
    def test_blocked_draws_equal_one_shot_draw(self, seed, n):
        # each block's draws are its slices of the four parts of the one
        # seeded stream, and every operation on them is elementwise
        spec, block = MonteCarloSpec(n_samples=n, seed=seed), power._DRAW_BLOCK
        blocks = [power._ratios(spec, lo, min(lo + block, n)) for lo in range(0, n, block)]
        assert np.concatenate(blocks).tobytes() == mc_draws_reference(spec).tobytes()

    def test_peak_is_one_block_and_its_sums(self):
        # one draw block's temporaries, or one 8 x 8192 chunk and two running
        # sums a p: about 1.1 MB; holding r and the concurrences of all
        # samples peaked at about 17 MB, drawing them all at once at 112 MB
        entangling_power_mc_grid(0.5, MonteCarloSpec(10))  # numpy's one-time allocations
        tracemalloc.start()
        try:
            entangling_power_mc_grid(np.linspace(0.01, 1, 17), MonteCarloSpec(1_000_000, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_mean_alone_keeps_the_bits(self):
        # 36 positive p values, chunks of 8 and 4, over 3 blocks of draws:
        # skipping the sums of squares changes no mean
        spec = MonteCarloSpec(n_samples=2 * power._DRAW_BLOCK + 5, seed=8)
        ps = np.linspace(0.0, 1.0, 37)
        means = entangling_power_mc_grid(ps, spec)[0]
        assert entangling_power_mc_grid(ps, spec, stderr=False)[0].tobytes() == means.tobytes()

    def test_each_sample_drawn_once_a_call(self, monkeypatch):
        # 600 p values against 1024 blocks of one sample, more block sums
        # than 2^19: still one draw of each of the stream's 4 x 1024 outputs
        monkeypatch.setattr(power, "_DRAW_BLOCK", 1)
        monkeypatch.setattr(power, "_P_CHUNK", 256)
        uniform, drawn = power._uniform, []
        monkeypatch.setattr(power, "_uniform",
                            lambda seed, lo, hi: drawn.append((seed, lo, hi)) or uniform(seed, lo, hi))
        ratios, blocks = power._ratios, []
        monkeypatch.setattr(power, "_ratios",
                            lambda spec, lo, hi: blocks.append((lo, hi)) or ratios(spec, lo, hi))
        spec = MonteCarloSpec(n_samples=1024, seed=6)
        ps = np.linspace(0.0, 1.0, 600)
        means, stderrs = entangling_power_mc_grid(ps, spec)
        assert blocks == [(lo, lo + 1) for lo in range(1024)]
        assert sorted(drawn) == [(6, i, i + 1) for i in range(4 * 1024)]
        for p, mean, stderr in list(zip(ps, means, stderrs))[::150]:
            assert (mean, stderr) == mc_half_angle_reference(float(p), spec)

    def test_python_reference_matches_published_outputs(self):
        # SplitMix64's first outputs from seed 1234567, as its reference
        # implementation gives them
        assert [splitmix64(1234567, i) for i in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    @pytest.mark.parametrize("seed", [0, 4, 2**64 - 1])
    def test_sampler_bits_match_python_reference(self, seed):
        # the four parts of a stream of n samples, at their block edges,
        # drawn and turned into ratios: numpy's uint64 arithmetic wraps
        # silently, as the Python ints do under the mask
        n, block = 2 * power._DRAW_BLOCK + 5, power._DRAW_BLOCK
        spec = MonteCarloSpec(n_samples=n, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in [(0, 3), (block - 2, block + 2), (2 * block - 1, n), (n - 1, n)]:
                parts = [uniform_reference(seed, k * n + lo, k * n + hi) for k in range(4)]
                for k, part in enumerate(parts):
                    assert power._uniform(seed, k * n + lo, k * n + hi).tolist() == part
                ref = ratios_reference(*np.array(parts))
                assert power._ratios(spec, lo, hi).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", [0, 4, 2**64 - 1])
    def test_sampler_counters_wrap(self, seed):
        # counters are taken mod 2^64: outputs 2^64 - 2 .. 2^64 + 2 are
        # outputs 2^64 - 2, 2^64 - 1, 0, 1 and 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = power._uniform(seed, 2**64 - 2, 2**64 + 3)
            assert drawn[2:].tolist() == power._uniform(seed, 0, 3).tolist()
        assert drawn.tolist() == uniform_reference(seed, 2**64 - 2, 2**64 + 3)
        assert np.all((drawn >= 0) & (drawn < 1))

    @pytest.mark.parametrize("n,expected", [
        (power._DRAW_BLOCK - 1, [
            6.861695387820875e-300, 6.8616953725984046e-12, 0.004251988636358429,
            0.08636155941336986, 0.17006109111203616, 0.22642926018016177, 0.26984841295020706,
            0.3053309718597636, 0.33535725542055356, 0.36136956741363296, 0.3842919163598872,
            0.4047563600442551, 0.4232163446378385, 0.4400092211882383]),
        (power._DRAW_BLOCK, [
            5.460314422710058e-299, 5.460312455698016e-11, 0.0041612358598736845,
            0.08550450424644386, 0.16859508468784812, 0.22451403180544677, 0.26760718029990105,
            0.3028484577961662, 0.3326936188881944, 0.35856896272448957, 0.3813876022879325,
            0.40177389911013917, 0.4201757010610854, 0.4369261895230331]),
        (power._DRAW_BLOCK + 1, [
            4.7689552245652976e-300, 4.768955222499409e-12, 0.0038728283479073553,
            0.08660007382177681, 0.1710900416755159, 0.2277816608247339, 0.27137915602508567,
            0.30697483592054253, 0.3370783202498145, 0.36314534446260494, 0.38610707160582464,
            0.4065998110834547, 0.4250797517496543, 0.44188612728862553]),
    ])
    def test_means_at_block_edges(self, n, expected):
        # 14 p values, chunks of 8 and 6, against one or two blocks of draws
        ps = np.concatenate([[1e-300, 1e-12, 1e-3], np.linspace(0.05, 1, 11)])
        means, stderrs = entangling_power_mc_grid(ps, MonteCarloSpec(n_samples=n, seed=11), False)
        assert means.tolist() == expected and stderrs is None


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
