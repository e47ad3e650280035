"""Excited-state survival amplitude of a moving qubit in a leaky cavity.

The qubit couples to a Lorentzian continuum; its excited-state amplitude
E(tau) (tau = time in units of the inverse cavity linewidth) obeys a
memory-kernel equation whose Laplace transform reduces to a monic complex
cubic.  The amplitude is then a sum of three exponentials.  An independent
fixed-step ODE integrator over the exactly equivalent three-dimensional
linear system serves as a cross-check and as the fallback when the cubic
roots are (near-)degenerate.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModel, RangeError, StepTooLarge

# Classical-motion regime: velocity ratios at or above this are rejected.
BETA_MAX = 1e-3

# Roots closer than this (relative to the root scale) flag the model degenerate.
DEGENERACY_GAP = 1e-6

# R and beta*Omega above this overflow when squared in the cubic's coefficients.
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless knobs of one cavity-qubit subsystem.

    R      -- vacuum Rabi frequency over cavity linewidth (coupling strength);
              R < 1/sqrt(2) is the weak (monotone-decay) regime, above it the
              dynamics oscillates.
    beta   -- qubit velocity as a fraction of c.
    Omega  -- qubit transition frequency over cavity linewidth.
    """

    R: float
    beta: float
    Omega: float

    def __post_init__(self):
        for name in ("R", "beta", "Omega"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.R > 0):
            raise RangeError(f"R must be positive, got {self.R}")
        if not (self.Omega > 0):
            raise RangeError(f"Omega must be positive, got {self.Omega}")
        if not (0 <= self.beta):
            raise RangeError(f"beta must be non-negative, got {self.beta}")
        if self.beta >= BETA_MAX:
            raise RangeError(
                f"beta={self.beta} is outside the classical-motion regime "
                f"(beta < {BETA_MAX:g} required)"
            )
        if self.R > _SQRT_FLOAT_MAX:
            raise RangeError(f"R={self.R} is too large: R**2/2 overflows")
        if self.beta * self.Omega > _SQRT_FLOAT_MAX:
            raise RangeError(
                f"beta*Omega={self.beta * self.Omega} is too large: its square overflows"
            )

    @property
    def y_plus(self) -> complex:
        return 1 + self.beta * (1 + 1j * self.Omega)

    @property
    def y_minus(self) -> complex:
        return 1 - self.beta * (1 + 1j * self.Omega)


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of the monic characteristic cubic q^3 + a2 q^2 + a1 q + a0."""

    a2: complex
    a1: complex
    a0: complex


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid in scaled time tau.  The default, 1000 points on
    [0, 50], is the window of the published figures."""

    tau_start: float = 0.0
    tau_end: float = 50.0
    n_points: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.tau_start) and math.isfinite(self.tau_end)):
            raise RangeError(
                f"tau bounds must be finite, got [{self.tau_start}, {self.tau_end}]"
            )
        if self.tau_start < 0 or self.tau_end < self.tau_start:
            raise RangeError(
                f"need 0 <= tau_start <= tau_end, got [{self.tau_start}, {self.tau_end}]"
            )
        min_points = 2 if self.tau_end > self.tau_start else 1
        if self.n_points < min_points:
            raise RangeError(
                f"n_points must be >= {min_points} for this span, got {self.n_points}"
            )

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_start, self.tau_end, self.n_points)


def cubic_coefficients(params: ModelParams) -> CubicCoefficients:
    """Characteristic cubic of the Laplace-domain amplitude."""
    yp, ym = params.y_plus, params.y_minus
    half_r2 = params.R**2 / 2
    return CubicCoefficients(a2=2.0 + 0j, a1=yp * ym + half_r2, a0=half_r2 + 0j)


def solve_cubic(c: CubicCoefficients) -> list[complex]:
    """All three roots of the monic cubic, sorted by (Re, Im) ascending.

    Companion-matrix eigenvalues polished with one Newton step; the residual
    bound |p(r)| <= 1e-9 * max(1, |r|^3) is asserted by the test suite rather
    than here.
    """
    roots = np.roots([1.0, c.a2, c.a1, c.a0]).astype(complex)
    polished = []
    for r in roots:
        p = ((r + c.a2) * r + c.a1) * r + c.a0
        dp = (3 * r + 2 * c.a2) * r + c.a1
        if dp != 0:
            r = r - p / dp
        polished.append(complex(r))
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished


@dataclass(frozen=True)
class AmplitudeModel:
    """Three-exponential representation E(tau) = sum_i A_i exp(q_i tau)."""

    params: ModelParams
    roots: tuple[complex, complex, complex]
    weights: tuple[complex, complex, complex]
    degenerate: bool = field(default=False)


def build_amplitude_model(params: ModelParams) -> AmplitudeModel:
    """Solve the cubic and form the residue weights.

    When two roots are closer than DEGENERACY_GAP (relative to the root
    scale) the partial-fraction weights blow up; the model is flagged and
    evaluation must go through ``amplitude_ode_oracle`` instead.
    """
    c = cubic_coefficients(params)
    q = solve_cubic(c)
    scale = max(1.0, max(abs(qi) for qi in q))
    gap = min(abs(q[i] - q[j]) for i in range(3) for j in range(i + 1, 3))
    degenerate = gap < DEGENERACY_GAP * scale

    yp, ym = params.y_plus, params.y_minus
    if degenerate:
        weights = (0j, 0j, 0j)
    else:
        weights = tuple(
            (q[i] + yp) * (q[i] + ym)
            / ((q[i] - q[(i + 1) % 3]) * (q[i] - q[(i + 2) % 3]))
            for i in range(3)
        )
    return AmplitudeModel(
        params=params, roots=tuple(q), weights=weights, degenerate=degenerate
    )


def amplitude(model: AmplitudeModel, tau) -> complex | np.ndarray:
    """E(tau) from the exponential sum.  Accepts a scalar or an array of taus."""
    if model.degenerate:
        raise DegenerateModel(
            "near-degenerate roots: evaluate via amplitude_ode_oracle"
        )
    t = np.asarray(tau, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for a, qi in zip(model.weights, model.roots):
        out += a * np.exp(qi * t)
    if t.ndim == 0:
        return complex(out)
    return out


def closed_form_beta0(R: float, tau: float) -> complex:
    """Static-qubit amplitude: the cubic factors and only the damped-cavity
    quadratic survives.  D = sqrt(1 - 2 R^2), complex in the strong-coupling
    regime; the D -> 0 confluent limit is exp(-tau/2) (1 + tau/2)."""
    if R <= 0:
        raise RangeError("R must be positive")
    if tau < 0:
        raise RangeError("tau must be non-negative")
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


def _rk4_increment(m: np.ndarray, span: float, n_steps: int) -> np.ndarray:
    """T^n - I for the RK4 one-step matrix T of ``s' = m s``, step span/n."""
    a = (span / n_steps) * m
    eye = np.eye(3)
    d = a @ (eye + a @ (eye / 2 + a @ (eye / 6 + a / 24)))  # T - I
    s = np.zeros_like(d)
    while True:
        if n_steps & 1:
            s = s + d + s @ d  # (I + s)(I + d) - I
        n_steps >>= 1
        if not n_steps:
            return s
        d = 2 * d + d @ d  # (I + d)^2 - I


def amplitude_ode_oracle(
    params: ModelParams, grid: TimeGrid, step: float = 1e-3
) -> np.ndarray:
    """Integrate the memory-kernel equation as an equivalent local ODE.

    Splitting the exponential-cosh kernel into its two exponentials turns the
    integro-differential equation into the constant-coefficient linear system

        dE/dtau  = -(R^2/4) (z+ + z-)
        dz+-/dtau =  E - y+- z+-

    with E(0)=1, z(0)=0, i.e. s' = M s for s = (E, z+, z-) and

        M = [[0, -k, -k], [1, -y+, 0], [1, 0, -y-]],   k = R^2/4.

    Classical RK4 with fixed step; sub-steps are shrunk so every grid point
    is hit exactly: a span between grid points takes n = ceil(span/step)
    steps of h = span/n.  Returns E sampled on the grid.

    On a linear system one RK4 step is a matrix.  With A = hM the stages are
    k1 = M s, k2 = M(s + h k1/2), k3 = M(s + h k2/2), k4 = M(s + h k3), so

        s + h (k1 + 2 k2 + 2 k3 + k4)/6 = T s,
        T = I + A + A^2/2 + A^3/6 + A^4/24,

    the degree-4 Taylor polynomial of exp(A) (Moler & Van Loan, SIAM Rev. 45,
    2003).  n steps are T^n, formed by binary powering once per distinct span
    (a linspace grid has only a few), and the grid is then walked with one
    3x3 product per point.  These are the steps a per-step RK4 loop takes
    (the tests keep one as the reference); only the rounding differs.  The
    powers are kept in increment form, D = T - I, squared as
    (I + D)^2 - I = 2D + D^2 and applied as s + D s: A is about
    step*|M| ~ 1e-3, so in I + D the identity would absorb D's low bits, and
    a plain T^n drifts from the loop by up to about 2e-12 where the
    increment form stays within about 1e-14.

    The guard bounds h times the fastest rate of M, taken from the
    parameters so that this route stays independent of the cubic's roots:
    the decay rates |y+-| and the vacuum Rabi rate R/sqrt(2), which the
    oscillating roots approach for large R.
    """
    if step <= 0:
        raise RangeError("step must be positive")
    yp, ym = params.y_plus, params.y_minus
    rate = max(abs(yp), abs(ym), params.R / math.sqrt(2))
    if step * rate > 0.1:
        raise StepTooLarge(
            f"step {step} too large for rate {rate:.3g}; "
            f"need step * max(|y+|, |y-|, R/sqrt(2)) <= 0.1"
        )

    k = params.R**2 / 4
    m = np.array([[0, -k, -k], [1, -yp, 0], [1, 0, -ym]], dtype=complex)
    taus = grid.taus()
    spans = np.diff(taus, prepend=0.0)
    increments = {
        span: _rk4_increment(m, span, max(1, math.ceil(span / step - 1e-12)))
        for span in set(spans[spans > 0].tolist())
    }
    out = np.empty(len(taus), dtype=complex)
    state = np.array([1, 0, 0], dtype=complex)
    for i, span in enumerate(spans.tolist()):
        if span > 0:
            state = state + increments[span] @ state
        out[i] = state[0]
    return out
