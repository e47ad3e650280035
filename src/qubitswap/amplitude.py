"""Excited-state survival amplitude of a moving qubit in a leaky cavity.

The qubit couples to a Lorentzian continuum; its excited-state amplitude
E(tau) (tau = time in units of the inverse cavity linewidth) obeys a
memory-kernel equation whose Laplace transform reduces to a monic complex
cubic.  The amplitude is then a sum of three exponentials at the cubic's
roots, which solve_cubic finds in closed form, so no scan calls LAPACK.  The
exact propagator exp(M tau) of the equivalent three-dimensional linear system
is the independent cross-check, and the route that amplitude and
grid_amplitude take where the cubic's roots are ill-conditioned or overflow.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import RangeError

# Classical-motion regime: velocity ratios at or above this are rejected.
BETA_MAX = 1e-3

# R and beta*Omega above this overflow when squared in the cubic's coefficients.
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)
_PHASE_MAX = 1e-3 / sys.float_info.epsilon  # R*tau/sqrt(2) whose rounding error is 1e-3

_POINTS_PER_ROW = 64  # K, grid points per row of a grid's lattice (see _lattice)
_TAUS_PER_CALL = 1024  # taus per _exp_first call in amplitude(): about 1.2 kB each
_OMEGA = complex(-0.5, math.sqrt(3) / 2)  # a cube root of unity


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

    def taus(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Points lo to hi - 1 of np.linspace's grid, bit for bit, all of them
        by default; hi is clamped to n_points.  np.linspace is arange(n) *
        step + start with its last point set to tau_end."""
        n, div, delta = self.n_points, self.n_points - 1, self.tau_end - self.tau_start
        hi = n if hi is None else min(hi, n)
        step = delta / div if div else 0.0
        y = np.arange(lo, hi, dtype=float)
        if step:
            y *= step
        else:  # one point, or a step that underflowed: numpy divides first
            y /= max(div, 1)
            y *= delta
        y += self.tau_start
        if lo < hi == n > 1:
            y[-1] = self.tau_end
        return y


def _py(x):
    """A 0-d result as a Python float or complex, an array as it is."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def check_phase(R: float, tau_max: float) -> None:
    """RangeError where the phase R*tau_max/sqrt(2) exceeds _PHASE_MAX."""
    if (phase := R * tau_max / math.sqrt(2)) > _PHASE_MAX:
        raise RangeError(f"R*tau_end/sqrt(2) = {phase:.3g} exceeds {_PHASE_MAX:.3g}, where "
                         "the phase of the survival amplitude is uncertain by about 1e-3")


def cubic_coefficients(params: ModelParams) -> tuple[complex, complex, complex]:
    """(a2, a1, a0) of the amplitude's monic cubic q^3 + a2 q^2 + a1 q + a0."""
    yp, ym = params.y_plus, params.y_minus
    half_r2 = params.R**2 / 2
    return 2.0 + 0j, yp * ym + half_r2, half_r2 + 0j


def solve_cubic(c: tuple[complex, complex, complex]) -> list[complex]:
    """All three roots of the cubic c = (a2, a1, a0), sorted by (Re, Im) ascending.

    Closed form for w = q/s, s the power of two at or below max(|a2|, sqrt|a1|,
    cbrt|a0|), so nothing overflows: Cardano's formula (its square root's sign
    taken against cancellation, its cube root real where one is) gives the two
    largest roots, and the product of all three, -a0, the smallest; a real
    cubic's pair is exactly conjugate.  A Newton step on the original cubic polishes each root unless
    it exceeds 1e-8 of the root's scale, as at a near-double root.  From |q| of
    about 1e105 that bound overflows: a residual that overflows too makes the
    root NaN, and the model is flagged.
    """
    a2, a1, a0 = map(complex, c)
    s = math.ldexp(1.0, math.frexp(max(abs(a2), math.sqrt(abs(a1)), abs(a0) ** (1 / 3)))[1] - 1)
    b, c1, c0 = a2 / s, a1 / s / s, a0 / s / s / s  # w^3 + b w^2 + c1 w + c0
    p, q = c1 - b * b / 3, (2 * b * b / 27 - c1 / 3) * b + c0  # t^3 + p t + q, t = w + b/3
    h = cmath.sqrt(q * q / 4 + p * p * p / 27)
    u3 = -(q / 2 + h) if (q.conjugate() * h).real >= 0 else h - q / 2
    u = -((-u3) ** (1 / 3)) if u3.real < 0 else u3 ** (1 / 3)
    w = sorted(((v - p / (3 * v) if v else 0j) - b / 3
                for v in (u, u * _OMEGA, u * _OMEGA.conjugate())), key=abs)
    w[0] = -c0 / (w[1] * w[2]) if w[1] * w[2] else w[0]
    for i, r in enumerate(w):
        r *= s
        p = ((r + a2) * r + a1) * r + a0
        dp = (3 * r + 2 * a2) * r + a1
        if dp != 0 and abs(p) <= 1e-8 * abs(dp) * max(1.0, abs(r)):
            r = r - p / dp
        w[i] = complex(r)
    return sorted(w, key=lambda z: (z.real, z.imag))


@dataclass(frozen=True)
class AmplitudeModel:
    """Three-exponential representation E(tau) = sum_i A_i exp(q_i tau)."""

    params: ModelParams
    roots: tuple[complex, complex, complex]
    weights: tuple[complex, complex, complex]
    degenerate: bool = False


def build_amplitude_model(params: ModelParams) -> AmplitudeModel:
    """Solve the cubic and form the residue weights.

    The weights grow like 1/gap^2 as two roots close, and the analytic
    route's error with their conditioning eps sum|A_i| scale / gap (gap the
    two closest roots' distance, scale the largest root modulus or 1).  When
    that exceeds 1e-12, the gap is 0 or a root or weight is not finite, the
    model is flagged degenerate: amplitude and grid_amplitude then take the
    propagator.  At beta = 0 the conditioning is about 2 eps / R^2, so every
    R below about 0.02 is flagged.
    """
    q = solve_cubic(cubic_coefficients(params))  # non-finite roots flag the model
    scale = max(1.0, max(abs(qi) for qi in q))
    gap = min(abs(q[i] - q[j]) for i in range(3) for j in range(i + 1, 3))
    yp, ym = params.y_plus, params.y_minus
    weights = (0j, 0j, 0j) if gap == 0 else tuple(
        (q[i] + yp) * (q[i] + ym) / ((q[i] - q[(i + 1) % 3]) * (q[i] - q[(i + 2) % 3]))
        for i in range(3))
    degenerate = (gap == 0 or not np.isfinite([*q, *weights]).all()
                  or sys.float_info.epsilon * sum(map(abs, weights)) * scale / gap > 1e-12)
    return AmplitudeModel(
        params=params, roots=tuple(q), weights=weights, degenerate=degenerate
    )


def amplitude(model: AmplitudeModel, tau) -> complex | np.ndarray:
    """E(tau) at a scalar or an array of taus; a flagged model's from exp(M tau)."""
    t = np.asarray(tau, dtype=float)
    if not np.all(t >= 0):  # NaN too; an infinite tau fails the phase bound
        raise RangeError(f"tau must be finite and at least 0, got min tau = {np.min(t)}")
    check_phase(model.params.R, t.max(initial=0.0))
    if model.degenerate:  # e0' exp(M tau) e0, _TAUS_PER_CALL taus at a time
        out, k = np.empty(t.shape, complex), _TAUS_PER_CALL
        for i in range(0, t.size, k):
            out.flat[i:i + k] = _exp_first(model.params, t.flat[i:i + k])[0, 0]
    else:
        # np.multiply keeps a * exp(q t) in that operand order at 16 384 points and more
        out = sum(np.multiply(a, np.exp(qi * t)) for a, qi in zip(model.weights, model.roots))
    return _py(out)


def grid_amplitude(model: AmplitudeModel, grid: TimeGrid) -> Callable[[int, int], np.ndarray]:
    """E at grid points lo..hi-1: _lattice's row A_i exp(q_i t_c), column exp(q_i i h)."""
    if model.degenerate:  # the propagator's points
        return propagator(model.params, grid)
    check_phase(model.params.R, grid.tau_end)
    a, q = np.array(model.weights)[:, None], np.array(model.roots)[:, None]
    return _lattice(grid, lambda t: a * np.exp(q * t), lambda s: np.exp(q * s))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (3, 3, n) stacks of 3x3 matrices, each with the same bits
    whatever else the stack holds: the sum runs along a middle axis, so numpy
    adds the three products in order, elementwise, never pairwise."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _exp_increments(m: np.ndarray, spans) -> np.ndarray:
    """exp(span m) - I for each span, as a (3, 3, len(spans)) stack, by
    scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 2003): the
    degree-17 Taylor series of A = span m / 2^s, with s chosen per span so
    that ||A||_1 <= 1/2, then s squarings.  The powers are kept in increment
    form, D = exp(A) - I, squared as (I + D)^2 - I = 2D + D^2: for a small
    span the identity in I + D would absorb D's low bits."""
    spans = np.asarray(spans, dtype=float)
    s = np.maximum(0, np.frexp(spans * np.abs(m).sum(axis=0).max())[1] + 1)
    a = m[:, :, None] * np.ldexp(spans, -s)
    eye = np.eye(3)[:, :, None]
    p = eye
    for k in range(17, 1, -1):  # Horner: I + A/2 (I + A/3 (... (I + A/17)))
        p = eye + _mul(a, p) / k
    d = _mul(a, p)
    for i in range(s.max(initial=0)):
        d = np.where(s > i, 2 * d + _mul(d, d), d)
    return d


def _exp_first(params: ModelParams, spans) -> np.ndarray:
    """exp(M span) for each span, right in its first row and column (M: see propagator)."""
    g = params.R / 2
    m = np.array([[0, -g, -g], [g, -params.y_plus, 0], [g, 0, -params.y_minus]], dtype=complex)
    inc = _exp_increments(m, spans)
    inc[0, 0] += 1
    return inc


def amplitude_ode_oracle(params: ModelParams, grid: TimeGrid) -> np.ndarray:
    """E on the whole grid from the exact propagator (see propagator)."""
    return propagator(params, grid)(0, grid.n_points)


def propagator(params: ModelParams, grid: TimeGrid) -> Callable[[int, int], np.ndarray]:
    """E at grid points lo..hi-1 from the exact propagator of the memory-kernel equation.

    Splitting the exponential-cosh kernel into its two exponentials gives the
    linear system dE/dtau = -(R^2/4)(z+ + z-), dz+-/dtau = E - y+- z+-, with
    E(0)=1, z(0)=0.  In the balanced state s = (E, g z+, g z-), g = R/2, it
    is s' = M s with

        M = [[0, -g, -g], [g, -y+, 0], [g, 0, -y-]],

    whose Hermitian part diag(0, -Re y+, -Re y-) is negative semidefinite, so
    exp(M tau) is a contraction, and E(tau) = e0' exp(M tau) e0 exactly, with
    no step size.  exp(M (t_c + i h)) = exp(M t_c) exp(M i h) makes E on the
    lattice of _lattice row e0' exp(M t_c) times column exp(M i h) e0.  The
    route reads the parameters, not the cubic's roots, so it is independent
    of the analytic route and holds where those roots coincide.
    """
    check_phase(params.R, grid.tau_end)
    return _lattice(grid, lambda t: _exp_first(params, t)[0], lambda s: _exp_first(params, s)[:, 0])


def _lattice(grid: TimeGrid, row, col) -> Callable[[int, int], np.ndarray]:
    """E at grid points lo..hi-1, any lo < hi: point j = c K + i (K =
    _POINTS_PER_ROW, h the grid step) lies at t_c + i h, t_c = tau_start +
    c K h, and E_j = row(t_c) . col(i h), 3-vectors as (3, len) arrays.  The
    K columns are formed once, and a call forms one row for each row it
    touches.  A point's bits depend on its index alone."""
    k, div = _POINTS_PER_ROW, grid.n_points - 1
    step = (grid.tau_end - grid.tau_start) / div if div else 0.0
    cols = col(np.arange(k) * step)

    def points(lo: int, hi: int) -> np.ndarray:
        c = np.arange(lo // k, -(-hi // k))
        rows = row(c * (k * step) + grid.tau_start)
        # elementwise products of one (rows, K) shape, so a point's bits do not
        # depend on how many rows a call forms; summed in place, two arrays at a time
        e = rows[0][:, None] * cols[0]
        e += rows[1][:, None] * cols[1]
        e += rows[2][:, None] * cols[2]
        return e.reshape(-1)[lo - c[0] * k:hi - c[0] * k]

    return points
