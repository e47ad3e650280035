"""Entanglement measures: subsystem linear entropy, the singlet-projection
Bell measurement on the leaked fields, and two-qubit concurrence (closed form
and spin-flip eigenvalue route).

Every input goes through numpy, a scalar as a 0-d array, so each formula is
one array expression.  A scalar E (Python, numpy or 0-d) gives a Python float
or complex; an array E over a time grid, checked whole, gives an array of its
shape whose every element has the scalar result's bits.  linear_entropy also
takes an array of theta.  The concurrence and the populations share one
formula, exact for identical initial states: concurrence 1 at every E, 0 too.
The spin-flip route stacks matrices scaled alike; two qubits in |g> are ZeroNorm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import _py
from .errors import NonPhysicalInput, RangeError, ZeroNorm

# Basis order for all 4x4 matrices: |ee>, |eg>, |ge>, |gg>.  sigma_y x sigma_y
# maps basis state i to state 3 - i with sign s_i, s = (-1, 1, 1, -1).
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


def _abs(z):
    # np.hypot equals Python's abs() bit for bit; np.abs on a complex array does not.
    return np.hypot(z.real, z.imag)


def _pow(x, n):
    # np.float_power is the C library's pow, as Python's x ** n is; numpy's own
    # x ** 2 (x * x) and x ** 4 round differently now and then.
    return np.float_power(x, n)


def _checked_abs_e(E):
    """|E| for every amplitude; rejects non-finite E and |E| above 1 beyond
    round-off."""
    mag = _abs(E)
    if not np.all(mag <= 1 + 1e-9):  # also false for NaN
        raise RangeError(f"|E| must be finite and at most 1, got max |E| = {np.max(mag)}")
    return mag


def survival_probability(E):
    """|E|^2, clipped to 1 where |E| exceeds 1 by round-off; a non-finite E,
    or |E| above 1 beyond round-off, raises RangeError."""
    return _py(np.minimum(_pow(_checked_abs_e(E), 2), 1.0))


@dataclass(frozen=True)
class BlochAngles:
    """Polar/azimuthal angles of a qubit's initial pure state on the Bloch
    sphere; theta=0 is the excited state.  Arrays of angles, one pair per
    state, make a batch."""

    theta: float | np.ndarray
    phi: float | np.ndarray = 0.0

    def __post_init__(self):
        if not np.all((0 <= self.theta) & (self.theta <= math.pi)):
            raise RangeError(f"theta must lie in [0, pi], got {self.theta}")
        if not np.all(np.isfinite(self.phi)):
            raise RangeError(f"phi must be finite, got {self.phi}")
        phi = self.phi % (2 * math.pi)
        # a tiny negative phi gives 2pi itself, which would not map to itself
        phi = np.where(phi == 2 * math.pi, 0.0, phi)
        object.__setattr__(self, "theta", _py(self.theta))
        object.__setattr__(self, "phi", _py(phi))


def linear_entropy(theta, E):
    """Linear entropy of one qubit-cavity subsystem, at one theta or an array.

    Depends on the initial state only through theta (the azimuthal phase drops
    out) and on the dynamics only through the survival probability |E|^2.
    """
    c = _half_cos_sin(BlochAngles(theta).theta)[0]
    p = survival_probability(E)
    return _py(2 * (1 - p) * p * _pow(c, 4))


def average_linear_entropy(E):
    """Haar average of the linear entropy over initial qubit states; maximum
    1/6, attained when the survival probability is 1/2."""
    p = survival_probability(E)
    return _py((2.0 / 3.0) * (1 - p) * p)


def _half_cos_sin(theta):
    # cos(pi/2) rounds to 6e-17, but a ground-state qubit must contribute an
    # exactly vanishing singlet amplitude.
    ground = theta == math.pi
    return np.where(ground, 0.0, np.cos(theta / 2)), np.where(ground, 1.0, np.sin(theta / 2))


@dataclass(frozen=True)
class PostBsmState:
    """Amplitude triple of the two-qubit state after the singlet Bell
    measurement: X multiplies (|eg> - |ge>), Y multiplies |gg>, N is the
    (unnormalized) success weight 2|X|^2 + |Y|^2.

    X is a complex scalar, or an array with one entry per amplitude E of a
    batch; Y depends only on the initial angles, and is an array only for a
    batch of angles.
    """

    X: complex | np.ndarray
    Y: complex | np.ndarray

    @property
    def N(self):
        return _py(2 * _pow(_abs(self.X), 2) + _pow(_abs(self.Y), 2))


def post_bsm_projection(q1: BlochAngles, q2: BlochAngles, E) -> PostBsmState:
    """Project the joint qubit-field state onto the singlet field Bell state.

    Both subsystems share the same survival amplitude E (identical cavities
    and equal velocities); the result is independent of the leaked photons'
    pulse shape by construction.  Two qubits in |g> give X = Y = 0 at every E: ZeroNorm.
    """
    _checked_abs_e(E)
    c1, s1 = _half_cos_sin(q1.theta)
    c2, s2 = _half_cos_sin(q2.theta)
    if np.any((c1 == 0) & (c2 == 0)):
        raise ZeroNorm("both qubits start in |g>: the projection never succeeds")
    x = c1 * c2 * np.asarray(E, dtype=complex)
    y = s1 * c2 * np.exp(1j * q1.phi) - s2 * c1 * np.exp(1j * q2.phi)
    return PostBsmState(_py(x), _py(y))


def _moduli(s: PostBsmState):
    """|X|, |Y| and m > 0, the larger of the two, with |X| read as 1 wherever
    Y = 0: there the swapped state is the singlet at every X != 0, and so
    also in its limit X -> 0, where E underflows."""
    b = _abs(s.Y)
    a = np.where(b == 0, 1.0, _abs(s.X))
    return a, b, np.maximum(a, b)


def _fractions(s: PostBsmState):
    """(2|X|^2, |Y|^2)/N from a = |X|/m, b = |Y|/m, m the larger modulus: the
    denominator 2a^2 + b^2 is at least 1, and Y = 0 gives exactly (1, 0)."""
    a, b, m = _moduli(s)
    # rebinding a, b and m frees each batch-sized array as soon as it is used
    a, b = a / m, b / m
    a, b = 2 * a * a, b * b
    m = a + b
    return a / m, b / m


def concurrence_closed(s: PostBsmState):
    """Concurrence of the post-measurement pure state: 2|X|^2 / (2|X|^2 + |Y|^2)."""
    return _py(_fractions(s)[0])


def density_populations(s: PostBsmState) -> np.ndarray:
    """Diagonal of the post-measurement density matrix, (0, |X|^2, |X|^2,
    |Y|^2)/N, with one row of four per entry of a batched state; their summing
    to 1 within 1e-12 is the trace condition DensityMatrix4 checks."""
    c, g = _fractions(s)
    pops = np.zeros((*np.shape(c), 4))
    pops[..., 1] = pops[..., 2] = c / 2
    pops[..., 3] = g
    if not np.all(np.abs(pops.sum(axis=-1) - 1) <= 1e-12):
        raise NonPhysicalInput("populations do not sum to 1 within 1e-12")
    return pops


@dataclass(frozen=True)
class DensityMatrix4:
    """Validated 4x4 two-qubit density matrix in the (ee, eg, ge, gg) basis,
    or an (n, 4, 4) stack of them, each checked."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (4, 4) or m.ndim not in (2, 3):
            raise NonPhysicalInput(f"expected 4x4 matrices, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > 1e-12:
            raise NonPhysicalInput("matrix is not Hermitian within 1e-12")
        if np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1)) > 1e-12:
            raise NonPhysicalInput("trace differs from 1 beyond 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise NonPhysicalInput("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", m)


def density_matrix(s: PostBsmState) -> DensityMatrix4:
    """Outer product of (0, X, -X, Y)/sqrt(N), one matrix per batch entry, with X and Y
    first scaled exactly by a power of two to max(|X|, |Y|) in [1/2, 1): N cannot underflow."""
    e = -np.frexp(_moduli(s)[2])[1]
    x, y = np.broadcast_arrays(np.asarray(s.X, dtype=complex), s.Y)
    x = np.where(y == 0, 1, x)  # the singlet, (0, 1, -1, 0)/sqrt(2), where Y = 0 (see _moduli)
    vec = np.stack([np.zeros_like(x), x, -x, y], axis=-1)
    np.ldexp(vec.view(float), e[..., None], out=vec.view(float))  # real and imaginary parts
    vec /= np.sqrt(2 * _pow(_abs(vec[..., 1]), 2) + _pow(_abs(vec[..., 3]), 2))[..., None]
    return DensityMatrix4(vec[..., :, None] * vec[..., None, :].conj())


def concurrence_wootters(rho: DensityMatrix4):
    """Concurrence from the spin-flip spectrum of rho: a float, or an array
    with one entry per matrix of a stack.

    Eigenvalues of rho rho~ in decreasing order, rho~ = (sy x sy) rho* (sy x sy)
    written out as s_i s_j rho*_(3-i)(3-j), the product summed along a middle
    axis as amplitude._mul does; round-off on rank-deficient states can push
    them slightly negative, so they are clamped at -1e-10 before the square roots.
    """
    m = rho.matrix
    flipped = m.conj()[..., ::-1, ::-1] * _FLIP_SIGNS
    evals = np.linalg.eigvals((m[..., :, :, None] * flipped[..., None, :, :]).sum(axis=-2)).real
    if np.min(evals) < -1e-10:
        raise NonPhysicalInput("spin-flip spectrum has a large negative eigenvalue")
    e = np.sort(np.sqrt(np.maximum(evals, 0.0)), axis=-1)[..., ::-1]
    c = e[..., 0] - e[..., 1] - e[..., 2] - e[..., 3]
    c = np.where(c > 0, c, 0.0)  # max(0, c), with a NaN giving 0
    return _py(c)
