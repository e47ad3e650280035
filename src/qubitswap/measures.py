"""Entanglement measures: subsystem linear entropy, the singlet-projection
Bell measurement on the leaked fields, and two-qubit concurrence (closed form
and spin-flip eigenvalue route).

The closed-form measures take the survival amplitude E as a scalar or as a
numpy array over a time grid, and check a whole array at once.  A scalar E
gives a scalar, an array gives an array of the same shape.  Each formula is
written once; only the primitives below choose between the scalar and the
array operation, and the two agree bit for bit, so an array element equals
the scalar result for the same E.  The concurrence and the populations share
one formula, exact for identical initial states: concurrence 1 at every E != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalInput, RangeError, ZeroNorm

ZERO_NORM_EPS = 1e-30

# Basis order for all 4x4 matrices: |ee>, |eg>, |ge>, |gg>.
_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _abs(z):
    # np.hypot equals scalar abs() bit for bit; np.abs on a complex array does not.
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _sq(x):
    # Scalar x ** 2 calls the C library's pow, and so does np.float_power;
    # numpy's array x ** 2 is x * x, which rounds differently now and then.
    return np.float_power(x, 2) if isinstance(x, np.ndarray) else x**2


def _all(condition) -> bool:
    return bool(np.all(condition)) if isinstance(condition, np.ndarray) else bool(condition)


def _checked_abs_e(E):
    """|E| for every amplitude; rejects non-finite E and |E| above 1 beyond
    round-off."""
    mag = _abs(E)
    if not _all(mag <= 1 + 1e-9):  # also false for NaN
        raise RangeError(f"|E| must be finite and at most 1, got max |E| = {np.max(mag)}")
    return mag


def _survival_probability(E):
    p = _sq(_checked_abs_e(E))
    # |E| may exceed 1 by round-off
    return np.minimum(p, 1.0) if isinstance(p, np.ndarray) else min(p, 1.0)


@dataclass(frozen=True)
class BlochAngles:
    """Polar/azimuthal angles of a qubit's initial pure state on the Bloch
    sphere; theta=0 is the excited state."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0 <= self.theta <= math.pi):
            raise RangeError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise RangeError(f"phi must be finite, got {self.phi}")
        phi = self.phi % (2 * math.pi)
        # a tiny negative phi gives 2pi itself, which would not map to itself
        object.__setattr__(self, "phi", 0.0 if phi == 2 * math.pi else phi)


def linear_entropy(theta: float, E):
    """Linear entropy of one qubit-cavity subsystem.

    Depends on the initial state only through theta (the azimuthal phase drops
    out) and on the dynamics only through the survival probability |E|^2.
    """
    if not (0 <= theta <= math.pi):
        raise RangeError(f"theta must lie in [0, pi], got {theta}")
    p = _survival_probability(E)
    return 2 * (1 - p) * p * math.cos(theta / 2) ** 4


def average_linear_entropy(E):
    """Haar average of the linear entropy over initial qubit states; maximum
    1/6, attained when the survival probability is 1/2."""
    p = _survival_probability(E)
    return (2.0 / 3.0) * (1 - p) * p


def _half_cos_sin(theta: float) -> tuple[float, float]:
    # cos(pi/2) rounds to 6e-17, but a ground-state qubit must contribute an
    # exactly vanishing singlet amplitude.
    if theta == math.pi:
        return 0.0, 1.0
    return math.cos(theta / 2), math.sin(theta / 2)


@dataclass(frozen=True)
class PostBsmState:
    """Amplitude triple of the two-qubit state after the singlet Bell
    measurement: X multiplies (|eg> - |ge>), Y multiplies |gg>, N is the
    (unnormalized) success weight 2|X|^2 + |Y|^2.

    X is a complex scalar, or an array with one entry per amplitude E of a
    batch; Y depends only on the initial angles and is always a scalar.
    """

    X: complex | np.ndarray
    Y: complex

    @property
    def N(self):
        return 2 * _sq(_abs(self.X)) + _sq(abs(self.Y))


def post_bsm_projection(q1: BlochAngles, q2: BlochAngles, E) -> PostBsmState:
    """Project the joint qubit-field state onto the singlet field Bell state.

    Both subsystems share the same survival amplitude E (identical cavities
    and equal velocities); the result is independent of the leaked photons'
    pulse shape by construction.
    """
    _checked_abs_e(E)
    c1, s1 = _half_cos_sin(q1.theta)
    c2, s2 = _half_cos_sin(q2.theta)
    x = c1 * c2 * E
    y = s1 * c2 * np.exp(1j * q1.phi) - s2 * c1 * np.exp(1j * q2.phi)
    return PostBsmState(X=x if isinstance(x, np.ndarray) else complex(x), Y=complex(y))


def _checked_norm(s: PostBsmState):
    n = s.N
    if not _all(n >= ZERO_NORM_EPS):
        raise ZeroNorm("projection has vanishing success probability")
    return n


def _fractions(s: PostBsmState):
    """(2|X|^2, |Y|^2)/N from a = |X|/m, b = |Y|/m, m the larger modulus: the
    denominator 2a^2 + b^2 is at least 1, and Y = 0 gives exactly (1, 0)."""
    a, b = _abs(s.X), abs(s.Y)
    m = np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)
    if not _all(m > 0):
        raise ZeroNorm("projection has vanishing success probability")
    # rebinding a, b and m frees each batch-sized array as soon as it is used
    a, b = a / m, b / m
    a, b = 2 * a * a, b * b
    m = a + b
    return a / m, b / m


def concurrence_closed(s: PostBsmState):
    """Concurrence of the post-measurement pure state: 2|X|^2 / (2|X|^2 + |Y|^2)."""
    return _fractions(s)[0]


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
    """Validated 4x4 two-qubit density matrix in the (ee, eg, ge, gg) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise NonPhysicalInput(f"expected 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise NonPhysicalInput("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise NonPhysicalInput("trace differs from 1 beyond 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise NonPhysicalInput("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", m)


def density_matrix(s: PostBsmState) -> DensityMatrix4:
    """Outer product of the normalized post-measurement amplitude vector
    (0, X, -X, Y)/sqrt(N)."""
    vec = np.array([0, s.X, -s.X, s.Y], dtype=complex) / math.sqrt(_checked_norm(s))
    return DensityMatrix4(np.outer(vec, vec.conj()))


def concurrence_wootters(rho: DensityMatrix4) -> float:
    """Concurrence from the spin-flip spectrum of rho.

    Eigenvalues of rho (sy x sy) rho* (sy x sy) in decreasing order;
    round-off on rank-deficient states can push them slightly negative, so
    they are clamped at -1e-10 before the square roots.
    """
    m = rho.matrix
    spin_flipped = m @ _SYSY @ m.conj() @ _SYSY
    evals = np.linalg.eigvals(spin_flipped).real
    if np.min(evals) < -1e-10:
        raise NonPhysicalInput("spin-flip spectrum has a large negative eigenvalue")
    evals = np.sqrt(np.maximum(evals, 0.0))
    evals[::-1].sort()
    return float(max(0.0, evals[0] - evals[1] - evals[2] - evals[3]))
