"""Entangling power: the swapped concurrence averaged over all product
initial states under the Haar measure.

It depends on the dynamics only through p = |E|^2.  After the elementary
azimuthal integrals (reduced_integrand in tests/test_power.py), with
x = cos^2(theta1/2) and y = cos^2(theta2/2) both uniform on [0, 1],

    P(p) = 2p int_0^1 x I(x) dx,   I(x) = int_0^1 y dy / sqrt(Q(y)),
    Q = a y^2 + b y + c,   a = (1 - 2x + 2px)^2 + 4x(1 - x),
    b = 2x(2px - 1),   c = x^2,   sqrt(Q(1)) = 1 - x + 2px,
    I = (sqrt(Q(1)) - x)/a - (b/2a) J    (Gradshteyn & Ryzhik 2.261, 2.264),
    J = ln[(2 sqrt(a) sqrt(Q(1)) + 2a + b) / (2x(sqrt(a) - 1 + 2px))] / sqrt(a).

With sqrt(a) - 1 = 4px(1 - 2x + px)/(sqrt(a) + 1) that log is stable at small
p, but it is still 0/0 as x -> 1 for p < 1/2 and overflows near p = 1e-300.
The code evaluates the equal J = [asinh((2a + b)/r) - asinh(b/r)] / sqrt(a),
r = sqrt(4ac - b^2) = 4x sqrt(x) sqrt(2p(1 - x)), where log p enters through
r alone and 2a + b = 2(1 - x) + 4px(2 - 3x + 2px) does not cancel at x -> 1.
The outer integral is Gauss-Legendre in s with x = s^2 (x I(x) ~ x^2 ln x at
x = 0); it reaches rounding for every p in (0, 1] by 24 nodes.  Seeded Monte
Carlo over the full 4-angle measure is the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NotConverged, RangeError

_BLOCK = 128  # p values per pass: (p, node) temporaries hold 128 x 2n floats
# leggauss(n) takes O(n^2) memory and O(n^3) time, and the rule reaches
# rounding by 24 nodes
MAX_QUAD_NODES = 512


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count of the coarse Gauss-Legendre rule on the one remaining
    axis, at most MAX_QUAD_NODES (the fine rule has twice as many), and the
    largest accepted relative difference between the two rules' values."""

    nodes_per_axis: int = 64
    rel_tolerance: float = 1e-9

    def __post_init__(self):
        if not 16 <= self.nodes_per_axis <= MAX_QUAD_NODES:
            raise RangeError(f"nodes_per_axis must lie in [16, {MAX_QUAD_NODES}]")
        if not self.rel_tolerance >= 1e-10:  # also rejects NaN
            raise RangeError("rel_tolerance must be >= 1e-10")


@dataclass(frozen=True)
class MonteCarloSpec:
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise RangeError("n_samples must be positive")
        if not (0 <= self.seed < 2**64):
            raise RangeError("seed must fit in 64 bits")


def _checked_p(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):  # also rejects NaN
        raise RangeError("p must lie in [0, 1]")
    return p


@lru_cache(maxsize=16)
def _nodes(n: int):
    """x = s^2 and the dx weights of n Gauss-Legendre nodes s in (0, 1)."""
    t, w = leggauss(n)
    s = (t + 1) / 2
    return s * s, w * s


def _rule(p: np.ndarray, n: int) -> np.ndarray:
    """n-node value of P for a 1-D array of p in (0, 1]."""
    x, wx = _nodes(n)
    one_minus_x = 1 - x
    p = p[:, None]
    u = one_minus_x - x * (1 - 2 * p)  # sqrt(Q(1)) - x
    a = u * u + 4 * x * one_minus_x
    b = 2 * x * (2 * p * x - 1)
    two_a_plus_b = 2 * one_minus_x + 4 * p * x * (2 - 3 * x + 2 * p * x)
    r = 4 * x * np.sqrt(x) * np.sqrt(2 * p * one_minus_x)
    j = (np.arcsinh(two_a_plus_b / r) - np.arcsinh(b / r)) / np.sqrt(a)
    inner = (u - b / 2 * j) / a
    # a row sum, unlike a BLAS matrix product, gives each p the same bits in any block
    return 2 * p[:, 0] * np.sum(x * inner * wx, axis=1)


def entangling_power_grid(p, spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Deterministic entangling power for an array of survival probabilities.

    Each p is integrated with spec.nodes_per_axis and twice as many nodes;
    the finer value is returned when the two agree to spec.rel_tolerance
    relative, else NotConverged is raised.  Exactly 0.0 where p = 0."""
    p = _checked_p(p)
    flat = p.ravel()
    out = np.zeros(flat.shape)
    live = np.flatnonzero(flat > 0)
    n = spec.nodes_per_axis
    for start in range(0, len(live), _BLOCK):
        idx = live[start:start + _BLOCK]
        coarse, fine = _rule(flat[idx], n), _rule(flat[idx], 2 * n)
        bad = ~(np.abs(fine - coarse) <= spec.rel_tolerance * np.abs(fine))
        if bad.any():
            raise NotConverged(f"quadrature for p={flat[idx][bad][0]} did not converge "
                               f"to {spec.rel_tolerance} between {n} and {2 * n} nodes")
        out[idx] = np.clip(fine, 0.0, 1.0)
    return out.reshape(p.shape)


def entangling_power_quadrature(p: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Deterministic entangling power at one survival probability p."""
    return float(entangling_power_grid(p, spec))


def entangling_power_mc_grid(p, spec: MonteCarloSpec) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo (mean, standard error) arrays of p's shape.

    u = cos(theta) uniform on [-1, 1] and phi uniform on [0, 2pi) are drawn
    for both qubits once, seeded (u1, u2, then phi1, phi2), and the
    closed-form concurrence 2|X|^2 / (2|X|^2 + |Y|^2) of post_bsm_projection
    is averaged over them at every p.  With theta in [0, pi] the half angles
    need no trigonometry: c = cos(theta/2) = sqrt((1 + u)/2) and
    s = sin(theta/2) = sqrt((1 - u)/2).  Then |X|^2 = p A with A = (c1 c2)^2,
    and with a = s1 c2, b = s2 c1, d = phi1 - phi2,

        |Y|^2 = |a e^{i phi1} - b e^{i phi2}|^2 = a^2 + b^2 - 2ab cos d
              = (a - b)^2 + 4ab sin^2(d/2),

    a sum of two non-negative terms, so no more cancellation than in the
    complex difference.  Dividing through by 2A, the concurrence is
    p / (p + r) with r = |Y|^2 / (2A) fixed by the draws: r = +inf where
    A = 0 (concurrence 0) and r = 0 on the ridge |Y| = 0 (concurrence 1).
    Each p then costs one add and one divide per sample.  The mean is
    numpy's pairwise sum over n; the standard error takes the sum of squares
    from einsum, never BLAS, so neither depends on thread counts.  Both sum
    the concurrences times 2^k, with k putting the largest, p / (p + min r),
    in [1/2, 1), and scale back exactly: squares of concurrences of order p
    underflow below p of about 1e-160, and the scaled ones do not overflow
    even on the ridge.  Exactly (0.0, 0.0) where p = 0."""
    p = _checked_p(p)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    u1, u2 = rng.uniform(-1, 1, (2, n))
    ph1, ph2 = rng.uniform(0, 2 * math.pi, (2, n))
    c1, s1 = np.sqrt((1 + u1) / 2), np.sqrt((1 - u1) / 2)
    c2, s2 = np.sqrt((1 + u2) / 2), np.sqrt((1 - u2) / 2)
    a, b = s1 * c2, s2 * c1
    y_sq = (a - b) ** 2 + 4 * a * b * np.sin((ph1 - ph2) / 2) ** 2
    two_c1c2_sq = 2 * (c1 * c2) ** 2
    r = np.full(n, math.inf)
    np.divide(y_sq, two_c1c2_sq, out=r, where=two_c1c2_sq > 0)

    means, stderrs = np.zeros(p.shape), np.zeros(p.shape)
    conc = np.empty(n)
    r_min = float(r.min())
    for i, pi in enumerate(p.flat):
        if pi == 0:  # 0/(0 + 0) on the ridge
            continue
        k = -math.frexp(pi / (pi + r_min))[1]
        np.add(r, pi, out=conc)
        np.divide(math.ldexp(pi, k), conc, out=conc)
        total = float(conc.sum())
        means.flat[i] = math.ldexp(total, -k) / n
        if n > 1:  # rounding can take the one-pass sum of squares below 0
            sq_dev = max(float(np.einsum("i,i->", conc, conc)) - total * (total / n), 0.0)
            stderrs.flat[i] = math.ldexp(math.sqrt(sq_dev / (n - 1)), -k) / math.sqrt(n)
    return means, stderrs


def entangling_power_mc(p: float, spec: MonteCarloSpec) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) at one survival probability p."""
    mean, stderr = entangling_power_mc_grid(p, spec)
    return float(mean), float(stderr)

