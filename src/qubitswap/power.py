"""Entangling power: the swapped concurrence averaged over all product
initial states under the Haar measure.

It depends on the dynamics only through p = |E|^2, and has a closed form.
With the stereographic images z = tan(theta/2) e^{i phi} of the two Bloch
vectors, independent with density 1/(pi (1 + |z|^2)^2), the concurrence is
p / (p + r) with r = |z1 - z2|^2 / 2 (entangling_power_mc_grid).  That
density's 2-D Fourier transform is |k| K1(|k|), so by Parseval

    P(p) = E[p / (p + r)] = 2p int_0^inf k^3 K1(k)^2 K0(sqrt(2p) k) dk.

This is the 2-D case of the three-mass vacuum integral (Davydychev and
Tausk, Nucl. Phys. B 397 (1993) 123); with k^2 K1(k)^2 = d_a d_b [K0(ak) K0(bk)]
at a = b = 1 and Lewin's duplication Cl2(2x) = 2 Cl2(x) - 2 Cl2(pi - x)
(Polylogarithms and Associated Functions, 1981) it reduces to

    P = (1 - p)/(2 - p) - (1 + p) ln(2p)/(2 - p)^2
        + 2 (2p - 1) Cl2(C) / (sqrt(p) (2 - p)^{5/2}),   C = arccos(1 - p),

so P(1/2) = 1/3 and P(1) = 2G - 2 ln 2 (G Catalan's constant).  Clausen's
Cl2(x) = x (1 - ln x + sum_k |B_2k| x^{2k} / (2k (2k+1)!)) converges for
x < 2 pi, each term shrinking by 16 or more for x <= pi/2.  As p -> 0 the
O(1) terms cancel to O(p ln p), losing about 3e-15 relative near p = 0.1,
so below p = 1/4 the rational series P = sum_k p^k (r_k + beta_k ln 2p) of
the same expression is used (tests/test_power.py regenerates its
coefficients).  Both branches stay within 2e-15 relative of 40-digit
values.  Seeded Monte Carlo over the full 4-angle measure is the
independent cross-check.  Both estimators take a scalar p or an array,
by the measures' rule: a scalar gives Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import _py
from .errors import RangeError

# |B_2k| / (2k (2k+1)!), k = 1..14
_CL2 = (
    0.013888888888888888, 6.944444444444444e-05, 7.873519778281683e-07,
    1.1482216343327455e-08, 1.8978869988971e-10, 3.387301370953521e-12,
    6.372636443183181e-14, 1.2462059912950672e-15, 2.5105444608999545e-17,
    5.178258806090623e-19, 1.0887357368300849e-20, 2.325744114302087e-22,
    5.03519521314739e-24, 1.1026499294381215e-25,
)
# r_k and beta_k, k = 1..22: the series' tail is below 3e-18 relative at p = 1/4
_SERIES_BELOW = 0.25
_R = (
    0.1111111111111111, 0.5866666666666667, 0.6416326530612245, 0.5288989669942051,
    0.38317622733207146, 0.25750907988670224, 0.1647033964050281, 0.10170747511469073,
    0.06117687384079266, 0.03605384315245628, 0.02090361010193324, 0.011958734518803752,
    0.006765640700974739, 0.003791707721760948, 0.002107882066883224, 0.001163616941269131,
    0.0006384183778671093, 0.0003483733118934496, 0.000189186042798266,
    0.00010229574316732475, 5.509814553328988e-05, 2.9572460639674964e-05,
)
_BETA = (
    -0.6666666666666666, -0.8, -0.6857142857142857, -0.5079365079365079,
    -0.3463203463203463, -0.22377622377622378, -0.13923853923853924, -0.08424516659810777,
    -0.049882006538353285, -0.029031855657242655, -0.016661760638069695,
    -0.009451762398323174, -0.005309323322514869, -0.0029574480045838794,
    -0.0016354551177422375, -0.0008986743273250275, -0.0004910613288597472,
    -0.00026699995941181797, -0.00014452989255910376, -7.792369046832296e-05,
    -4.186133139112233e-05, -2.2414638818950157e-05,
)
_DRAW_BLOCK = 8_192  # Monte Carlo samples drawn at a time; 2-D rows of 4 096 or
# fewer took numpy's broadcast divide about half as long again per value
_P_CHUNK = 8  # p values evaluated against one draw block as a 2-D array
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter step


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


def entangling_power_grid(p) -> float | np.ndarray:
    """Entangling power at a scalar or an array of survival probabilities, in
    closed form; exactly 0.0 where p = 0."""
    p = _checked_p(p)
    out = np.zeros(p.shape)
    small, large = (p > 0) & (p < _SERIES_BELOW), p >= _SERIES_BELOW
    q = p[small]
    out[small] = q * (np.polyval(_R[::-1], q) + np.log(2 * q) * np.polyval(_BETA[::-1], q))
    q = p[large]
    c = np.arccos(1 - q)
    cl2 = c * (1 - np.log(c) + c * c * np.polyval(_CL2[::-1], c * c))
    t = 2 - q
    out[large] = ((1 - q) / t - (1 + q) * np.log(2 * q) / (t * t)
                  + 2 * (2 * q - 1) * cl2 / (t * t * np.sqrt(q * t)))
    return _py(np.clip(out, 0.0, 1.0))


def entangling_power_mc_grid(p, spec: MonteCarloSpec, stderr: bool = True
                             ) -> tuple[float | np.ndarray, float | np.ndarray | None]:
    """Monte Carlo (mean, standard error) at a scalar p, or arrays of p's shape; with
    stderr false, no sums of squares and None for the errors (a scan writes means).

    c^2 = cos^2(theta/2), uniform on [0, 1) under the Haar measure, and
    phi = 2 pi f, f uniform on [0, 1), are drawn for both qubits on each call,
    seeded, the same samples every time (so a p's pair depends on p and spec
    only): outputs [k n, (k + 1) n), k = 0..3, of spec.seed's SplitMix64
    stream (_uniform) are c1^2 | c2^2 | f1 | f2, so the draws of samples
    lo..hi-1 are a pure function of (seed, n, lo, hi), read _DRAW_BLOCK
    samples at a time (_ratios).  The closed-form concurrence
    2|X|^2 / (2|X|^2 + |Y|^2) of post_bsm_projection is averaged over the
    draws at every p.  The half angles need no trigonometry: c = sqrt(c^2)
    and s = sqrt(1 - c^2).  Then |X|^2 = p A with A = (c1 c2)^2, and with
    a = s1 c2, b = s2 c1, d = phi1 - phi2 = 2 pi (f1 - f2),

        |Y|^2 = |a e^{i phi1} - b e^{i phi2}|^2 = a^2 + b^2 - 2ab cos d
              = (a - b)^2 + 4ab sin^2(d/2),

    a sum of two non-negative terms, so no more cancellation than in the
    complex difference.  Dividing through by 2A, the concurrence is
    p / (p + r) with r = |Y|^2 / (2A) fixed by the draws: r = +inf where
    A = 0 (concurrence 0) and r = 0 on the ridge |Y| = 0 (concurrence 1).
    Each p then costs one add and one divide per sample, _P_CHUNK p values
    against one block of draws at a time, and each sample is drawn once a
    call.  A p's sum is its block sums, each numpy's pairwise sum of one
    block, added in block order, and so is its sum of squares, so no thread
    count changes them.  Both sum the concurrences times 2^k, 2^k p in
    [1/2, 1) with k capped to keep n 4^k finite: the unscaled squares of
    concurrences of order p underflow below p of about 1e-160.  Memory holds
    one block of draws, one chunk and two running sums a p, so a 20-point
    power scan through cli.main peaks (VmHWM) at 32 MB for 4e6 samples as
    for 1e5, 0.7 MB above the quadrature scan, against 98 MB when all ratios
    r were held.  Exactly (0.0, 0.0) where p = 0."""
    p, n = _checked_p(p), spec.n_samples
    means, stderrs = np.zeros(p.shape), (np.zeros(p.shape) if stderr else None)
    pos = p > 0  # 0/(0 + 0) on the ridge
    q = p[pos]
    k = np.minimum(-np.frexp(q)[1], (1022 - n.bit_length()) // 2)
    top, totals = np.ldexp(q, k), np.zeros((1 + stderr, q.size))
    for lo in range(0, n if q.size else 0, _DRAW_BLOCK):  # nothing to draw for p = 0 alone
        r = _ratios(spec, lo, min(lo + _DRAW_BLOCK, n))
        for c in range(0, q.size, _P_CHUNK):
            conc = np.add.outer(q[c:c + _P_CHUNK], r)
            np.divide(top[c:c + _P_CHUNK, None], conc, out=conc)
            totals[0, c:c + _P_CHUNK] += conc.sum(axis=1)
            if stderr:
                totals[1, c:c + _P_CHUNK] += np.square(conc, out=conc).sum(axis=1)
            del conc  # one chunk at a time: freed before the next is formed
    means[pos] = np.ldexp(totals[0], -k) / n
    if stderr and n > 1:  # rounding can take the one-pass sum of squares below 0
        sq_dev = np.maximum(totals[1] - totals[0] * (totals[0] / n), 0.0)
        stderrs[pos] = np.ldexp(np.sqrt(sq_dev / (n - 1)), -k) / math.sqrt(n)
    return _py(means), _py(stderrs)  # _py(None) is None


def _uniform(seed: int, lo: int, hi: int) -> np.ndarray:
    """Outputs lo..hi-1 of SplitMix64 from seed as doubles in [0, 1): output i
    is the top 53 bits of SplitMix64's mix of seed + (i + 1) _GAMMA, times
    2^-53, with all arithmetic and the counters mod 2^64."""
    z = np.arange(hi - lo, dtype=np.uint64) * np.uint64(_GAMMA)
    z += np.uint64((seed + (lo + 1) * _GAMMA) % 2**64)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def _ratios(spec: MonteCarloSpec, lo: int, hi: int) -> np.ndarray:
    """The ratios r of the seeded samples lo..hi-1 (entangling_power_mc_grid)."""
    n = spec.n_samples
    x1, x2, f1, f2 = (_uniform(spec.seed, k * n + lo, k * n + hi) for k in range(4))
    a, b = np.sqrt((1 - x1) * x2), np.sqrt((1 - x2) * x1)  # s1 c2 and s2 c1
    y_sq = (a - b) ** 2 + 4 * a * b * np.sin(math.pi * (f1 - f2)) ** 2
    two_a = 2 * x1 * x2
    return np.divide(y_sq, two_a, out=np.full(hi - lo, math.inf), where=two_a > 0)


entangling_power_quadrature = entangling_power_grid  # the name predates the closed form
entangling_power_mc = entangling_power_mc_grid  # both names are documented API
