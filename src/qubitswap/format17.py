"""Vectorised ``%.17g``: the bytes of ``"%.17g" % v`` for a block of floats.

For ``|x|`` in [1e-280, 1e280] the 17 digits are ``N = round(|x|·10^(16−e))``,
with ``10^s`` a double-double ``hi + lo`` and ``|x|·hi`` exact as a double plus
its rounding error (Dekker; numpy has no fma), so the scaled value is known to
about 1e-14.  Ties and near-ties (fraction within 1e-6 of ½), values outside
the range and non-finite values are written by ``%`` one by one.  Each value
fills six uint64 words, NUL where unused: sign, the ``0.000`` prefix of
exponents -4..-1, 17 digits each followed by a point slot, exponent, separator.
"""

from __future__ import annotations

import functools

import numpy as np

_LIMIT = 1e280  # keeps |x|·2^27 and 10^s·2^27 finite and normal
_S_MIN, _S_MAX = -270, 300  # the powers of ten the scaling can need
_E_OFF = 300  # table row of exponent e
_WORD = np.dtype("<u8")


def _split(a):
    """Veltkamp split, a == hi + lo exactly with 26-bit halves."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """Powers of ten as double-doubles, and the layout tables."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        m, d = (num / den).as_integer_ratio()
        hi.append(m / d)
        lo.append((num * d - m * den) / (den * d))  # 10^s - hi, rounded once
    pow10 = (np.array(hi), *_split(np.array(hi)), np.array(lo))

    # A 4-digit group as "d.d.d.d." ("d." is 0x2E30 + d) and its trailing zeros.
    digits = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    group = ((digits + 0x2E30) << np.arange(0, 64, 16)).sum(axis=1).astype(_WORD)
    zeros = np.append(4, (digits[1:, ::-1] != 0).argmax(axis=1)).astype(np.uint8)

    # Per exponent: word 0 but sign and first digit, word 5 but separator,
    # and the index of the last integer digit, plus one.
    exps = range(-_E_OFF, _E_OFF + 1)
    lead = np.array([b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(6, b"\0")
                     + b"." for e in exps], "S8").view(_WORD)
    suffix = np.array([f"e{e:+03d}".encode() * (e >= 17 or e < -4) for e in exps], "S8").view(_WORD)
    int_last = np.array([e + 1 if 0 <= e < 17 else (0 if -4 <= e < 0 else 1) for e in exps])

    # Per (last integer digit + 1, last nonzero digit), masks of words 0-4
    # keeping the digits up to the later of the two and the point after the
    # integer digits if a nonzero digit follows them.
    k, last, col = np.ogrid[:18, :17, :40]
    keep = ((col < 7) | (col % 2 == 0) & (col <= 6 + 2 * np.maximum(last, k - 1))
            | (col == 5 + 2 * k) & (k - 1 < last))
    keep = (keep * 255).astype(np.uint8).reshape(-1, 40).view(_WORD).T.copy()
    return pow10, group, zeros, lead, suffix, int_last, keep


def _scaled(a, e, pow10):
    """floor(a·10^(16−e)) and the fraction left over, for a > 0."""
    hi, hi_hi, hi_lo, lo = (t.take(16 - e - _S_MIN) for t in pow10)
    p = a * hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    whole = np.floor(p)
    rest = (p - whole) + (err + a * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def format_g17(block: np.ndarray) -> bytes:
    """Each row of a 2-D block as one line: ``"%.17g" % v`` for each value,
    separated by commas, ended by a newline."""
    pow10, group, zeros, lead, suffix, int_last, keep = _tables()
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1 / _LIMIT) & (a <= _LIMIT)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    q, frac = _scaled(a, e, pow10)
    off = np.flatnonzero((q < 10**16) | (q >= 10**17))  # log10 rounded across 10^e
    if off.size:
        e[off] += np.where(q[off] < 10**16, -1, 1)
        q[off], frac[off] = _scaled(a[off], e[off], pow10)
    q += frac > 0.5
    top = q == 10**17
    q = np.where(fast, np.where(top, 10**16, q), 0)  # a zero is N = 0, e = 0
    e = np.where(fast, e + top, 0) + _E_OFF
    slow = np.flatnonzero(~fast & (v != 0) | fast & (np.abs(frac - 0.5) < 1e-6))

    # N = first·10^16 followed by four 4-digit groups
    upper, first = q // 10**8, q // 10**16
    lower, upper = q - upper * 10**8, upper - first * 10**8
    g0, g2 = upper // 10**4, lower // 10**4
    g = (g0, upper - g0 * 10**4, g2, lower - g2 * 10**4)
    z = [zeros.take(gj) for gj in g]
    tail = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    k = int_last.take(e) * 17 + (16 - tail)

    words = np.empty((*block.shape, 6), _WORD)
    flat = words.reshape(-1, 6)
    flat[:, 0] = (lead.take(e) | (first.astype(_WORD) + 48) << 48
                  | np.signbit(v).astype(_WORD) * ord("-")) & keep[0].take(k)
    for j, gj in enumerate(g):
        flat[:, j + 1] = group.take(gj) & keep[j + 1].take(k)
    flat[:, 5] = suffix.take(e)
    words[:, :-1, 5] |= ord(",") << 40
    words[:, -1, 5] |= ord("\n") << 40
    for i in slow:
        flat[i, :5] = np.array([b"%.17g" % float(v[i])], "S40").view(_WORD)
        flat[i, 5] &= 0xFF << 40
    return words.tobytes().translate(None, b"\0")
