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
_SLICE = 1 << 10  # values whose words are copied and stripped of NULs at a time


def _split(a):
    """Veltkamp split, a == hi + lo exactly with 26-bit halves."""
    hi = a * 134217729.0  # 2^27 + 1
    lo = hi - a
    hi -= lo
    return hi, np.subtract(a, hi, out=lo)


@functools.cache
def _tables():
    """Powers of ten as double-doubles, and the layout tables."""
    hi, lo, big = [], [], 10 ** -_S_MIN
    for s in range(_S_MIN, _S_MAX + 1):  # 10^s = num / den, big the one not 1
        num, den = (1, big) if s < 0 else (big, 1)
        m, d = (num / den).as_integer_ratio()
        hi.append(m / d)
        lo.append((num * d - m * den) / (den * d))  # 10^s - hi, rounded once
        big = big // 10 if s < 0 else big * 10
    pow10 = np.stack((hi, *_split(np.array(hi)), lo))

    # Each 4-digit group as "d.d.d.d." ("d." is 0x2E30 + d), and its trailing zeros.
    w = np.arange(0x2E30, 0x2E3A, dtype=_WORD)
    group = (w[:, None, None, None] | w[:, None, None] << 16 | w[:, None] << 32 | w << 48).ravel()
    zeros = np.zeros(10_000, np.uint8)
    for step in (10, 100, 1000, 10_000):  # each step dividing the group adds a zero
        zeros[::step] += 1

    # Per exponent: word 0 but sign and first digit, word 5 but separator,
    # and the index of the last integer digit, plus one.
    exps = range(-_E_OFF, _E_OFF + 1)
    lead = np.array([b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(6, b"\0")
                     + b"." for e in exps], "S8").view(_WORD)
    suffix = np.array([b"e%+03d" % e * (e >= 17 or e < -4) for e in exps], "S8").view(_WORD)
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
    hi, hi_hi, hi_lo, lo = pow10.take(16 - e - _S_MIN, axis=1)
    p = a * hi
    a_hi, a_lo = _split(a)
    # err = ((a_hi·hi_hi − p) + a_hi·hi_lo + a_lo·hi_hi) + a_lo·hi_lo, each
    # product written over an operand that is not needed again
    err = np.multiply(a_hi, hi_hi, out=hi)
    err -= p
    err += np.multiply(a_hi, hi_lo, out=a_hi)
    err += np.multiply(a_lo, hi_hi, out=hi_hi)
    err += np.multiply(a_lo, hi_lo, out=hi_lo)
    err += np.multiply(a, lo, out=lo)
    whole = np.floor(p, out=a_lo)
    rest = np.subtract(p, whole, out=p)
    rest += err
    carry = np.floor(rest, out=err)
    rest -= carry
    q = whole.astype(np.int64)
    q += carry.astype(np.int64)
    return q, rest


def format_g17(block: np.ndarray) -> bytes:
    """Each row of a 2-D block as one line: ``"%.17g" % v`` for each value,
    separated by commas, ended by a newline.

    Each block-sized temporary is written over or dropped once used, so the
    peak is the end: the six words a value and the text, translated _SLICE values at a time."""
    pow10, group, zeros, lead, suffix, int_last, keep = _tables()
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1 / _LIMIT) & (a <= _LIMIT)
    other = ~fast  # zeros, non-finite values and magnitudes out of range
    slow = other & (v != 0)
    np.copyto(a, 1.0, where=other)
    e = np.floor(np.log10(a)).astype(np.int64)
    q, frac = _scaled(a, e, pow10)
    off = ((q < 10**16) | (q >= 10**17)).nonzero()[0]  # log10 rounded across 10^e
    if off.size:
        e[off] += np.where(q[off] < 10**16, -1, 1)
        q[off], frac[off] = _scaled(a[off], e[off], pow10)
    del a
    q += frac > 0.5
    frac -= 0.5
    slow |= fast & (np.abs(frac, out=frac) < 1e-6)
    slow = slow.nonzero()[0]
    del frac
    top = q == 10**17
    e += top
    np.copyto(q, 10**16, where=top)
    del top
    np.copyto(q, 0, where=other)  # a zero is N = 0, e = 0
    np.copyto(e, 0, where=other)
    del fast, other
    e += _E_OFF

    # N = first·10^16 followed by four 4-digit groups
    first = q // 10**16
    q -= first * 10**16
    g = np.empty((4, q.size), np.int64)
    np.floor_divide(q, 10**8, out=g[1])
    q -= g[1] * 10**8
    np.floor_divide(g[1], 10**4, out=g[0])
    g[1] -= g[0] * 10**4
    np.floor_divide(q, 10**4, out=g[2])
    np.subtract(q, g[2] * 10**4, out=g[3])
    del q
    z = zeros.take(g)
    tail = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    del z
    k = int_last.take(e)
    k *= 17
    k += 16 - tail

    col = lead.take(e)
    col |= (first.astype(_WORD) + 48) << 48
    del first
    col |= np.signbit(v).astype(_WORD) * ord("-")
    # in place, no new array: "clip" leaves out unbuffered, and index i is read before word i
    g = group.take(g, out=g.view(_WORD), mode="clip")
    keep = keep.take(k, axis=1)
    col &= keep[0]
    g &= keep[1:]
    del tail, k, keep
    words = np.empty((*block.shape, 6), _WORD)
    flat = words.reshape(-1, 6)
    flat[:, 0] = col
    flat[:, 1:5] = g.T
    suffix.take(e, out=col)
    flat[:, 5] = col
    del g, col, e
    words[:, :-1, 5] |= ord(",") << 40
    words[:, -1, 5] |= ord("\n") << 40
    for i in slow:
        flat[i, :5] = np.array([b"%.17g" % float(v[i])], "S40").view(_WORD)
        flat[i, 5] &= 0xFF << 40
    return b"".join(flat[i:i + _SLICE].tobytes().translate(None, b"\0")
                    for i in range(0, len(flat), _SLICE))
