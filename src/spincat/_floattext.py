"""The text of float64 arrays, byte for byte as Python's ``repr``.

``float_text(x)`` gives one uint8 row per value of ``x``; dropping the NUL
bytes of the row leaves ``repr(float(value))``.  The table writer lines such
rows up with its other columns and compresses the NULs out of a whole block
of lines at once, so no value passes through a Python object.

Digits.  ``repr`` prints the shortest decimal that reads back as the same
double, and of those the closest, ties to the even one.  The Schubfach
algorithm (R. Giulietti, "The Schubfach way to render doubles", 2020) finds
that decimal with fixed-width integers: one 126-bit power of ten g from a
table built once from Python ints, and for the value and the two ends of its
rounding interval one product g * c rounded to odd, on 32-bit limbs in
uint64.  The candidates are the decimals one digit shorter than the
interval's width allows, and then the two next to the value.

Layout.  ``repr`` is positional for 1e-4 <= |x| < 1e16, with ".0" on an
integer, and otherwise d.ddde±XX with at least two exponent digits; zeros,
NaN and infinities are "0.0", "-0.0", "nan", "inf" and "-inf".  Each row has
fixed slots: a prefix (sign, and "0." plus zeros below 1), seventeen pairs
of a digit and an optional point, and a suffix (the ".0" zero, or the
exponent).  A slot that a value does not use holds NUL.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_text"]

#: Bytes per row of ``float_text``: a 6-byte prefix, 17 digit/point pairs
#: and a 6-byte suffix.
_WIDTH = 46

#: Values formatted per pass: the fastest of 1024..16384 on a 2-vCPU VM
#: (8192 is ~1.4x slower).  A pass's temporaries, mostly (3, 4096) uint64
#: arrays of 96 KiB, stay in the heap and add ~1 MiB to a process's peak
#: RSS; at 2048 they add none, but a 2I = 25 Husimi table writes ~17% slower.
_BLOCK = 4096

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the double's range
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK63 = np.uint64((1 << 63) - 1)


def _flog10_pow2(e):
    """floor(e log10 2), exact for |e| <= 5456721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), exact for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2_pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _pow10_table() -> np.ndarray:
    """Entry k - _K_MIN: g = floor(10^-k 2^(125 - flog2(10^-k))) + 1, a 126-bit
    integer, as its high and its low 63 bits (two uint64 arrays)."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2_pow10(-k)
        if k <= 0:
            g = 10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift
        else:
            g = (1 << shift) // 10 ** k
        g += 1
        rows.append((g >> 63, g & ((1 << 63) - 1)))
    return np.array(rows, dtype=np.uint64).T.copy()


def _texts(strings, width: int) -> np.ndarray:
    """NUL-padded uint8 rows of ASCII strings."""
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(len(strings), width)


_G1, _G0 = _pow10_table()
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_COLUMNS = np.arange(17, dtype=np.int8)
_PREFIX = _texts([s + z for s in ("", "-") for z in ("", "0.", "0.0", "0.00", "0.000")], 6)
# row e + 324 for the exponents e of 5e-324 .. 1.8e308, then the zero of a
# positional integer's ".0" and the empty suffix
_SUFFIX = _texts([f"e{e:+03d}" for e in range(-324, 309)] + ["0", ""], 6)
_ZERO_SUFFIX, _NO_SUFFIX = 633, 634
_SPECIAL = _texts(["0.0", "-0.0", "nan", "inf", "-inf"], _WIDTH)


def _round_to_odd(g1, g0, cp):
    """floor(g cp / 2^127) for g = g1 2^63 + g0 (g1, g0 < 2^63; cp < 2^60),
    its last bit set when the quotient is inexact.

    64 x 64-bit products are taken on 32-bit limbs.  With cp < 2^60 the three
    terms below the high one sum to less than 2^64, so no carry is lost."""
    cp0, cp1 = cp & _MASK32, cp >> 32

    def high(g):  # the high 64 bits of g cp, for g < 2^63
        g0_, g1_ = g & _MASK32, g >> 32
        return g1_ * cp1 + ((((g0_ * cp0) >> 32) + g0_ * cp1 + g1_ * cp0) >> 32)

    # g cp / 2^64 = g1 cp / 2 + g0 cp / 2^64; z is its part below 2^63 (with
    # what carries out of it), truncated as in Giulietti's reference code
    z = ((g1 * cp) >> 1) + high(g0)
    return (high(g1) + (z >> 63)) | ((z & _MASK63) != 0)


def _shortest(x: np.ndarray) -> tuple:
    """(f, k) with f 10^k the decimal ``repr`` prints for each positive,
    finite x; f has no trailing zeros."""
    bits = x.view(np.uint64)
    t = bits & np.uint64((1 << 52) - 1)
    biased = (bits >> 52).astype(np.int64)
    c = np.where(biased > 0, t | np.uint64(1 << 52), t)
    q = np.maximum(biased, 1) - 1075
    # a power of two has its lower neighbour at half the spacing
    irregular = (t == 0) & (biased > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10_pow2(q))
    h = (q + _flog2_pow10(-k) + 2).astype(np.uint64)
    cb = c << 2
    # the low end, the value and the high end of the rounding interval, times 4
    cp = np.stack([cb - 2 + irregular, cb, cb + 2]) << h
    row = np.broadcast_to(k - _K_MIN, cp.shape)
    vbl, vb, vbr = _round_to_odd(_G1[row], _G0[row], cp)
    # an odd c rounds to a neighbour at the interval's ends, so they are out
    odd = c & 1
    lower, upper = vbl + odd, vbr - odd
    s = vb >> 2
    # one digit shorter: at most one multiple of 10^(k+1) is in the interval
    sp = s // 10 * 10
    up_in = lower <= sp << 2
    wp_in = (sp + 10) << 2 <= upper
    shorter = (s >= 10) & (up_in != wp_in)
    # else the closer of s and s + 1 that is in the interval, ties to even
    u_in = lower <= s << 2
    w_in = (s + 1) << 2 <= upper
    mid = (s << 2) + 2
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & ((s & 1) == 1)))
    f = np.where(shorter, sp + 10 * wp_in.astype(np.uint64), s + up)
    # strip the trailing zeros (at most 16: f < 10^17), 16, 8, 4, 2, 1 at a time
    for n in (16, 8, 4, 2, 1):
        p = _POW10[n]
        f_div = f // p
        exact = f_div * p == f
        f = np.where(exact, f_div, f)
        k = k + n * exact
    return f, k


def _format_block(x: np.ndarray, out: np.ndarray) -> None:
    """Write the rows of ``float_text`` for one block of x into out."""
    regular = np.isfinite(x) & (x != 0)
    f, k = _shortest(np.abs(np.where(regular, x, 1.0)))
    m = np.searchsorted(_POW10, f, side="right")  # significant digits
    p = k + m  # |x| = 0.d1d2...dm 10^p
    positional = (p >= -3) & (p <= 16)
    # the m digits, left-aligned in 17, as the uint32 halves of 9 and 8 digits
    digits = np.empty((len(x), 17), dtype=np.uint16)
    s17 = f * _POW10[17 - m]
    high = (s17 // 10 ** 9).astype(np.uint32)
    low = (s17 - high * np.uint64(10 ** 9)).astype(np.uint32)
    for half, columns in ((low, range(16, 7, -1)), (high, range(7, -1, -1))):
        for j in columns:
            q = half // 10
            digits[:, j] = half - q * 10
            half = q
    p8 = np.clip(p, -4, 17).astype(np.int8)
    m8 = m.astype(np.int8)
    # positional: the digits and any zeros up to the point; else the mantissa
    n_digits = np.where(positional, np.maximum(p8, m8), m8)
    point = np.where(positional, p8 - 1, np.where(m8 > 1, 0, -1)).astype(np.int8)
    digits += ord("0")
    digits *= _COLUMNS < n_digits[:, None]
    digits |= (_COLUMNS == point[:, None]) * np.uint16(ord(".") << 8)
    out[:, 6:40].view("<u2")[...] = digits
    lead = np.where(positional & (p8 <= 0), 1 - p8, 0)
    out[:, :6] = np.take(_PREFIX, lead + 5 * np.signbit(x), axis=0)
    # the exponent form's exponent is p - 1
    suffix = np.where(positional, np.where(p8 >= m8, _ZERO_SUFFIX, _NO_SUFFIX), p + 323)
    out[:, 40:] = np.take(_SUFFIX, suffix, axis=0)
    special = ~regular
    if special.any():
        xs = x[special]
        code = np.where(np.isnan(xs), 2, 3 * np.isinf(xs) + np.signbit(xs))
        out[special] = np.take(_SPECIAL, code, axis=0)


def float_text(x) -> np.ndarray:
    """(n, _WIDTH) uint8 rows, one per value of x (flattened): each row
    without its NUL bytes is ``repr(float(value))``."""
    x = np.ravel(np.asarray(x, dtype=np.float64))
    out = np.empty((len(x), _WIDTH), dtype=np.uint8)
    for i in range(0, len(x), _BLOCK):
        _format_block(x[i : i + _BLOCK], out[i : i + _BLOCK])
    return out
