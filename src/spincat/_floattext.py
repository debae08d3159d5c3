"""The text of float64 arrays, byte for byte as Python's ``repr``.

``float_words(x, out)`` writes one 32-byte row, four uint64 words, per value
of ``x`` into the rows of a caller's array; dropping the NUL bytes of the row
leaves ``repr(float(value))``.  The table writer lines them up with its
other columns that way and compresses the NULs out of a whole block of lines
at once, so no value passes through a Python object.

Digits.  ``repr`` prints the shortest decimal that reads back as the same
double, and of those the closest, ties to the even one.  The Schubfach
algorithm (R. Giulietti, "The Schubfach way to render doubles", 2020) finds
that decimal with fixed-width integers: one 126-bit power of ten g from a
table built once from Python ints, and for the value and the two ends of its
rounding interval one product g * c rounded to odd, on 32-bit limbs in
uint64.  The candidates are the decimals one digit shorter than the
interval's width allows, and then the two next to the value.  The zeros a
shorter decimal ends in stay in its digits; the text leaves them out.

The seventeen digits, left-aligned, are the first digit and two halves of
eight, and each half becomes eight digit bytes of one word in three rounds
of lane-wise division by multiply and shift: two 4-digit lanes of 32 bits,
four 2-digit lanes of 16 bits, eight digits of 8 bits.  The last nonzero
digit byte gives the number of significant digits.

Layout.  ``repr`` is positional for 1e-4 <= |x| < 1e16, with ".0" on an
integer, and otherwise d.ddde±XX with at least two exponent digits; zeros,
NaN and infinities are "0.0", "-0.0", "nan", "inf" and "-inf".  With
|x| = 0.d1d2... 10^p, the row is four little-endian words of fixed slots:
word 0 the sign and, for p <= 0, "0." and -p zeros; then eighteen slots with
the digits and the point, which goes after digit p (or after the first
digit in the exponent form), so that the digits after it move one slot on;
then the exponent; and one last byte that the caller may set (the table
writer's comma or newline).  An integer's ".0" is the point and the zero
digit after it.  A slot that a value does not use holds NUL.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_words"]

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the double's range
_P_MIN, _P_MAX = -323, 309  # p of 5e-324 .. 1.7976931348623157e308
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK63 = np.uint64((1 << 63) - 1)
_LAST_FINITE = np.uint64(0x7FEFFFFFFFFFFFFF)  # the bits of the largest double
_ONE = np.uint64(0x3FF0000000000000)  # 1.0, formatted in place of a special


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
    """Column k - _K_MIN: g = floor(10^-k 2^(125 - flog2(10^-k))) + 1, a
    126-bit integer, as its high and its low 63 bits (a (2, n) uint64 array)."""
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


def _words(strings, at: int = 0) -> np.ndarray:
    """One uint64 per ASCII string of at most 8 - ``at`` bytes, the string
    starting at byte ``at`` (little-endian) and NUL elsewhere."""
    return np.array(["\0" * at + s for s in strings], dtype="S8").view("<u8")


def _slot_masks() -> np.ndarray:
    """(9, 22 * 18) words, column (clip(p, -4, 17) + 4) * 18 + m for m
    significant digits: the masks of the 18 slots (3 words each) that keep a
    digit from the digit string, keep one from the string shifted a slot on,
    and the point."""
    pc, m = np.divmod(np.arange(22 * 18), 18)
    pc -= 4
    positional = (pc >= -3) & (pc <= 16)
    # no point in the slots below 1 (the prefix has it); 18 = no slot
    point = np.where(positional, np.where(pc > 0, pc, 18), 1)
    shown = np.where(positional, np.where(pc > 0, np.maximum(m, pc + 1) + 1, m), m + (m > 1))
    slot = np.arange(24)  # 18 slots and 6 bytes of the last word's other uses
    keep_s = slot < np.minimum(point, shown)[:, None]
    keep_t = (slot > point[:, None]) & (slot < shown[:, None])
    dot = (slot == point[:, None]) & (slot < shown[:, None])
    masks = np.concatenate([keep_s * 0xFF, keep_t * 0xFF, dot * ord(".")], axis=1)
    return masks.astype(np.uint8).view("<u8").T.copy()


_G = _pow10_table()
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_MASKS = _slot_masks()
_P = range(_P_MIN, _P_MAX + 1)
# word 0 by p - _P_MIN: "0." and the zeros before the digits, after the sign
_PREFIX = _words(["0." + "0" * -p if -3 <= p <= 0 else "" for p in _P], at=1)
# the last word by p - _P_MIN: the exponent, after slots 16 and 17
_SUFFIX = _words(["" if -3 <= p <= 16 else f"e{p - 1:+03d}" for p in _P], at=2)
_SPECIAL = _words(["0.0", "-0.0", "nan", "inf", "-inf"])
_ENDS = np.array([[-2], [0], [2]]).astype(np.uint64)  # -2 wraps round
_ASCII_ZEROS = _words(["0" * 8, "0" * 8, "00"])[:, None]  # on the 17 digit slots
_NONZERO_TEST = int.from_bytes(b"\x7f" * 8, "little")
_HIGH_BITS = int.from_bytes(b"\x80" * 8, "little")


def _round_to_odd(g, cp):
    """floor(g cp / 2^127) for g = g1 2^63 + g0 (g1, g0 < 2^63: g is their
    (2, n) stack) and cp < 2^60 of shape (3, n), its last bit set when the
    quotient is inexact.

    64 x 64-bit products are taken on 32-bit limbs.  With cp < 2^60 the three
    terms below the high one sum to less than 2^64, so no carry is lost."""
    cp0, cp1 = cp & _MASK32, cp >> 32
    lo, hi = (g & _MASK32)[:, None], (g >> 32)[:, None]
    high = lo * cp0  # the high 64 bits of g1 cp and g0 cp, for g1, g0 < 2^63
    high >>= 32
    high += lo * cp1
    high += hi * cp0
    high >>= 32
    high += hi * cp1
    # g cp / 2^64 = g1 cp / 2 + g0 cp / 2^64; z is its part below 2^63 (with
    # what carries out of it), truncated as in Giulietti's reference code
    z = (g[0] * cp >> 1) + high[1]
    return (high[0] + (z >> 63)) | ((z & _MASK63) != 0)


def _shortest(mag: np.ndarray) -> tuple:
    """(f, k, normal) with f 10^k the decimal ``repr`` prints for each
    positive finite double of bits mag; f keeps the zeros it ends in, and of
    a normal double it has 16 or 17 digits."""
    biased = mag >> 52
    normal = biased.min() > 0
    b1 = np.maximum(biased, 1)
    c = mag - ((b1 - 1) << 52)  # the significand, with a normal's hidden bit
    q = b1.view(np.int64) - 1075  # mag = c 2^q
    k = _flog10_pow2(q)
    # the low end, the value and the high end of the rounding interval, times 4
    cp = (c << 2) + _ENDS
    # a power of two has its lower neighbour at half the spacing
    irregular = (c == 1 << 52) & (biased > 1)
    if irregular.any():
        k[irregular] = _flog10_three_quarters_pow2(q[irregular])
        cp[0] += irregular
    cp <<= (q + _flog2_pow10(-k) + 2).view(np.uint64)
    vbl, vb, vbr = _round_to_odd(np.take(_G, k - _K_MIN, axis=1), cp)
    # an odd c rounds to a neighbour at the interval's ends, so they are out
    odd = c & 1
    lower, upper = vbl + odd, vbr - odd
    s = vb >> 2
    s4, sp = s << 2, s // 10 * 10
    # one digit shorter: at most one multiple of 10^(k+1) is in the interval
    sp4 = sp << 2
    up_in = lower <= sp4
    wp_in = sp4 + 40 <= upper
    shorter = up_in != wp_in
    if not normal:  # a normal double's s has 16 or 17 digits
        shorter &= s >= 10
    # else the closer of s and s + 1 that is in the interval, ties to even
    u_in = lower <= s4
    w_in = s4 + 4 <= upper
    closer = vb + (s & 1) > s4 + 2  # past the midpoint, or at it with s odd
    up = np.where(u_in == w_in, closer, w_in)
    f = np.where(shorter, sp + np.uint64(10) * wp_in, s + up)
    return f, k, normal


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10^8, one per byte, the first in
    the lowest byte."""
    hi = v // 10_000
    v = hi | (v - hi * 10_000) << 32  # two 4-digit lanes
    hi = (v * 10_486 >> 20) & 0x7F_0000_007F  # each lane // 100
    v = hi | (v - hi * 100) << 16  # four 2-digit lanes
    hi = (v * 103 >> 10) & 0x000F_000F_000F_000F  # each lane // 10
    return hi | (v - hi * 10) << 8


def float_words(x, out: np.ndarray, sep: int = 0) -> None:
    """Write into each row of out, an (n, 4) uint64 array, the four words
    of the text of one value of x (flattened, n values): NUL-padded
    ``repr(float(value))`` in its first 31 bytes and byte ``sep`` in its
    last.  The temporaries grow with n: the table writer passes at most
    ``observables._BLOCK_ROWS`` values a call."""
    x = np.ravel(np.asarray(x, dtype=np.float64))
    bits = x.view(np.uint64)
    mag = bits & _MASK63
    special = mag - 1 >= _LAST_FINITE  # zeros, infinities and NaN
    any_special = special.any()
    if any_special:
        mag = np.where(special, _ONE, mag)
    f, k, normal = _shortest(mag)
    # |x| = 0.d1d2...dn 10^p with n digits of f, left-aligned in 17
    n = 16 + (f >= _POW10[16]) if normal else np.searchsorted(_POW10, f, side="right")
    f = f * _POW10[17 - n]
    p = k + n
    first = f // 10**16
    rest = f - first * 10**16
    halves = rest // 10**8
    halves = _digit_bytes(np.stack([halves, rest - halves * 10**8]))
    # 128 + the index of the last nonzero byte of each half, or 0
    last = ((halves + _NONZERO_TEST) & _HIGH_BITS).astype(np.float64).view(np.int64) >> 55
    m = np.maximum(np.maximum(last[1] - 118, last[0] - 126), 1)  # significant digits
    # the digit string in the 18 slots, and the same shifted one slot on
    digits = np.zeros((3, len(x)), dtype=np.uint64)
    np.left_shift(halves, 8, out=digits[:2])
    digits[0] |= first
    digits[1:] |= halves >> 56
    digits += _ASCII_ZEROS
    shifted = digits << 8
    shifted[1:] |= digits[:-1] >> 56
    masks = np.take(_MASKS, (np.clip(p, -4, 17) + 4) * 18 + m, axis=1)
    digits &= masks[:3]
    shifted &= masks[3:6]
    digits |= shifted
    p -= _P_MIN
    digits[2] |= np.take(_SUFFIX, p) | np.uint64(sep << 56)
    out[:, 0] = np.take(_PREFIX, p) | (bits >> 63) * ord("-")
    np.bitwise_or(digits, masks[6:], out=out[:, 1:].T)
    if any_special:
        xs = x[special]
        rows = np.zeros((len(xs), 4), dtype=np.uint64)
        rows[:, 0] = _SPECIAL[np.where(np.isnan(xs), 2, 3 * np.isinf(xs) + np.signbit(xs))]
        rows[:, 3] = sep << 56
        out[special] = rows
