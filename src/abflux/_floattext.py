"""Shortest round-trip (``repr``) text of whole arrays of numbers at once.

:func:`float_chars` gives the ``repr`` text of every float of an array and
:func:`int_chars` the decimal text of every non-negative integer, each as a
NUL-padded uint8 character matrix with one row per value, for the CSV
writers of :mod:`abflux.io` to lay side by side.
"""

from __future__ import annotations

import functools

import numpy as np

# How shortest_digits finds repr's digits with numpy and no big integers,
# in the manner of Ryu (Adams, PLDI 2018).
#
# A positive double a = m * 2**q (2**52 <= m < 2**53) is scaled by 10**k,
# k = 16 - e, where e = floor((q + 52) log10 2) depends on the binary
# exponent alone, so that y = a * 10**k lies in [1e16, 2e17).  y is formed
# as a double-double: the exact (Dekker) product of a and the nearest double
# to 10**k, both split into 26-bit halves since numpy has no FMA, plus a
# times the rest of 10**k.  Its error is below 1e-13.  The decimals that
# read back as a are those in y +- h, h = half an ulp of a scaled alike,
# which is 0.55 to 22 units of y.  repr's digits are the multiple of the
# largest power 10**K that this interval holds, and of those the one
# nearest y.  The interval ends and the rounding are decided on the
# fraction of y, and a value whose fraction falls within _SLACK (far above
# the error) of an interval end or of a tie takes ``repr`` itself; so do
# zeros, infinities, nans, subnormals, exact powers of two (whose interval
# is not symmetric) and the extreme exponents.
_SLACK = 1e-9
_MAX_DIGITS = 17
_EXP_CLASS = 20         # layout classes 0..19 are fixed notation, decpt + 3


def _round26(x):
    """``x`` (positive doubles) rounded to their 26 leading bits."""
    bits = x.view(np.uint64)
    return ((bits + np.uint64(1 << 26)) & np.uint64(2**64 - 2**27)).view(np.float64)


@functools.cache
def _exponent_tables():
    """Per biased binary exponent b = 0..2047: whether it takes the fast
    path, the decimal exponent e, 10**(16 - e) as head + tail (its nearest
    double split into 26-bit halves) + low (the rest of it), and h."""
    b = np.arange(2048)
    e = ((b - 1023) * 78913) >> 18          # floor((b - 1023) log10 2)
    k = 16 - e
    # not subnormals, nor the top binade (rounding it to 26 bits can
    # overflow), nor 10**k past the largest double
    fast = (b > 0) & (b < 2046) & (k <= 308)
    powers = {}
    for power in range(int(k[fast].min()), int(k[fast].max()) + 1):
        if power >= 0:
            near = float(10**power)
            powers[power] = near, float(10**power - int(near))
        else:
            scale = 10**-power
            near = 1 / scale
            num, den = near.as_integer_ratio()
            powers[power] = near, (den - num * scale) / (den * scale)
    near = np.zeros(2048)
    low = np.zeros(2048)
    near[fast], low[fast] = np.array([powers[power] for power in k[fast].tolist()]).T
    head = _round26(near)
    return fast, e, head, near - head, low, np.ldexp(near, b - 1076)


def shortest_digits(a):
    """repr's digits of each positive float in ``a``.

    Returns ``(good, digits, n, decpt)``: where ``good``, the ``n``
    significant digits of ``digits`` (an integer of 17 digits, padded with
    zeros) times 10**(decpt - 17) read back as the entry of ``a``.  The
    other entries need ``repr``.
    """
    fast_b, e_b, head_b, tail_b, low_b, half_b = _exponent_tables()
    bits = a.view(np.int64)
    b = bits >> 52
    good = fast_b[b] & (bits << 12 != 0)
    if not good.all():
        a = np.where(good, a, 1.5)
        b[~good] = 1023
    # y = product + lo: Dekker's exact product of a and head + tail, plus a * low
    head = head_b[b]
    tail = tail_b[b]
    product = a * (head + tail)
    part = _round26(a)
    lo = part * head
    lo -= product
    part *= tail
    lo += part
    np.subtract(a, _round26(a), out=part)
    head *= part
    lo += head
    tail *= part
    lo += tail
    del head, tail, part
    lo += a * low_b[b]
    floor = np.floor(lo)
    frac = lo
    frac -= floor
    whole = product.astype(np.int64) + floor.astype(np.int64)   # y = whole + frac
    del product, floor
    # the integers L..H inside y +- h are whole + c_lo .. whole + c_hi
    h = half_b[b]
    end = frac - h
    c_lo = np.ceil(end)
    good &= c_lo - end > _SLACK
    np.add(frac, h, out=end)
    c_hi = np.floor(end)
    good &= end - c_hi > _SLACK
    del end, h
    span = c_hi - c_lo
    rem = (whole - whole // 100 * 100).astype(np.float64)    # whole mod 100
    h100 = rem + c_hi
    h100 += 100.0
    h100 -= np.floor(h100 * 0.01) * 100.0     # H mod 100
    h10 = h100 - np.floor(h100 * 0.1) * 10.0  # H mod 10
    tens = h10 <= span                        # K >= 1
    more = np.flatnonzero(tens & (h100 <= span))
    del h100
    rem -= np.floor(rem * 0.1) * 10.0         # whole mod 10
    # K = 0: the integer in [L, H] nearest y
    step = np.minimum(np.maximum(frac > 0.5, c_lo), c_hi)
    tie = np.abs(frac - 0.5) <= _SLACK
    # K = 1: the multiple of 10 in [L, H] nearest y
    frac += rem                               # y mod 10
    top = c_hi - h10
    bottom = top - np.floor((top - c_lo) * 0.1) * 10.0
    del h10
    step_10 = np.minimum(np.maximum((frac > 5.0) * 10.0 - rem, bottom), top)
    np.copyto(step, step_10, where=tens)
    np.copyto(tie, (bottom < top) & (np.abs(frac - 5.0) <= _SLACK), where=tens)
    good &= ~tie
    del rem, top, bottom, step_10, tie
    digits = whole + step.astype(np.int64)
    zeros = tens.astype(np.int64)
    # K >= 2: one multiple of 10**K lies in [L, H], the one at or below H
    if more.size:
        high = whole[more] + c_hi[more].astype(np.int64)
        width = span[more].astype(np.int64)
        power, count, found = 100, np.full(more.size, 2), high // 100 * 100
        live = np.ones(more.size, bool)
        while power < 10**17:
            power *= 10
            multiple = high // power * power
            live &= high - multiple <= width
            if not live.any():
                break
            count += live
            found[live] = multiple[live]
        zeros[more] = count
        digits[more] = found
    big = digits >= 10**17
    digits -= big * (digits - digits // 10)
    return good, digits, 17 + big - zeros, 1 + big + e_b[b]


@functools.cache
def _layout_tables():
    """The constant words of :func:`float_chars` and :func:`int_chars`.

    A float's text is laid out in 32 NUL-padded bytes: the sign, digits and
    point in bytes 2..24 and the exponent suffix in bytes 25..29.  The
    digits come as the 21 characters ``"0000"`` and 17 digits, column c at
    byte 3 + c; the columns after the point move up one byte to make room
    for it.  A layout code, 17 * class + digits - 1, names which columns are
    kept on each side of the point (``left``, ``right``, per word), where
    the point goes (``points``) and where the sign goes (``signs``).
    """
    v = np.arange(10000)
    quad = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1) + 48
    # "e-05", "e+123" and so on at bytes 1.. of a word, for exponents -350..349
    v = np.arange(-350, 350)[:, None]
    scale = np.where(abs(v) < 100, [[0, 0, 0, 10, 1, 0, 0, 0]], [[0, 0, 0, 100, 10, 1, 0, 0]])
    suffix = np.where(scale > 0, abs(v) // np.maximum(scale, 1) % 10 + 48, 0)
    suffix[:, 1] = ord("e")
    suffix[:, 2] = np.where(v[:, 0] < 0, ord("-"), ord("+"))
    # layout codes: class along axis 0, number of digits along axis 1
    cls, n = np.ogrid[:_EXP_CLASS + 1, 1:_MAX_DIGITS + 1]
    exponent_form = cls == _EXP_CLASS
    decpt = np.where(exponent_form, 1, cls - 3)
    point = 3 + decpt                             # the column before the point
    first = np.minimum(point, 4)
    end = 4 + np.where(exponent_form, n, np.maximum(n, decpt + 1))
    byte = np.arange(32)
    first, point, end, no_point = (
        g[..., None] for g in np.broadcast_arrays(first, point, end, exponent_form & (n == 1)))
    left = (byte >= 3 + first) & (byte < 4 + point)
    right = (byte >= 4 + point) & (byte < 3 + end)
    points = (byte == 4 + point) & ~no_point
    left, right, points = (
        (mask * np.uint8(mark)).astype(np.uint8).reshape(-1, 32).view(np.uint64).T.copy()
        for mask, mark in ((left, 0xFF), (right, 0xFF), (points, ord("."))))
    signs = np.uint64(ord("-")) << (8 * (2 + first.ravel())).astype(np.uint64)
    quad = quad.astype(np.uint8).view(np.uint32).ravel()
    suffix = suffix.astype(np.uint8).view(np.uint64).ravel()
    return quad.astype(np.uint64), suffix, left, right, points, signs


def float_chars(values):
    """The ``repr`` text of each float of ``values``: a uint8 matrix with
    one row of NUL-padded text per value."""
    x = np.asarray(values, dtype=float).ravel()
    if not x.size:
        return np.zeros((0, 0), np.uint8)
    quad, suffix, left, right, points, signs = _layout_tables()
    good, digits, n, decpt = shortest_digits(np.abs(x))
    lead = digits // 10**16
    digits -= lead * 10**16
    upper = digits // 10**8
    digits -= upper * 10**8
    upper_hi, lower_hi = upper // 10000, digits // 10000
    digit_words = (
        quad[lead] << 32 | np.uint64(0x30000000),
        quad[upper - upper_hi * 10000] << 32 | quad[upper_hi],
        quad[digits - lower_hi * 10000] << 32 | quad[lower_hi],
    )
    del lead, upper, upper_hi, lower_hi
    exponent_form = (decpt <= -4) | (decpt > 16)
    cls = np.where(exponent_form, _EXP_CLASS, decpt + 3)
    code = cls * _MAX_DIGITS + n - 1
    words = np.empty((x.size, 4), np.uint64)
    carry = np.uint64(0)
    for j, word in enumerate(digit_words):
        moved = word & right[j][code]
        text = word & left[j][code]
        text |= moved << 8
        text |= carry
        text |= points[j][code]
        carry = moved >> 56
        words[:, j] = text
    words[:, 0] |= signs[code] * np.signbit(x)
    # the block's text lies in bytes lo..hi-1 of every row; a row of class
    # c has its sign at byte 2 + min(c, 4)
    lo = 2 + min(int(cls.min()), 4)
    if exponent_form.any():
        carry |= suffix[decpt + 349] * exponent_form
        hi = 30
    else:
        hi = 8 + int(np.maximum(n, decpt + 1).max())
    words[:, 3] = carry
    chars = words.view(np.uint8)
    for i in np.flatnonzero(~good).tolist():
        text = repr(float(x[i])).encode()
        chars[i] = 0
        chars[i, lo:lo + len(text)] = np.frombuffer(text, np.uint8)
        hi = max(hi, lo + len(text))
    return chars[:, lo:hi]


def int_chars(values):
    """The decimal text of each integer 0 <= v < 10**16 of ``values``: a
    uint8 matrix with one row of right-aligned, NUL-padded text per value."""
    quad = _layout_tables()[0]
    v = np.asarray(values, dtype=np.int64)
    width = len(str(int(v.max()))) if v.size else 1
    n_words = (width + 7) // 8
    words = np.empty((v.size, n_words), np.uint64)
    for j in range(n_words):
        group = v // 10 ** (8 * (n_words - 1 - j))
        if j:
            group %= 10**8
        high = group // 10000
        words[:, j] = quad[group - high * 10000] << 32 | quad[high]
    chars = words.view(np.uint8)[:, -width:]
    # a value of d digits keeps its last d characters: its leading zeros go
    keep = np.ascontiguousarray(np.tril(np.full((width, width), 0xFF, np.uint8))[:, ::-1])
    digits = np.searchsorted(10 ** np.arange(1, width), v, side="right")
    chars &= keep.view(f"V{width}").ravel()[digits].view(np.uint8).reshape(-1, width)
    return chars
