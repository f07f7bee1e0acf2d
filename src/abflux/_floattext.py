"""Shortest round-trip (``repr``) text of whole arrays of numbers at once,
and the numbers of such text.

:func:`float_chars` gives the ``repr`` text of every float of an array and
:func:`int_chars` the decimal text of every non-negative integer, each as a
NUL-padded uint8 character matrix with one row per value, for the CSV
writers of :mod:`abflux.io` to lay side by side.  :func:`float_rows` reads
the numbers of comma-separated lines back, each as ``float`` reads it, for
the CSV reader.
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
# as a double-double by _times_power: the exact (Dekker) product of a and
# the nearest double to 10**k, both split into 26-bit halves since numpy has
# no FMA, plus a times the rest of 10**k.  Its error is below 1e-13.  The
# decimals that read back as a are those in y +- h, h = half an ulp of a
# scaled alike, which is 0.55 to 22 units of y.  repr's digits are the multiple of the
# largest power 10**K that this interval holds, and of those the one
# nearest y.  The interval ends and the rounding are decided on the
# fraction of y, and a value whose fraction falls within _SLACK (far above
# the error) of an interval end or of a tie takes ``repr`` itself; so do
# zeros, infinities, nans, subnormals, exact powers of two (whose interval
# is not symmetric) and the extreme exponents.
_SLACK = 1e-9
_MAX_DIGITS = 17
_EXP_CLASS = 20         # layout classes 0..19 are fixed notation, decpt + 3
# The powers of ten in the tables: shortest_digits scales by 10**(16 - e)
# from 10**-291 (e = 307, the binade below the top one) to 10**308, the
# largest power a double holds.
_POWER_MIN, _POWER_MAX = -291, 308


def _round26(x):
    """``x`` (positive doubles) rounded to their 26 leading bits."""
    bits = x.view(np.uint64)
    return ((bits + np.uint64(1 << 26)) & np.uint64(2**64 - 2**27)).view(np.float64)


@functools.cache
def _powers_of_ten():
    """10**k for k = _POWER_MIN.._POWER_MAX as head + tail (its nearest
    double split into 26-bit halves) + low (the rest of it), one array
    each, indexed by k - _POWER_MIN."""
    near, low = [], []
    for power in range(_POWER_MIN, _POWER_MAX + 1):
        if power >= 0:
            near.append(float(10**power))
            low.append(float(10**power - int(near[-1])))
        else:
            scale = 10**-power
            near.append(1 / scale)
            num, den = near[-1].as_integer_ratio()
            low.append((den - num * scale) / (den * scale))
    near = np.array(near)
    head = _round26(near)
    return head, near - head, np.array(low)


@functools.cache
def _exponent_tables():
    """Per biased binary exponent b = 0..2047: whether it takes the fast
    path, the decimal exponent e, 10**(16 - e) as head + tail + low (from
    _powers_of_ten), and h."""
    b = np.arange(2048)
    e = ((b - 1023) * 78913) >> 18          # floor((b - 1023) log10 2)
    k = 16 - e
    # not subnormals, nor the top binade (rounding it to 26 bits can
    # overflow), nor 10**k past the largest double
    fast = (b > 0) & (b < 2046) & (k <= _POWER_MAX)
    index = np.where(fast, k - _POWER_MIN, 0)
    head, tail, low = (np.where(fast, table[index], 0.0) for table in _powers_of_ten())
    return fast, e, head, tail, low, np.ldexp(head + tail, b - 1076)


def _times_power(a, head, tail, low):
    """a * (head + tail + low), a power of ten from _powers_of_ten, as the
    double-double product + lo: Dekker's exact product of a and head + tail
    (the power's 26-bit halves), with a split alike since numpy has no FMA,
    plus a * low.

    shortest_digits and _nearest both form their products here, so the
    writer and the reader scale a value alike, bit for bit.
    """
    product = a * (head + tail)
    part = _round26(a)
    lo = part * head
    lo -= product
    term = part * tail
    lo += term
    np.subtract(a, part, out=part)
    np.multiply(part, head, out=term)
    lo += term
    np.multiply(part, tail, out=term)
    lo += term
    np.multiply(a, low, out=term)
    lo += term
    return product, lo


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
    product, lo = _times_power(a, head_b[b], tail_b[b], low_b[b])    # y = product + lo
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


# How decimal_values reads decimal text back as the double ``float`` gives,
# with numpy and no big integers, as Clinger (PLDI 1990) and Eisel-Lemire
# (Lemire, Softw. Pract. Exp. 51, 2021) do it.
#
# A text is a sign, a significand of digits with at most one point, and at
# its end an optional exponent of two or three digits ("e-05", "e+123").
# The significand gives an integer w < 10**18 and the point and exponent a
# power q, so that the text names w * 10**q.  The digits are read from
# unaligned 8-byte words, eight at a time (SWAR): the lead digit and up to
# 16 after it, or, with more than one digit before the point, up to 16 on
# each side of it.  Where w < 2**53 and |q| <= 22, w and 10**|q| are exact
# doubles, and one multiplication or division rounds w * 10**q (Clinger's
# fast path).  Elsewhere w * 10**q is formed as a double-double by
# _times_power, which also forms shortest_digits' y: Dekker's exact product
# of a, the double nearest w, and head + tail of 10**q, plus a times low;
# _nearest adds (w - a) times 10**q.  Its error is below 1e-15 ulp.  One
# rounding of that sum gives the double, which stands where the sum lies
# farther than _SLACK ulp from a tie.  From 10**-291, the least power in the
# tables, on, every part of the double-double is a normal double.  Other
# texts take ``float``: inf, nan, underscores, spaces, more than 16 digits
# on one side of the point, and powers of ten below 10**-291 or past the
# largest double.
PAD = 24                # zero bytes before the first text (see padded)


def _eight_digits(x):
    """The values of words of eight digits 0..9, one per byte, the first in
    the lowest byte."""
    x = x * np.uint64(2561) >> np.uint64(8)
    x = (x & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601) >> np.uint64(16)
    return (x & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001) >> np.uint64(32)


@functools.cache
def _digit_tables():
    """Per count c = 0..16: the masks that keep the last c bytes of two
    words, and 10**c."""
    c = np.arange(17)[:, None]
    keep = np.where(np.arange(16) >= 16 - c, 0xFF, 0).astype(np.uint8).view(np.uint64)
    return (*keep.T.copy(), 10 ** np.arange(17, dtype=np.uint64))


def _digits(hi, lo, count):
    """The value of the last ``count`` (0..16) characters of the 16 bytes
    in the words ``hi`` and ``lo``, and whether they are all digits."""
    keep_hi, keep_lo, _ = _digit_tables()
    zeros = np.uint64(0x3030303030303030)
    # the kept characters less "0", the other bytes 0
    keep = keep_hi[count]
    hi &= keep
    keep &= zeros
    hi -= keep
    keep = keep_lo[count]
    lo &= keep
    keep &= zeros
    lo -= keep
    # a byte is a digit 0..9 where neither it nor it plus 0x76 has its top bit set
    up = np.uint64(0x7676767676767676)
    bad = (hi + up) | hi | (lo + up) | lo
    good = bad & np.uint64(0x8080808080808080) == 0
    return good, _eight_digits(hi) * np.uint64(10**8) + _eight_digits(lo)


@functools.cache
def _exact_powers():
    """For q = -22..22, the factor 10**q (q >= 0) and the divisor 10**-q
    (q < 0) of Clinger's fast path, each 1 otherwise."""
    q = np.arange(-22, 23)
    return 10.0 ** np.maximum(q, 0), 10.0 ** np.maximum(-q, 0)


def _nearest(w, q):
    """The double nearest each w * 10**q (integers w < 10**18), and
    whether it is certain."""
    head_k, tail_k, low_k = _powers_of_ten()
    k = q - _POWER_MIN
    good = (k >= 0) & (k <= _POWER_MAX - _POWER_MIN)
    np.clip(k, 0, _POWER_MAX - _POWER_MIN, out=k)
    head = head_k[k]
    tail = tail_k[k]
    a = w.astype(np.float64)
    product, lo = _times_power(a, head, tail, low_k[k])
    # plus the part of w that a lacks times 10**q
    np.subtract(w.view(np.int64), a.astype(np.int64), out=k)
    lo += k * (head + tail)
    del head, tail
    value = product + lo
    product -= value
    lo += product                   # the double-double lies at value + lo
    # certain where lo is short of half an ulp of value by _SLACK ulp; the
    # ulp below a power of two is half the ulp above it
    base = (value.view(np.uint64) & np.uint64(0x7FF0000000000000)).view(np.float64)
    limit = base * ((0.5 - _SLACK) * 2.0**-52)
    limit[(lo < 0) & (value == base)] *= 0.5
    np.abs(lo, out=lo)
    good &= lo < limit              # false where value overflowed: lo is inf or nan
    good |= w == 0
    return good, value


def _last_words(chars, ends, n):
    """The 8 * n bytes before each byte ``ends`` of ``chars`` as n
    little-endian words, the rows of an (n, len(ends)) array."""
    rows = np.ndarray((chars.size - 8 * n + 1,), f"V{8 * n}", chars, strides=(1,))[ends - 8 * n]
    return rows.view(np.uint64).reshape(-1, n).T.copy()


def padded(text):
    """The bytes ``text`` as a uint8 array after PAD zero bytes: the layout
    :func:`decimal_values` and :func:`float_rows` read."""
    chars = np.zeros(PAD + len(text), np.uint8)
    chars[PAD:] = np.frombuffer(text, np.uint8)
    return chars


@np.errstate(over="ignore", invalid="ignore")
def decimal_values(chars, starts, ends):
    """The double that ``float`` reads from each decimal text
    ``chars[starts[i]:ends[i]]``, ``chars`` in the layout of :func:`padded`.

    Returns ``(good, values)``: where ``good``, the entry of ``values`` is
    ``float`` of the text, bit for bit.  The other texts need ``float``.
    """
    length = ends - starts
    if 0 < length.min(initial=1) and length.max(initial=0) <= 16:
        # integers of up to 16 digits, such as hit indices, need no more
        good, w = _digits(*_last_words(chars, ends, 2), length)
        if good.all() and w.max(initial=0) < 2**53:
            return good, w.astype(np.float64)
    minus = chars[starts] == ord("-")
    first = starts + minus
    # the last 24 bytes of each text, before its end t, as three words; the
    # exponent ("e-" or "e+", 0x2D65 or 0x2B65, at byte t-4 or t-5) lies in
    # the last
    words = _last_words(chars, ends, 3)
    tail = words[2]
    two = tail >> np.uint64(32) & np.uint64(0xFFFF)
    three = tail >> np.uint64(24) & np.uint64(0xFFFF)
    short = (two == 0x2D65) | (two == 0x2B65)
    long = ((three == 0x2D65) | (three == 0x2B65)) & ~short
    exp = np.zeros(ends.size, np.int64)
    last = ends                     # the end of the significand
    if short.any() or long.any():
        sign = np.where(short, two, three) >> np.uint64(8)      # "+" 0x2B or "-" 0x2D
        # bytes t-3..t-1, with "0" for the sign of a two-digit exponent
        digits = tail >> np.uint64(40)
        digits += short * (np.uint64(48) - sign)
        bad = (digits + np.uint64(0x464646)) | (digits - np.uint64(0x303030))
        marked = (short | long) & (bad & np.uint64(0x808080) == 0)
        exp = ((digits & np.uint64(0xFF)) * np.uint64(100) + (digits >> np.uint64(8) & np.uint64(0xFF))
               * np.uint64(10) + (digits >> np.uint64(16))).view(np.int64) - 5328
        exp *= (44 - sign.view(np.int64)) * marked
        cut = marked * (4 + long)   # bytes of the exponent
        last = ends - cut
        # move the 16 bytes before the exponent into words 1 and 2
        left = (cut * 8).astype(np.uint64)
        right = np.uint64(64) - left
        words[2] <<= left
        words[2] |= words[1] >> right
        words[1] <<= left
        words[1] |= words[0] >> right
    # the lead digit, and up to 16 digits after it and the point, if any
    lead = chars[first] - np.uint8(48)
    point = chars[np.minimum(first + 1, last)] == ord(".")
    count = last - first - 1 - point
    good = (lead <= 9) & (count >= 0) & (count <= 16)
    count *= good
    ok, rest = _digits(words[1], words[2], count)
    good &= ok
    w = lead * _digit_tables()[2][count] + rest
    q = exp - count * point
    again = np.flatnonzero(~good)
    if again.size:
        good[again], w[again], q[again] = _point_digits(chars, first[again], last[again])
        q[again] += exp[again]
    # Clinger's fast path: w and 10**|q| are exact doubles, and one
    # multiplication or division rounds their product or quotient
    mul, div = _exact_powers()
    index = np.clip(q, -22, 22) + 22
    values = w.astype(np.float64) * mul[index] / div[index]
    rest = np.flatnonzero((w >= 2**53) | (q < -22) | (q > 22))
    if rest.size:
        certain, values[rest] = _nearest(w[rest], q[rest])
        good[rest] &= certain
    values.view(np.uint64)[:] |= minus.astype(np.uint64) << np.uint64(63)
    return good, values


def _point_digits(chars, begin, end):
    """The significands ``chars[begin:end]`` of up to 16 digits on either
    side of a point: whether each is one, and its w and the power q < 0."""
    at = end.copy()             # the first point, or the end
    for a in range(16, -1, -1):
        np.copyto(at, begin + a, where=(begin + a < end) & (chars[np.minimum(begin + a, end)] == ord(".")))
    whole = at - begin
    frac = np.maximum(end - at - 1, 0)
    good = (whole <= 16) & (frac <= 16) & (whole + frac >= 1) & (whole + frac <= 18)
    whole *= good
    frac *= good
    ok_whole, w_whole = _digits(*_last_words(chars, at, 2), whole)
    ok_frac, w_frac = _digits(*_last_words(chars, end, 2), frac)
    return good & ok_whole & ok_frac, w_whole * _digit_tables()[2][frac] + w_frac, -frac


def text_fields(chars):
    """The start and end of each field of the text in ``chars`` (the layout
    of :func:`padded`), ended by a comma, a newline or a carriage return."""
    ends = np.flatnonzero((chars == ord(",")) | (chars == ord("\n")) | (chars == ord("\r")))
    starts = np.empty_like(ends)
    starts[:1] = PAD
    starts[1:] = ends[:-1] + 1
    return starts, ends


def float_rows(chars, n_fields):
    """The numbers of the text in ``chars`` (the layout of :func:`padded`):
    lines of ``n_fields`` comma-separated fields that each end in a
    newline, as a (lines, n_fields) float array, each field as ``float``
    reads it.

    Raises ValueError where a line holds another number of fields, a field
    is not a number, or the text holds a carriage return, which text mode
    reads as a line end.
    """
    starts, ends = text_fields(chars)
    rows = ends.size // n_fields
    marks = np.full(n_fields, ord(","), np.uint8)
    marks[-1] = ord("\n")
    if ends.size != rows * n_fields or (chars[ends].reshape(rows, n_fields) != marks).any():
        raise ValueError(f"a line does not hold {n_fields} fields")
    values = np.empty((rows, n_fields))
    # column by column, since a column's texts share their form
    for j in range(n_fields):
        begin, end = starts[j::n_fields].copy(), ends[j::n_fields].copy()
        good, values[:, j] = decimal_values(chars, begin, end)
        for i in np.flatnonzero(~good).tolist():
            values[i, j] = float(chars[begin[i]:end[i]].tobytes().decode())
    return values
