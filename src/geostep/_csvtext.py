"""Exact `%.17g` text of float64 blocks, formed with numpy.

`csv_rows(values, files)` returns, for each file's list of columns of a
(rows, C) block, the bytes of its rows: each value's `format(x, ".17g")`,
`,` between values and `\n` after the last.  Every value is converted once,
however many files use it.

The 17 significant digits D and decimal exponent E of |x| are found as in
Grisu (Loitsch, PLDI 2010): a fast path that is certain when it answers,
and an exact fallback for the rest.  For 1e-280 <= |x| <= 1e280 the fast
path takes E = floor(log10 |x|) and forms y = |x| 10^(16 - E) as a
double-double, from a table of 10^s as hi + lo and Dekker's exact product
(Numer. Math. 18 (1971) 224-242).  Its error is below 5e-15, so D = round(y)
is certain unless y is within 1e-9 of a half.  Such values go to the exact
path, and so do those whose log10 was one off near a power of ten: a y below
10^16 before rounding, or a D of 18 digits after it.  Zero, subnormals,
|x| past the range, inf and NaN go there too.  The exact path takes the
digits from Python's own correctly rounded `'%.16e' % |x|`.

The text is then laid out by one gather: each value's 17 digits (from a
table of 4-digit ASCII groups), exponent digits and the constant
characters form a 36-byte source row, and a pattern table keyed by (form,
digits kept, sign) lists the source bytes of the text and a `,` in order.
A mask drops the unused tail of each 25-byte slot; the last column of a
file has its `,` replaced by `\n`.  The forms are fixed notation for
E = -4..16, exponent notation with 2 or 3 exponent digits of either sign,
nan and inf, as `%g` chooses them.

The tables are built on the first call (about a millisecond), not at
import.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_rows", "csv_tables"]

_SLOT = 25  # the longest text, "-d.<16 digits>e-ddd", and its separator
# a value's source row: five 4-digit groups, whose last 17 bytes are the
# digits, a 4-digit group whose last 3 bytes are the exponent's, then the
# constant characters
_ROW = 36
_DIGITS = list(range(3, 20))
_EXP = 24  # the exponent's digits end here
_CONST = b"-.0e+nainf, "  # padded to whole uint32 words
_AT = {c: _EXP + i for i, c in enumerate(_CONST.decode())}
_S_MIN, _S_MAX = -270, 300  # 10^s in the table; the fast path needs -265..297
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_FIXED = 21  # forms 0..20: fixed notation, E = -4..16
_NAN, _INF = 25, 26  # forms 21..24: exponent notation (see _patterns)
_KEYS = 27 * 17 * 2
_SPLIT = 134217729.0  # 2^27 + 1
# values converted at a time: 512 rows of 9 columns, so that a 1024-row
# block's temporaries stay under 1 MiB
_VALUES = 4608
_GATHER = 1024  # values laid out at a time: the gather's index array is 200 KB


def _patterns() -> tuple[np.ndarray, np.ndarray]:
    """(pattern, length) of every key: the source offsets of its text and
    its `,`, then zeros, and the text's length.

    A text is a sign, then m characters of a base row, then the form's
    suffix (the exponent, or nan or inf) and `,`.  The base row is the
    digits with `.` after the first `point` of them (E + 1 in fixed
    notation from E = 0, else 1); fixed notation below E = 0 has -E zeros
    ahead of the digits.  With K digits kept, zeros included, the text
    shows m = max(point, K + (K > point)) characters of it, and none for
    nan and inf.  A negative key's pattern is its positive one behind a
    `-`, except nan's, which has no sign."""
    at, form = _AT, np.arange(_NAN + 2)[:, None]
    e = form - 4
    fixed = form < _FIXED
    lead = np.where(fixed, np.maximum(-e, 0), 0)
    point = np.where(fixed & (e >= 0), e + 1, 1)
    width = 4 + 17 + 1  # the longest base row: "0.000", then 17 digits
    q = np.arange(width)
    digit = np.where(q < lead, at["0"], _DIGITS[0] + q - lead)  # the row without "."
    base = np.where(q < point, digit, at["."])
    base[:, 1:] = np.where(q[1:] > point, digit[:, :-1], base[:, 1:])
    suffixes = [[]] * _FIXED + [
        [at["e"], at["-" if minus else "+"], *range(_EXP - 2 - wide, _EXP)]
        for wide in (0, 1) for minus in (0, 1)
    ] + [[at["n"], at["a"], at["n"]], [at["i"], at["n"], at["f"]]]
    # each form's base row, suffix and `,`, then a zero at `width + 6`
    source = np.zeros((len(form), width + 7), dtype=np.uint8)
    source[:, :width] = base
    for f, suffix in enumerate(suffixes):
        source[f, width : width + len(suffix) + 1] = suffix + [at[","]]
    ends = np.array([len(suffix) + 1 for suffix in suffixes])[:, None, None]
    kept = lead + np.arange(1, 18)
    m = np.where(form < _NAN, np.maximum(point, kept + (kept > point)), 0)[..., None]
    q = np.arange(_SLOT)
    at_q = np.where(q < m, q, np.where(q - m < ends, width + q - m, width + 6))
    positive = np.take_along_axis(source[:, None], at_q, axis=2)
    negative = np.empty_like(positive)
    negative[..., 0] = at["-"]
    negative[..., 1:] = positive[..., :-1]  # a positive text ends short of the slot
    negative[_NAN] = positive[_NAN]  # nan has no sign
    length = m[..., 0] + ends[..., 0] - 1
    pattern = np.stack([positive, negative], axis=2).reshape(_KEYS, _SLOT)
    return pattern, np.stack([length, length + (form != _NAN)], axis=2).reshape(_KEYS)


@functools.cache
def csv_tables():
    """(10^s as hi, hi's Dekker halves and lo; 4-digit ASCII groups as
    uint32; trailing zeros of each group; the constants as uint32; for
    every key, its pattern of source offsets, slot mask and text length).

    hi and lo come from exact integer arithmetic, elementwise on object
    arrays: hi = num / den correctly rounded, hi = a / 2^j exactly, and lo
    = (num 2^j - a den) / (den 2^j) rounded, with num / den = 10^s."""
    tens = np.multiply.accumulate(np.full(_S_MAX, 10, dtype=object))  # 10^1 ..
    num = np.concatenate([np.ones(1 - _S_MIN, dtype=object), tens])
    den = np.concatenate([tens[-_S_MIN - 1 :: -1], np.ones(1 + _S_MAX, dtype=object)])
    hi = (num / den).astype(float)
    mantissa, exponent = np.frexp(hi)
    j = 53 - exponent  # hi = a 2^-j, a an integer
    a = (mantissa * 2.0**53).astype(np.int64).astype(object) << np.maximum(-j, 0)
    j = np.maximum(j, 0)
    lo = (((num << j) - a * den) / (den << j)).astype(float)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    pow10 = np.stack([hi, hi_hi, hi - hi_hi, lo])
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # group i's digits, i = 0..9999
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for k in range(4):
        chars[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    groups = chars.view(np.uint32).reshape(-1)
    zeros = np.zeros(10_000, dtype=np.uint8)
    for k in (1, 2, 3, 4):
        zeros[:: 10**k] += 1
    const = np.frombuffer(_CONST, dtype=np.uint32)
    pattern, length = _patterns()
    mask = np.arange(_SLOT) <= length[:, None]
    return pow10, groups, zeros, const, pattern, mask, length


def _digits(x: np.ndarray, pow10) -> tuple[np.ndarray, np.ndarray]:
    """(D, E) of every value, as int64; D = 0 where x is not finite."""
    a = np.abs(x)
    fast = a >= _FAST_MIN
    fast &= a <= _FAST_MAX
    np.copyto(a, 1.0, where=~fast)
    e = np.floor(np.log10(a)).astype(np.int64)
    at = 16 - _S_MIN - e
    hi, hi_hi, hi_lo, lo = (row.take(at) for row in pow10)
    # y = a 10^(16 - e) as yh + yl: Dekker's exact product of a and hi, its
    # error term summed in his order, plus a lo
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p = a * hi
    t = a_hi * hi_hi
    t -= p
    t += np.multiply(a_hi, hi_lo, out=a_hi)
    t += np.multiply(a_lo, hi_hi, out=hi_hi)
    t += np.multiply(a_lo, hi_lo, out=hi_lo)
    t += np.multiply(a, lo, out=lo)
    yh = np.add(p, t, out=hi)
    p -= yh
    t += p
    yl = t  # t - (yh - p), with p - yh formed in place
    r = np.rint(yl, out=a)
    # the error of yh + yl is below 5e-15, so the rounding is certain away
    # from halves; the log10 may be one off near a power of ten, which
    # shows as a y, before rounding, below 10^16, or a D of 18 digits
    fast &= np.abs(np.subtract(yl, r, out=a_lo), out=a_lo) < 0.5 - 1e-9
    fast &= (yh > 1e16) | ((yh == 1e16) & (yl >= 0))
    d = yh.astype(np.int64)
    d += r.astype(np.int64)
    fast &= d < 10**17
    finite = np.isfinite(x)
    d[~finite] = 0
    for i in np.flatnonzero(finite & ~fast):
        text = "%.16e" % abs(x[i])
        d[i] = int(text[0] + text[2:18])
        e[i] = int(text[19:])
    return d, e


def csv_rows(values: np.ndarray, files: list[list[int]]) -> list[bytes]:
    """Rows of each file as bytes: for every row of the float64 block
    `values`, the `%.17g` text of its columns `files[i]` joined by `,` and
    ended by `\\n`; equal to formatting each value with format(x, ".17g")."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    step = max(1, _VALUES // values.shape[1])
    parts = [_rows(values[i : i + step], files)
             for i in range(0, len(values), step)]
    return [b"".join(part[f] for part in parts) for f in range(len(files))]


def _rows(values: np.ndarray, files: list[list[int]]) -> list[bytes]:
    """`csv_rows` of a block of at most _VALUES values."""
    pow10, groups, zeros, const, pattern, mask, length = csv_tables()
    rows, width = values.shape
    x = values.reshape(-1)
    with np.errstate(all="ignore"):
        d, e = _digits(x, pow10)
    # 17 digits: the lead digit and four groups of 4
    top = d // 10**16
    d -= top * 10**16
    high = d // 10**8
    d -= high * 10**8
    g = [top, high // 10**4, high % 10**4, d // 10**4, d % 10**4]
    src = np.empty((len(x), _ROW // 4), dtype=np.uint32)
    for i, group in enumerate(g):
        src[:, i] = groups.take(group)
    src[:, 5] = groups.take(np.minimum(np.abs(e), 9999))
    src[:, 6:] = const
    # digits kept: 17 less the trailing zeros (16 at most, for D = 0)
    kept = 17 - zeros.take(g[4])
    empty = g[4] == 0
    for group in (g[3], g[2], g[1]):
        kept -= empty * zeros.take(group)
        empty &= group == 0
    del g, top, high, d, empty
    form = np.where((e >= -4) & (e <= 16), e + 4,
                    _FIXED + (e < 0) + 2 * (np.abs(e) >= 100))
    form[np.isnan(x)] = _NAN
    form[np.isinf(x)] = _INF
    key = (form * 17 + kept - 1) * 2 + np.signbit(x)
    del form, kept, e
    # the gather, a chunk at a time so that its index array stays small
    text = np.empty((len(x), _SLOT), dtype=np.uint8)
    flat = src.view(np.uint8).reshape(-1)
    for lo in range(0, len(x), _GATHER):
        hi = min(lo + _GATHER, len(x))
        at = np.arange(lo * _ROW, hi * _ROW, _ROW)[:, None] + pattern.take(
            key[lo:hi], axis=0)
        flat.take(at, out=text[lo:hi], mode="clip")
    del src, flat
    text = text.reshape(rows, width, _SLOT)
    key = key.reshape(rows, width)
    every = np.arange(rows)
    out = []
    for columns in files:
        t = text.take(columns, axis=1)
        t[every, -1, length.take(key[:, columns[-1]])] = ord("\n")
        out.append(t[mask.take(key[:, columns], axis=0)].tobytes())
    return out
