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

The tables are built on the first call (a few ms), not at import.
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
_NAN, _INF = 25, 26  # forms 21..24: exponent notation (see _layout)
_KEYS = 27 * 17 * 2
_SPLIT = 134217729.0  # 2^27 + 1
# values converted at a time: 512 rows of 9 columns, so that a 1024-row
# block's temporaries stay under 1 MiB
_VALUES = 4608
_GATHER = 1024  # values laid out at a time: the gather's index array is 200 KB


def _layout(form: int, kept: int, neg: int) -> list[int]:
    """Source offsets of one text and its separator, `,`."""
    digits, at = _DIGITS, _AT
    out = [at["-"]] if neg and form != _NAN else []
    if form < _FIXED:
        e = form - 4
        if e >= 0:
            out += digits[: e + 1]
            if kept > e + 1:
                out += [at["."]] + digits[e + 1 : kept]
        else:
            out += [at["0"], at["."]] + [at["0"]] * (-e - 1) + digits[:kept]
    elif form < _NAN:
        wide, minus = divmod(form - _FIXED, 2)
        out += digits[:1]
        if kept > 1:
            out += [at["."]] + digits[1:kept]
        out += [at["e"], at["-" if minus else "+"]]
        out += list(range(_EXP - 2 - wide, _EXP))
    elif form == _NAN:
        out += [at["n"], at["a"], at["n"]]
    else:
        out += [at["i"], at["n"], at["f"]]
    return out + [at[","]]


@functools.cache
def csv_tables():
    """(10^s as hi, hi's Dekker halves and lo; 4-digit ASCII groups as
    uint32; trailing zeros of each group; the constants as uint32; for
    every key, its pattern of source offsets, slot mask and text length)."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den  # correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))  # 10^s - h, rounded
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    pow10 = np.stack([hi, hi_hi, hi - hi_hi, np.array(lo)])
    i = np.arange(10_000)
    chars = np.stack([i // 10**k % 10 for k in (3, 2, 1, 0)], axis=1) + ord("0")
    groups = chars.astype(np.uint8).view(np.uint32).reshape(-1)
    zeros = sum(i % 10**k == 0 for k in (1, 2, 3, 4)).astype(np.uint8)
    const = np.frombuffer(_CONST, dtype=np.uint32)
    pattern = np.zeros((_KEYS, _SLOT), dtype=np.uint8)
    length = np.zeros(_KEYS, dtype=np.intp)
    for key in range(_KEYS):
        rest, neg = divmod(key, 2)
        form, kept = divmod(rest, 17)
        offsets = _layout(form, kept + 1, neg)
        pattern[key, : len(offsets)] = offsets
        length[key] = len(offsets) - 1
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
