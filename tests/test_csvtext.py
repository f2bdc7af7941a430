"""The CSV text kernel: its bytes are format(x, ".17g") for every float64,
joined by "," and ended by "\\n", whatever the block's shape and layout."""
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geostep
from geostep import _csvtext
from geostep._csvtext import csv_rows


def _bits(*values):
    """The 64-bit patterns of `values`."""
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def _neighbours(values):
    """Each value, the floats one ulp either side, and their negatives."""
    x = np.array(values, dtype=np.float64)
    out = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    return np.concatenate([out, -out]).tolist()


POWERS = _neighbours([float(f"1e{k}") for k in range(-323, 309)])
# 18 significant digits ending in 5, exactly: 15 integer digits and a
# fraction of eighths, 16 integer digits and a fraction of quarters
TIES = ([123456789012345.625, 987654321098765.125, 100000000000000.375,
         999999999999999.875, 1234567890123456.25, 9999999999999998.75]
        + [(2 * k + 1) / 2 * 1e-16 for k in range(200)])
EDGES = _neighbours([1e-280, 1e280, 5e-324, 2.2250738585072014e-308])
INTEGERS = [2.0**53, 9007199254740993.0, 1e16, 1e17, 99999999999999999.0,
            0.0, -0.0, 1.0, 10.0, 99999.0, 100000.0, 123456789.0]
SPECIAL = [np.inf, -np.inf]
NANS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
        0xFFF0000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]


def _reference(x, files):
    return ["".join(",".join(format(float(v), ".17g") for v in row[columns]) + "\n"
                    for row in x).encode() for columns in files]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=96),
       st.integers(1, 4))
@example(_bits(*POWERS), 1)
@example(_bits(*TIES, *(-v for v in TIES)), 2)
@example(_bits(*EDGES), 3)
@example(_bits(*INTEGERS), 4)
@example(_bits(*SPECIAL) + NANS, 2)
def test_property_bytes_equal_format_17g(bits, width):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    x = np.resize(x, (-(-len(x) // width), width))
    # every column alone, all of them, and a reordered layout with a repeat
    files = [[c] for c in range(width)] + [list(range(width))]
    files.append([width - 1, 0, width - 1])
    assert csv_rows(x, files) == _reference(x, files)


def test_blocks_past_the_chunk_sizes():
    # more rows than one conversion pass and many gathers: the parts must
    # join in row order
    rng = np.random.default_rng(5)
    rows = 3 * (_csvtext._VALUES // 3) + 7
    x = rng.integers(0, 2**64, (rows, 3), dtype=np.uint64).view(np.float64)
    x[::5, 1] = rng.standard_normal(len(x[::5]))
    files = [[0, 1], [0, 2], [2]]
    assert csv_rows(x, files) == _reference(x, files)


def test_an_exponent_one_off_takes_the_exact_path(monkeypatch):
    # the fast path's range checks, not log10's accuracy, make its digits
    # certain: with floor(log10 |x|) one too low or too high for two thirds
    # of the values, the text is unchanged
    rng = np.random.default_rng(11)
    x = rng.standard_normal((600, 4)) * 10.0 ** rng.integers(-30, 30, (600, 4))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + rng.integers(-1, 2, a.shape))
    files = [[0, 1, 2, 3]]
    assert csv_rows(x, files) == _reference(x, files)


def test_cli_import_builds_no_table():
    # the tables are built on the first write, not when the CLI is imported
    src = str(Path(geostep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import geostep.cli, geostep._csvtext as t; "
         "print(t.csv_tables.cache_info().currsize)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "0"


def _reference_layout(form, kept, neg):
    """Source offsets of one text and its `,`, form by form."""
    digits, at = _csvtext._DIGITS, _csvtext._AT
    out = [at["-"]] if neg and form != _csvtext._NAN else []
    if form < _csvtext._FIXED:
        e = form - 4
        if e >= 0:
            out += digits[: e + 1]
            if kept > e + 1:
                out += [at["."]] + digits[e + 1 : kept]
        else:
            out += [at["0"], at["."]] + [at["0"]] * (-e - 1) + digits[:kept]
    elif form < _csvtext._NAN:
        wide, minus = divmod(form - _csvtext._FIXED, 2)
        out += digits[:1]
        if kept > 1:
            out += [at["."]] + digits[1:kept]
        out += [at["e"], at["-" if minus else "+"]]
        out += list(range(_csvtext._EXP - 2 - wide, _csvtext._EXP))
    elif form == _csvtext._NAN:
        out += [at["n"], at["a"], at["n"]]
    else:
        out += [at["i"], at["n"], at["f"]]
    return out + [at[","]]


def _reference_tables():
    """`csv_tables` built one power of ten, one group and one key at a time."""
    hi, lo = [], []
    for s in range(_csvtext._S_MIN, _csvtext._S_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den  # correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))  # 10^s - h, rounded
    hi = np.array(hi)
    c = hi * _csvtext._SPLIT
    hi_hi = c - (c - hi)
    pow10 = np.stack([hi, hi_hi, hi - hi_hi, np.array(lo)])
    groups = np.array([np.frombuffer(b"%04d" % i, dtype=np.uint32)[0]
                       for i in range(10_000)], dtype=np.uint32)
    zeros = np.array([len(b"%04d" % i) - len((b"%04d" % i).rstrip(b"0"))
                      for i in range(10_000)], dtype=np.uint8)
    const = np.frombuffer(_csvtext._CONST, dtype=np.uint32)
    slot, keys = _csvtext._SLOT, _csvtext._KEYS
    pattern = np.zeros((keys, slot), dtype=np.uint8)
    length = np.zeros(keys, dtype=np.intp)
    for key in range(keys):
        rest, neg = divmod(key, 2)
        form, kept = divmod(rest, 17)
        offsets = _reference_layout(form, kept + 1, neg)
        pattern[key, : len(offsets)] = offsets
        length[key] = len(offsets) - 1
    mask = np.arange(slot) <= length[:, None]
    return pow10, groups, zeros, const, pattern, mask, length


def test_tables_equal_the_per_key_reference():
    for got, want in zip(_csvtext.csv_tables(), _reference_tables(), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
