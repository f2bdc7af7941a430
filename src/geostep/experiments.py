"""Scenario runner: canned oscillator experiments, CSV artifacts and the
long-run behavior study.

This is where a run becomes artifacts, through `run_and_write` for the
command line's `integrate` and for scenarios alike.  A scenario's method
string becomes a scheme through `methods.resolve_scheme`.

A scenario is one integrator run on the harmonic oscillator with fixed
parameters.  Runs write up to three CSV artifacts (phase, energy, error),
each decimated by `stride`, plus a flat key-value summary.  The CSVs are
streamed together in fixed blocks of _CSV_BLOCK rows.  Each block's text
comes from one numpy kernel, `_csvtext.csv_rows`: it converts every value
of the block once, the `step,t` lead included, and picks each file's
columns from the result.  Its digits come from a double-double fast path,
with Python's own correctly rounded '%.16e' as the exact fallback, so the
text is byte-identical to formatting every value with format(x, ".17g").
From _PARALLEL_ROWS written rows on (32768), where the process may use two
CPUs and `os.fork` exists, a forked child formats the second half of the
rows while the caller formats the first; the bytes written do not depend on
the split.  The kernel's tables are built before the fork, so the child
builds nothing.
Every artifact, the summary too, is rewritten in place: opened without
O_TRUNC, its header (the summary's whole text) written over its start and
the file cut right after it, never to zero; a run stopped or killed part
way leaves the header and the rows written.  On ext4 a just-written file
truncated to zero or renamed over is flushed on close (auto_da_alloc):
rewriting 60 KB took 33-63 ms with O_TRUNC, 28-60 ms by `os.replace`
and 0.01 ms in place.
Summary statistics (max deviation, slope, radius deviation,
classification) are always computed at full resolution, never from the
decimated files.  They are formed in blocks of _STAT_BLOCK rows (8192)
that stay in cache, in one walk over those blocks, `_scan`, which takes
the crossing, the energy deviation, the radius deviation and the drift
slope together; no temporary is as long as the run.  The peaks have the
bits of their formulas over whole arrays.  The slope is the exact
least-squares slope of the energies against t_j = h j, rounded once: each
block adds its exact integer sums of H_j and j H_j to two Python ints, an
integer form of the error-free summation of Rump, Ogita & Oishi (SIAM J.
Sci. Comput. 31 (2008) 189-224).
`run_and_write` streams the run: `integrators._stream` hands it chunks of
_CHUNK states (32768) in one reused buffer, and `_fold` takes from each
its energies, `_scan`'s fold (`_Scan`), its written rows and the last
state.  The exact-error channel is evaluated only at the written rows and,
for `finalError`, the last row.  Beyond its written rows a run holds no
array as long as the run, so 10^6 and 3 10^7 steps peak alike, and its
artifacts and statistics are byte-identical to writing and scanning the
whole `integrate` run.

Long runs are classified as bounded, drifting or exploding from the energy
record, against two fixed thresholds.  Exploding is detected by the energy
crossing EXPLODE_FACTOR (1000) times H_0, or, when H_0 <= 0, by |y|^2
crossing the same multiple of |y_0|^2; a non-finite value counts as a
crossing, so a run that overflows to NaN explodes.  Drift statistics for
such runs are taken over the pre-crossing prefix so they stay finite.  A
run that does not explode is bounded when both its largest deviation from
H_0 and its fitted drift over the run stay within BOUNDED_FRACTION (1 %) of
|H_0|.
"""
from __future__ import annotations

from contextlib import ExitStack, contextmanager
import dataclasses
from dataclasses import dataclass
import gc
import math
import os
from pathlib import Path
import shutil
import signal
import sys
import tempfile
from typing import NoReturn

import numpy as np

# builtin_pairs is bound here for callers that read the registry through
# this module, as the benchmark's set-up probe does
from .methods import _NAME_RE, Scheme, _read_fields, builtin_pairs, resolve_scheme
from .integrators import STARTERS, StepFailure, Trajectory, _errors, _stream
from ._csvtext import csv_rows, csv_tables
from .systems import LinearHamiltonian, _energy_rows, sho

__all__ = [
    "Scenario",
    "ScenarioResult",
    "builtin_scenarios",
    "figure_scenarios",
    "parse_scenario",
    "format_scenario",
    "run_scenario",
    "run_and_write",
    "RunRecord",
    "classify",
    "write_artifacts",
]

OUTPUT_KINDS = ("phase", "energy", "error")

BOUNDED_FRACTION = 0.01  # of |H_0|, for both deviation and trend
EXPLODE_FACTOR = 1e3  # of H_0, or of |y_0|^2 when H_0 <= 0


def _check_written(stride: int, outputs: tuple[str, ...]) -> None:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    bad = [o for o in outputs if o not in OUTPUT_KINDS]
    if bad:
        raise ValueError(f"unknown outputs {bad}")


@dataclass(frozen=True)
class Scenario:
    """One named oscillator run."""

    name: str
    method: str  # registry name, or "first,second" for a partitioned pair
    omega: float = 1.0
    h: float = 0.1
    steps: int = 1000
    q0: float = 1.0
    p0: float = 0.0
    starter: str = "rk4"
    stride: int = 1
    outputs: tuple[str, ...] = OUTPUT_KINDS

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"bad scenario name {self.name!r}")
        if not 0 < self.h < np.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        for key, value in (("q0", self.q0), ("p0", self.p0)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.starter not in STARTERS:
            raise ValueError(f"unknown starter {self.starter!r}")
        _check_written(self.stride, self.outputs)


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    files: dict[str, str]
    h0: float
    max_deviation: float
    slope: float
    final_error: float | None
    radius_deviation: float | None
    classification: str
    crossing_step: int | None
    failed_step: int | None
    warnings: tuple[str, ...]


# ---------------------------------------------------------------------------
# built-in scenarios


def builtin_scenarios(steps: int | None = None) -> list[Scenario]:
    """The canned oscillator runs, in deterministic (sorted) order.

    `steps` overrides the per-scenario default step count.
    """
    long = 1_000_000
    defs = [
        Scenario("fig1-explicit-euler", "explicit-euler", steps=1000),
        Scenario("fig1-implicit-euler", "implicit-euler", steps=1000),
        Scenario("fig2-m1", "m1-as-printed", steps=long, stride=1000),
        Scenario("fig2-m1-corrected", "m1-corrected", steps=long, stride=1000),
        Scenario("fig3-pc", "pc-m2", steps=long, stride=1000),
        Scenario(
            "fig4-partitioned", "m3-line1,m3-line2-as-printed", steps=long, stride=1000
        ),
        Scenario(
            "fig4-partitioned-corrected", "m3-line1,m3b-corrected",
            steps=long, stride=1000,
        ),
    ]
    if steps is not None:
        defs = [dataclasses.replace(s, steps=steps) for s in defs]
    return sorted(defs, key=lambda s: s.name)


def figure_scenarios(figure: int, steps: int | None = None) -> list[Scenario]:
    """Scenarios belonging to one canned figure-style experiment: the
    built-ins named `fig<figure>-...`, in name order."""
    found = [s for s in builtin_scenarios(steps) if s.name.startswith(f"fig{figure}-")]
    if not found:
        raise ValueError(f"unknown figure {figure}; expected 1..4")
    return found


# ---------------------------------------------------------------------------
# text format (the method files' line grammar, `methods._read_fields`)

_SCENARIO_KEYS = (
    "scenario", "method", "omega", "h", "steps", "q0", "p0",
    "starter", "stride", "outputs",
)


def parse_scenario(text: str) -> Scenario:
    """Parse one scenario from the line-based text format."""
    fields, _ = _read_fields(text, _SCENARIO_KEYS, ("scenario", "method"), ValueError)
    kw: dict = {"name": fields["scenario"], "method": fields["method"]}
    try:
        for key, conv in (
            ("omega", float), ("h", float), ("q0", float), ("p0", float),
            ("steps", int), ("stride", int),
        ):
            if key in fields:
                kw[key] = conv(fields[key])
    except ValueError as exc:
        raise ValueError(f"malformed numeric field: {exc}") from exc
    if "starter" in fields:
        kw["starter"] = fields["starter"]
    if "outputs" in fields:
        kw["outputs"] = tuple(
            t.strip() for t in fields["outputs"].split(",") if t.strip()
        )
    return Scenario(**kw)


def format_scenario(s: Scenario) -> str:
    """Serialize a scenario; parse_scenario inverts this exactly."""
    lines = [
        f"scenario: {s.name}",
        f"method: {s.method}",
        f"omega: {s.omega!r}",
        f"h: {s.h!r}",
        f"steps: {s.steps}",
        f"q0: {s.q0!r}",
        f"p0: {s.p0!r}",
        f"starter: {s.starter}",
        f"stride: {s.stride}",
        f"outputs: {','.join(s.outputs)}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# running


_CSV_BLOCK = 1024  # rows formatted and written per call; keeps memory flat
# From this many written rows on, a forked child formats the second half.
# Forking, reaping the child and copying its rows back cost several ms.  On
# a 2-CPU host (medians of 31-61 alternated writes, over several rounds)
# the split took x0.93-x1.48 of the serial time at 16 blocks for the
# cheapest rows (1-DOF, energy alone, about 1 us a row), x0.72-x0.79 at 24
# blocks and x0.66-x0.72 at 32 blocks; 2-DOF rows with all three files
# (about 3 us a row) took x0.72-x0.81 at 16 blocks and x0.63-x0.70 at 32.
# A multiple of _CSV_BLOCK, and at least two blocks, so that both halves
# are whole blocks and neither is empty.
_PARALLEL_ROWS = 32 * _CSV_BLOCK


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _rewrite(path: str | Path, head: bytes):
    """`path` opened for writing without O_TRUNC, `head` written over its
    start and the file cut right after it: later writes append, and no byte
    of an earlier file outlives the head, even if the process is killed."""
    with open(path, "wb", opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(head)
        fh.truncate()  # flushes the head, then cuts at its end
        yield fh


def write_artifacts(
    name: str,
    traj: Trajectory,
    outdir: str | Path,
    stride: int = 1,
    outputs: tuple[str, ...] = OUTPUT_KINDS,
    failed_step: int | None = None,
) -> dict[str, str]:
    """Write the requested CSV artifacts of every `stride`-th state of a
    trajectory (`_write`); returns paths.  When `failed_step` is given,
    each file ends with a `# aborted at step N` comment."""
    _check_written(stride, outputs)
    steps = range(0, len(traj.states), stride)
    errors = None
    if traj.error_at is not None:
        def errors(b):
            rows = steps[b]
            return traj.error_at(np.arange(rows.start, rows.stop, rows.step))

    return _write(name, outdir, traj.h, steps, traj.states[::stride],
                  traj.energies[::stride], errors, outputs, failed_step)


def _write(name, outdir, h: float, steps: range, states: np.ndarray,
           H: np.ndarray, errors, outputs, failed_step) -> dict[str, str]:
    """The CSV artifacts of a run's written rows: `steps` are their indices
    in the run, `states` and `H` their states and energies (the run's first
    row first), and `errors` maps a slice of them to their exact-error
    column, or is None where there is no channel.  Files are rewritten in
    place (`_rewrite`).  From _PARALLEL_ROWS rows on a forked child may
    format the second half (see the module docstring); raises
    ChildProcessError if it fails.  With no table to write it only creates
    `outdir` and returns {}.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = states.shape[1] // 2
    h0 = H[0]
    # kind -> (header, block slice -> value columns, each an array)
    tables = {}
    if "phase" in outputs:
        coords = (
            ["q", "p"] if n == 1
            else [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
        )
        Y = states.T
        tables["phase"] = (["step", "t"] + coords, lambda b: list(Y[:, b]))
    if "energy" in outputs:
        tables["energy"] = (["step", "t", "H", "dH"], lambda b: [H[b], H[b] - h0])
    if "error" in outputs and errors is not None:
        # evaluated at the written rows only, one block at a time
        tables["error"] = (["step", "t", "error"], lambda b: [errors(b)])
    if not tables:
        return {}
    files = {kind: str(outdir / f"{name}-{kind}.csv") for kind in tables}
    # each file's columns of a block: the shared step and t, then its own
    layout, width = [], 2
    for header, _ in tables.values():
        layout.append([0, 1, *range(width, width + len(header) - 2)])
        width += len(header) - 2

    def emit(writes, lo: int, hi: int) -> None:
        """Rows lo..hi-1 of `steps`, one block at a time; lo is a multiple
        of _CSV_BLOCK, and hi one too unless it is the last row."""
        for start in range(lo, hi, _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            rows = steps[block]
            # the step as a float: its %.17g text is its %d text below 10^17
            j = np.arange(rows.start, rows.stop, rows.step, dtype=float)
            columns = [j, h * j]
            for _, values in tables.values():
                columns += values(block)
            for write, text in zip(writes, csv_rows(np.column_stack(columns), layout)):
                write(text)

    rows = split = len(steps)
    if rows >= _PARALLEL_ROWS and hasattr(os, "fork") and _usable_cpus() >= 2:
        # whole blocks on each side, the parent's half no smaller
        split = -(-rows // (2 * _CSV_BLOCK)) * _CSV_BLOCK
        # the child only indexes, subtracts and formats: anything lazy, such
        # as a Trajectory's exact flow exp(hA) on a general linear field or
        # the text kernel's tables, is built here
        for _, values in tables.values():
            values(slice(0, 1))
        csv_tables()
    with ExitStack() as stack:
        handles = []
        for kind, (header, _) in tables.items():
            head = ",".join(header).encode() + b"\n"
            handles.append(stack.enter_context(_rewrite(files[kind], head)))
        writes = [fh.write for fh in handles]
        if split < rows:
            spills = [stack.enter_context(tempfile.TemporaryFile(dir=outdir))
                      for _ in handles]
            pid = os.fork()
            if pid == 0:
                _child(lambda: emit([s.write for s in spills], split, rows), spills)
            try:
                emit(writes, 0, split)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitpid(pid, 0)[1]
            if status:
                # an OSError, as a failed write in this process would be
                raise ChildProcessError(
                    f"the child process formatting CSV rows {split}..{rows - 1} "
                    f"failed with exit code {os.waitstatus_to_exitcode(status)}"
                )
            for fh, spill in zip(handles, spills):
                spill.seek(0)
                shutil.copyfileobj(spill, fh)  # buffered: memory stays flat
        else:
            emit(writes, 0, rows)
        if failed_step is not None:
            for write in writes:
                write(b"# aborted at step %d\n" % failed_step)
    return files


def _child(work, spills) -> NoReturn:
    """Body of `_write`'s forked child: run `work`, flush the spills
    and leave through os._exit, 0 on success and 1 on any exception, so
    that the caller's code never runs here."""
    # a collection here could run finalizers of the parent's objects twice
    gc.disable()
    code = 1
    try:
        work()
        for spill in spills:
            spill.flush()
        code = 0
    except Exception:
        import traceback

        traceback.print_exc()  # the parent sees only the exit status
        sys.stderr.flush()
    finally:
        os._exit(code)


# rows per block of the run statistics: a block of states and its float
# columns stay within a 2 MiB L2 cache
_STAT_BLOCK = 8192
# The drift slope's sums are exact.  A band of a block's energies whose
# binary exponents (np.frexp's) span at most _BAND scales by a power of two
# to integers below 2^62, each an int64; two _LIMB-bit limbs of those keep a
# block's sum and ramp-weighted sum below 2^57.  Every band's sums are
# Python ints in units of 2^-_LOW: a band's exponent is at least
# -1073 - 62, the smallest subnormal's band.
_BAND = 9
_LIMB = 31
_LOW = 1135


def _squared_norms(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|y_j|^2 of each row into `out`, with the bits of
    `np.einsum("ij,ij->i", rows, rows)`.  On two columns einsum's sum has
    the bits of q*q + p*p, special values included, so that is formed
    directly: three vector operations, not einsum's loop of two terms per
    row."""
    # overflow in exploding runs is data, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        if rows.shape[1] != 2:
            return np.einsum("ij,ij->i", rows, rows, out=out)
        q, p = rows.T
        np.multiply(q, q, out=out)
        out += p * p
    return out


def _band_sums(H: np.ndarray, top: int, ramp: np.ndarray) -> tuple[int, int]:
    """(Σ H_i, Σ i H_i) in units of 2^-_LOW, exactly, for finite H below
    2^top in magnitude whose nonzero entries have frexp exponents of at
    least top - _BAND; `ramp` is 0, 1, ... as int64."""
    # H_i is a multiple of 2^(e_i - 53), so K_i = H_i 2^(62 - top) is an
    # integer of magnitude below 2^62
    K = np.ldexp(H, 62 - top).astype(np.int64)
    hi = K >> _LIMB
    K &= (1 << _LIMB) - 1
    shift = top - 62 + _LOW
    return (((int(hi.sum()) << _LIMB) + int(K.sum())) << shift,
            ((int(hi @ ramp) << _LIMB) + int(K @ ramp)) << shift)


def _block_sums(H: np.ndarray, ramp: np.ndarray) -> tuple[int, int]:
    """(Σ H_i, Σ i H_i) of a finite block in units of 2^-_LOW, exactly:
    one band when its exponents span at most _BAND (zeros count as
    exponent 0), else one band at a time from the largest exponent down."""
    e = np.frexp(H)[1]
    top = int(e.max())
    if top - int(e.min()) <= _BAND:
        return _band_sums(H, top, ramp)
    s0 = s1 = 0
    rest = H != 0
    while rest.any():
        top = int(e[rest].max())
        band = rest & (e >= top - _BAND)
        b0, b1 = _band_sums(np.where(band, H, 0.0), top, ramp)
        s0 += b0
        s1 += b1
        rest &= ~band
    return s0, s1


def _slope(s0: int, s1: int, N: int, h: float) -> float:
    """The least-squares slope of H_j against t_j = h j over N >= 2 rows,
    from s0 = Σ H_j and s1 = Σ j H_j in units of 2^-_LOW: with
    c_j = 2j - (N - 1) it is 6 Σ c_j H_j / (h N (N^2 - 1)), one quotient of
    integers, rounded once.  An over-range slope is +-inf."""
    n, d = float(h).as_integer_ratio()
    num = 6 * (2 * s1 - (N - 1) * s0) * d
    den = (n * N * (N * N - 1)) << _LOW
    try:
        return num / den  # int / int is correctly rounded
    except OverflowError:
        return math.inf if num > 0 else -math.inf


class _Scan:
    """`_scan`'s walk as a fold over a run of `rows` rows of `columns`
    state columns, handed to `add` as consecutive chunks of states and
    their energies; `result` gives the statistics."""

    def __init__(self, rows: int, columns: int):
        size = min(rows, _STAT_BLOCK)
        self.work = np.empty(size)
        self.below = np.empty(size, dtype=bool)
        self.ramp = np.arange(size, dtype=np.int64)
        self.radial = columns == 2
        self.rows = 0  # rows added so far
        self.crossing = None
        # the largest |H - H_0| and | |y|^2 - |y_0|^2 | so far, None before
        # the first block; np.maximum keeps a NaN, as a whole-array max does
        self.peak = self.radius = None
        self.s0 = self.s1 = 0  # Σ H_j and Σ j H_j of the prefix, in units of 2^-_LOW
        self.finite = True

    def _begin(self, states: np.ndarray, H: np.ndarray) -> None:
        self.h0 = h0 = float(H[0])
        # |y|^2 of a block serves the radius and, when H_0 <= 0, the
        # crossing: H cannot measure growth then (an indefinite H can blow
        # up along H = H_0), so the squared state norm is watched instead
        self.norms = np.empty(len(self.work)) if self.radial or not h0 > 0 else None
        if self.norms is not None:
            self.r0 = _squared_norms(states[:1], self.norms[:1])[0]
        self.size0 = H[0] if h0 > 0 else self.r0
        self.limit = EXPLODE_FACTOR * self.size0

    def add(self, states: np.ndarray, H: np.ndarray) -> None:
        """Fold in the run's next rows, one block of _STAT_BLOCK at a time;
        nothing after the crossing."""
        if not self.rows:
            self._begin(states, H)
        start = self.rows
        self.rows += len(H)
        for a in range(0, len(H), _STAT_BLOCK):
            if self.crossing is not None:
                return
            lo, n = start + a, min(_STAT_BLOCK, len(H) - a)
            if self.norms is not None:
                r = _squared_norms(states[a : a + n], self.norms[:n])
            if self.size0 > 0:
                # not below the threshold: a NaN (overflow past inf) crosses too
                size = H[a : a + n] if self.h0 > 0 else r
                mask = np.less(size, self.limit, out=self.below[:n])
                first = int(mask.argmin())
                if not mask[first]:
                    self.crossing, n = lo + first, first
            if n:
                block = H[a : a + n]
                # a deviation past the float range reads inf: data, not an error
                with np.errstate(over="ignore"):
                    dev = np.subtract(block, self.h0, out=self.work[:n])
                peak = np.abs(dev, out=dev).max()
                self.peak = peak if self.peak is None else np.maximum(self.peak, peak)
                # a finite peak has finite energies; an infinite one may too
                self.finite = self.finite and (
                    math.isfinite(peak) or bool(np.isfinite(block).all()))
                if self.finite:
                    b0, b1 = _block_sums(block, self.ramp[:n])
                    self.s0 += b0
                    self.s1 += lo * b0 + b1
                if self.radial:
                    dev = r[:n]
                    dev -= self.r0
                    peak = np.abs(dev, out=dev).max()
                    self.radius = (peak if self.radius is None
                                   else np.maximum(self.radius, peak))

    def result(self, h: float):
        """(h0, max_deviation, slope, crossing_step, radius_deviation)."""
        N = self.rows if self.crossing is None else self.crossing
        max_dev = float(self.peak) if N >= 2 else 0.0
        slope = (0.0 if N < 2 else _slope(self.s0, self.s1, N, h) if self.finite
                 else math.nan)
        radius = None if self.radius is None else float(self.radius)
        return self.h0, max_dev, slope, self.crossing, radius


def _scan(traj: Trajectory) -> tuple[float, float, float, int | None, float | None]:
    """(h0, max_deviation, slope, crossing_step, radius_deviation): every
    statistic of a run, taken in one walk over it (`_Scan` fed the whole
    run), the only one that reads its states.

    The crossing, the largest |H - H_0|, the largest | |y|^2 - |y_0|^2 |
    and the exact sums of the drift slope over the pre-crossing prefix are
    formed one block of _STAT_BLOCK rows at a time; the peaks have the bits
    the whole arrays would give, and the slope is the exact least-squares
    slope against t_j = h j, rounded once (`_slope`).  The deviation and
    the slope read 0.0 on a prefix of fewer than two rows, and the slope
    nan when an energy in the prefix is not finite; the radius deviation
    is None beyond two state columns or on an empty prefix.
    """
    H = np.asarray(traj.energies, dtype=float)
    fold = _Scan(len(H), traj.states.shape[1])
    fold.add(traj.states, H)
    return fold.result(traj.h)


def _fit(h0: float, max_dev: float, slope: float, t_final: float,
         exploding: bool) -> str:
    """The classification from `_scan`'s h0, max_deviation and slope and
    the run's last time t_final = h (N - 1)."""
    if exploding:
        return "exploding"
    budget = BOUNDED_FRACTION * (abs(h0) if h0 != 0 else 1.0)
    if max_dev <= budget and abs(slope) * t_final <= budget:
        return "bounded"
    return "drifting"


def classify(traj: Trajectory):
    """(classification, h0, max_deviation, slope, crossing_step).

    Statistics come from the pre-crossing prefix when the run explodes, so
    the reported numbers are finite even after overflow.  This is `_scan`
    then `_fit`, with the scan's radius deviation left out.
    """
    h0, max_dev, slope, crossing, _ = _scan(traj)
    t_final = traj.h * (len(traj.energies) - 1)
    label = _fit(h0, max_dev, slope, t_final, crossing is not None)
    return label, h0, max_dev, slope, crossing


@dataclass(frozen=True)
class RunRecord:
    """What `run_and_write` keeps of a run: its `steps` states' `_scan`
    statistics, the energy and exact error (None without a channel) of the
    last, and the StepFailure that stopped it early, or None."""

    steps: int
    stats: tuple[float, float, float, int | None, float | None]
    final_energy: float
    final_error: float | None
    failure: StepFailure | None


# states per chunk of a streamed run: whole blocks of the window map
# (integrators._BLOCK, 256) and of the statistics; its buffers, 16 B of
# state and 8 B of energy a row, stay within a 2 MiB L2 cache
_CHUNK = 4 * _STAT_BLOCK


def _fold(chunks, rows: int, field, y0, h: float, stride: int):
    """Fold a run of at most `rows` states from y0, handed over as
    consecutive chunks, into its RunRecord and the states, energies and
    exact errors (`integrators._errors`, None on a nonlinear field) of every
    `stride`-th row.  A StepFailure from the chunks ends the run and is
    kept in the record.  Each chunk's energies have the bits the whole
    run's `field.energies` gives them: after the first chunk a linear
    field's take the column kernel, as a run past one chunk's do."""
    written = range(0, rows, stride)
    scan = _Scan(rows, field.dim)
    lo, failure = 0, None  # lo: the chunk's first row in the run
    try:
        for chunk in chunks:
            if not lo:  # the stream has checked its arguments: room for the rows
                states, H = np.empty((len(written), field.dim)), np.empty(len(written))
            n = len(chunk)
            # overflow in exploding runs is data, not an error
            with np.errstate(over="ignore", invalid="ignore"):
                if lo and isinstance(field, LinearHamiltonian):
                    # the last chunk's energies, all spent, make room for these
                    energies = _energy_rows(field.S, chunk, energies[:n])
                else:
                    energies = field.energies(chunk)
            scan.add(chunk, energies)
            take = slice(-lo % stride, None, stride)  # the chunk's written rows
            w = -(-lo // stride)  # the first one's index among all written rows
            part = chunk[take]
            states[w : w + len(part)] = part
            H[w : w + len(part)] = energies[take]
            lo += n
            last, final_energy = chunk[-1:].copy(), float(energies[-1])
    except StepFailure as exc:
        # kept, not raised: its traceback holds the stream's frame and buffer
        failure = exc.with_traceback(None)
    w = -(-lo // stride)  # the rows written
    E = final_error = chunk = energies = None  # the run's buffers go first
    if isinstance(field, LinearHamiltonian):
        # a CSV block at a time, from the exact flow as a second stream, read
        # forward in chunks of a statistics block, so that it peaks below the run
        errors, E = _errors(field, y0, h, lo, _STAT_BLOCK), np.empty(w)
        for a in range(0, w, _CSV_BLOCK):
            r = stride * np.arange(a, min(a + _CSV_BLOCK, w))
            E[a : a + len(r)] = errors(states[a : a + len(r)], r)
        final_error = float(errors(last, np.array([lo - 1]))[0])
    run = RunRecord(lo, scan.result(h), final_energy, final_error, failure)
    return run, states[:w], H[:w], E


def run_and_write(name: str, scheme: Scheme, field, y0, h: float, steps: int,
                  starter: str, outdir: str | Path, stride: int = 1,
                  outputs: tuple[str, ...] = OUTPUT_KINDS):
    """Integrate a scheme and write its CSV artifacts under `outdir`.

    The run is streamed (`integrators._stream`) and folded chunk by chunk
    (`_fold`), with the bytes of `write_artifacts` on the whole `integrate`
    run.  On a stepper failure the states produced are still written, each
    file ending with a `# aborted at step N` comment.  Returns the run's
    RunRecord and the artifact paths.  A bad `stride` or output kind raises
    ValueError before integrating.
    """
    _check_written(stride, outputs)
    run, states, H, E = _fold(_stream(scheme, field, y0, h, steps, starter, _CHUNK),
                              steps, field, y0, h, stride)
    failed_step = None if run.failure is None else run.failure.step
    files = _write(name, outdir, h, range(0, run.steps, stride), states, H,
                   None if E is None else E.__getitem__, outputs, failed_step)
    return run, files


def run_scenario(s: Scenario, outdir: str | Path) -> ScenarioResult:
    """Run one scenario and write its artifacts under `outdir`: its
    `run_and_write` run, labelled by `_fit`, and a summary.  On a stepper
    failure the partial run is still written and the failing step index
    lands in the summary.
    """
    outdir = Path(outdir)
    scheme = resolve_scheme(s.method)
    run, files = run_and_write(s.name, scheme, sho(s.omega), np.array([s.q0, s.p0]),
                               s.h, s.steps, s.starter, outdir, s.stride, s.outputs)
    h0, max_dev, slope, crossing, radius = run.stats
    warnings, failed_step = scheme.warnings, None
    if run.failure is not None:
        failed_step = run.failure.step
        warnings += (f"stepper failed at step {failed_step}: {run.failure.cause}",)
    label = _fit(h0, max_dev, slope, s.h * (run.steps - 1), crossing is not None)
    result = ScenarioResult(
        scenario=s,
        files=files,
        h0=h0,
        max_deviation=max_dev,
        slope=slope,
        final_error=run.final_error,
        radius_deviation=radius,
        classification=label,
        crossing_step=crossing,
        failed_step=failed_step,
        warnings=warnings,
    )
    summary = outdir / f"{s.name}-summary.txt"
    with _rewrite(summary, _format_summary(result).encode()):
        pass
    files["summary"] = str(summary)
    return result


def _format_summary(r: ScenarioResult) -> str:
    s = r.scenario

    def show(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    lines = [
        f"scenario: {s.name}",
        f"method: {s.method}",
        f"omega: {show(s.omega)}",
        f"h: {show(s.h)}",
        f"steps: {s.steps}",
        f"starter: {s.starter}",
        f"stride: {s.stride}",
        f"H0: {show(r.h0)}",
        f"maxDeviation: {show(r.max_deviation)}",
        f"slope: {show(r.slope)}",
        f"finalError: {show(r.final_error)}",
        f"radiusDeviation: {show(r.radius_deviation)}",
        f"classification: {show(r.classification)}",
        f"crossingStep: {show(r.crossing_step)}",
        f"failedStep: {show(r.failed_step)}",
    ]
    if r.warnings:
        lines.extend(f"warning: {w}" for w in r.warnings)
    return "\n".join(lines) + "\n"
