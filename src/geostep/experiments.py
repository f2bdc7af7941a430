"""Scenario runner: canned oscillator experiments, CSV artifacts and the
long-run behavior study.

This is where a method string becomes a scheme (`resolve_scheme`) and a run
becomes artifacts (`run_and_write`); the command line and the scenarios
both go through them.

A scenario is one integrator run on the harmonic oscillator with fixed
parameters.  Runs write up to three CSV artifacts (phase, energy, error),
each decimated by `stride`, plus a flat key-value summary.  The CSVs are
streamed together in fixed blocks of _CSV_BLOCK rows, with each row's
`step,t` text formatted once for all of them; the text is byte-identical
to formatting every value with format(x, ".17g").  From _PARALLEL_ROWS
written rows on (16384), where the process may use two CPUs and `os.fork`
exists, a forked child formats the second half of the rows while the
caller formats the first; the bytes written do not depend on the split.
Summary statistics (max deviation, slope, radius deviation,
classification) are always computed at full resolution, never from the
decimated files.  The exact-error channel is the exception: it is
evaluated only at the written rows and, for `finalError`, the last row.

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

from contextlib import ExitStack
import dataclasses
from dataclasses import dataclass
import functools
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

from .methods import _NAME_RE, MethodError, MethodSpec, builtin_methods, parse_method
from .integrators import (
    PCPair,
    PartitionedPair,
    STARTERS,
    Scheme,
    StepFailure,
    Trajectory,
    integrate,
)
from .systems import sho

__all__ = [
    "Scenario",
    "ScenarioResult",
    "builtin_pairs",
    "builtin_scenarios",
    "figure_scenarios",
    "resolve_scheme",
    "parse_scenario",
    "format_scenario",
    "run_scenario",
    "run_and_write",
    "classify",
    "write_artifacts",
    "gather_warnings",
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
# scheme registry plumbing


def builtin_pairs() -> dict[str, PCPair]:
    """Named predictor-corrector pairs shipped with the package."""
    return _pairs(builtin_methods())


def _pairs(ms: dict[str, MethodSpec]) -> dict[str, PCPair]:
    return {"pc-m2": PCPair("pc-m2", predictor=ms["ab4"], corrector=ms["am4"])}


def resolve_scheme(spec: str) -> Scheme:
    """Turn a method field into a scheme: a method file, a registry or pair
    name, or "first,second" (a partitioned pair of two methods, files or
    registry names; first drives q).

    A file path wins over a registry name spelled the same.  The registry
    is built at most once per call, and not at all when every name is a
    file.
    """
    spec = spec.strip()
    names = [p.strip() for p in spec.split(",")]
    if len(names) > 2:
        raise MethodError(f"a partitioned pair needs two names, got {spec!r}")
    registry = functools.cache(builtin_methods)

    def lookup(name: str) -> Scheme:
        if os.path.isfile(name):
            return parse_method(Path(name).read_text())
        ms = registry()
        if name in ms:
            return ms[name]
        pairs = _pairs(ms) if len(names) == 1 else {}  # a pair is no member
        if name in pairs:
            return pairs[name]
        raise MethodError(f"unknown method {name!r}")

    schemes = [lookup(name) for name in names]
    if len(schemes) == 1:
        return schemes[0]
    first, second = schemes
    return PartitionedPair(f"{first.name},{second.name}", first, second)


def gather_warnings(scheme: Scheme) -> tuple[str, ...]:
    """The scheme's warnings; a pair's carry their member's name."""
    if isinstance(scheme, MethodSpec):
        return scheme.warnings
    return tuple(f"{m.name}: {w}" for _, m in scheme.members for w in m.warnings)


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
# text format (same line grammar as the method files)

_SCENARIO_KEYS = (
    "scenario", "method", "omega", "h", "steps", "q0", "p0",
    "starter", "stride", "outputs",
)


def parse_scenario(text: str) -> Scenario:
    """Parse one scenario from the line-based text format."""
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"expected 'key: value', got {raw!r}")
        key = key.strip()
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"unknown key {key!r}")
        if key in fields:
            raise ValueError(f"duplicate key {key!r}")
        fields[key] = value.strip()
    for req in ("scenario", "method"):
        if req not in fields:
            raise ValueError(f"missing required key {req!r}")
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
# Forking, reaping the child and copying its rows back cost a few ms.  On a
# 2-CPU host (medians of 31 alternated writes) the split took x0.84 of the
# serial time at 16 blocks for the cheapest rows (1-DOF, energy alone, about
# 3 us a row), and x1.2 at 8 blocks; 2-DOF rows with all three files took
# x0.58 at 16 blocks.  A multiple of _CSV_BLOCK, and at least two blocks, so
# that both halves are whole blocks and neither is empty.
_PARALLEL_ROWS = 16 * _CSV_BLOCK
_SPILL_CHUNK = 64 * 1024  # bytes per copy from the child's files; keeps memory flat


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_artifacts(
    name: str,
    traj: Trajectory,
    outdir: str | Path,
    stride: int = 1,
    outputs: tuple[str, ...] = OUTPUT_KINDS,
    failed_step: int | None = None,
) -> dict[str, str]:
    """Write the requested CSV artifacts for a trajectory; returns paths.

    Every `stride`-th state is written.  When `failed_step` is given, each
    file ends with a `# aborted at step N` comment.  From _PARALLEL_ROWS
    written rows on, where the process may use two CPUs and `os.fork`
    exists, one forked child formats the second half of the rows into
    unnamed temporary files that are then appended; the bytes are the same
    either way.  Raises ChildProcessError if that child fails.  With no
    table to write it only creates `outdir` and returns {}.
    """
    _check_written(stride, outputs)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = traj.states.shape[1] // 2
    h0 = traj.energies[0]
    H = traj.energies[::stride]
    # kind -> (header, block slice -> value columns as lists)
    tables = {}
    if "phase" in outputs:
        coords = (
            ["q", "p"] if n == 1
            else [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
        )
        Y = traj.states[::stride].T
        tables["phase"] = (["step", "t"] + coords, lambda b: Y[:, b].tolist())
    if "energy" in outputs:
        tables["energy"] = (
            ["step", "t", "H", "dH"],
            lambda b: [H[b].tolist(), (H[b] - h0).tolist()],
        )
    steps = range(0, len(traj.states), stride)
    if "error" in outputs and traj.error_at is not None:
        # evaluated at the written rows only, one block at a time
        def errors(b):
            rows = steps[b]
            rows = np.arange(rows.start, rows.stop, rows.step)
            return [traj.error_at(rows).tolist()]

        tables["error"] = (["step", "t", "error"], errors)
    if not tables:
        return {}
    files = {kind: str(outdir / f"{name}-{kind}.csv") for kind in tables}
    # fixed newline and %.17g (the text of format(x, ".17g")) so reruns are
    # byte-identical
    formats = [
        ("%s" + ",%.17g" * (len(header) - 2) + "\n").__mod__
        for header, _ in tables.values()
    ]

    def emit(writes, lo: int, hi: int) -> None:
        """Rows lo..hi-1 of `steps`, one block at a time; lo is a multiple
        of _CSV_BLOCK, and hi one too unless it is the last row."""
        for start in range(lo, hi, _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            lead = ["%d,%.17g" % (j, traj.h * j) for j in steps[block]]
            for write, fmt, (_, columns) in zip(writes, formats, tables.values()):
                write("".join(map(fmt, zip(lead, *columns(block)))))

    rows = split = len(steps)
    if rows >= _PARALLEL_ROWS and hasattr(os, "fork") and _usable_cpus() >= 2:
        # whole blocks on each side, the parent's half no smaller
        split = -(-rows // (2 * _CSV_BLOCK)) * _CSV_BLOCK
        # the child only indexes, subtracts and formats: anything lazy, such
        # as the cached expm flow of a general linear field, is built here
        for _, columns in tables.values():
            columns(slice(0, 1))
    with ExitStack() as stack:
        handles = []
        for kind, (header, _) in tables.items():
            fh = stack.enter_context(open(files[kind], "w", newline="\n"))
            fh.write(",".join(header) + "\n")
            handles.append(fh)
        writes = [fh.write for fh in handles]
        if split < rows:
            spills = [
                stack.enter_context(
                    tempfile.TemporaryFile("w+", newline="\n", dir=outdir))
                for _ in handles
            ]
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
                fh.flush()
                spill.seek(0)
                shutil.copyfileobj(spill.buffer, fh.buffer, _SPILL_CHUNK)
        else:
            emit(writes, 0, rows)
        if failed_step is not None:
            for write in writes:
                write(f"# aborted at step {failed_step}\n")
    return files


def _child(work, spills) -> NoReturn:
    """Body of write_artifacts' forked child: run `work`, flush the spills
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


def classify(traj: Trajectory):
    """(classification, h0, max_deviation, slope, crossing_step).

    Statistics come from the pre-crossing prefix when the run explodes, so
    the reported numbers are finite even after overflow.
    """
    H = np.asarray(traj.energies, dtype=float)
    h0 = float(H[0])
    if h0 > 0:
        size = H
    else:
        # H cannot measure growth when H_0 <= 0 (an indefinite H can blow
        # up along H = H_0), so watch the squared state norm instead
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.einsum("ij,ij->i", traj.states, traj.states)
    crossing = None
    if size[0] > 0:
        # not below the threshold: a NaN (overflow past inf) crosses too
        over = np.nonzero(~(size < EXPLODE_FACTOR * size[0]))[0]
        if len(over):
            crossing = int(over[0])
    prefix = H if crossing is None else H[:crossing]
    N = len(prefix)
    if N >= 2:
        dev = np.subtract(prefix, h0)  # the one row-length temporary
        max_dev = float(np.max(np.abs(dev, out=dev)))
        del dev  # freed before the design matrix is formed
        # the design matrix [t, 1] is the transpose of one (2, N) array, the
        # layout `np.vstack([t, ones]).T` has; t is the prefix of traj.times
        design = np.empty((2, N))
        np.multiply(np.arange(N), traj.h, out=design[0])
        design[1] = 1.0
        slope = float(np.linalg.lstsq(design.T, prefix, rcond=None)[0][0])
    else:
        max_dev, slope = 0.0, 0.0
    if crossing is not None:
        return "exploding", h0, max_dev, slope, crossing
    scale = abs(h0) if h0 != 0 else 1.0
    budget = BOUNDED_FRACTION * scale
    t_final = traj.h * (len(H) - 1)
    if max_dev <= budget and abs(slope) * t_final <= budget:
        return "bounded", h0, max_dev, slope, None
    return "drifting", h0, max_dev, slope, None


def _radius_deviation(traj: Trajectory, crossing: int | None) -> float | None:
    """max | ||y_j||^2 - ||y_0||^2 | over the (finite prefix of the) run."""
    states = traj.states if crossing is None else traj.states[:crossing]
    if states.shape[1] != 2 or len(states) == 0:
        return None
    r2 = np.einsum("ij,ij->i", states, states)
    return float(np.max(np.abs(r2 - r2[0])))


def run_and_write(name: str, scheme: Scheme, field, y0, h: float, steps: int,
                  starter: str, outdir: str | Path, stride: int = 1,
                  outputs: tuple[str, ...] = OUTPUT_KINDS):
    """Integrate a scheme and write its CSV artifacts under `outdir`.

    On a stepper failure the partial trajectory is still written, each file
    ending with a `# aborted at step N` comment.  Returns the trajectory,
    the artifact paths and the StepFailure (None when the run completed).
    A bad `stride` or output kind raises ValueError before integrating.
    """
    _check_written(stride, outputs)
    try:
        traj = integrate(scheme, field, y0, h, steps, starter=starter)
        failure = None
    except StepFailure as exc:
        traj, failure = exc.partial, exc
    failed_step = None if failure is None else failure.step
    files = write_artifacts(name, traj, outdir, stride, outputs, failed_step)
    return traj, files, failure


def run_scenario(s: Scenario, outdir: str | Path) -> ScenarioResult:
    """Run one scenario and write its artifacts under `outdir`.

    On a stepper failure the partial trajectory is still written (see
    `run_and_write`) and the failing step index lands in the summary.
    """
    outdir = Path(outdir)
    scheme = resolve_scheme(s.method)
    traj, files, failure = run_and_write(
        s.name, scheme, sho(s.omega), np.array([s.q0, s.p0]), s.h, s.steps,
        s.starter, outdir, s.stride, s.outputs,
    )
    warnings = gather_warnings(scheme)
    if failure is not None:
        warnings += (f"stepper failed at step {failure.step}: {failure.cause}",)

    label, h0, max_dev, slope, crossing = classify(traj)
    result = ScenarioResult(
        scenario=s,
        files=files,
        h0=h0,
        max_deviation=max_dev,
        slope=slope,
        final_error=traj.final_error,
        radius_deviation=_radius_deviation(traj, crossing),
        classification=label,
        crossing_step=crossing,
        failed_step=None if failure is None else failure.step,
        warnings=warnings,
    )
    summary = outdir / f"{s.name}-summary.txt"
    with open(summary, "w", newline="\n") as fh:
        fh.write(_format_summary(result))
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
