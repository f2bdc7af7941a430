"""Scenario runner: canned oscillator experiments, CSV artifacts and the
long-run behavior study.

A scenario is one integrator run on the harmonic oscillator with fixed
parameters.  Runs write up to three CSV artifacts (phase, energy, error),
each decimated by `stride`, plus a flat key-value summary.  Summary
statistics (max deviation, slope, radius deviation, classification) are
always computed at full resolution, never from the decimated files.

Long runs are classified as bounded, drifting or exploding from the energy
record, against two fixed thresholds.  Exploding is detected by the energy
crossing EXPLODE_FACTOR (1000) times H_0, or, when H_0 <= 0, by |y|^2
crossing the same multiple of |y_0|^2; drift statistics for such runs are
taken over the pre-crossing prefix so they stay finite.  A run that does
not explode is bounded when both its largest deviation from H_0 and its
fitted drift over the run stay within BOUNDED_FRACTION (1 %) of |H_0|.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
import os
from pathlib import Path

import numpy as np

from .methods import _NAME_RE, MethodError, MethodSpec, builtin_methods, parse_method
from .integrators import (
    PCPair,
    PartitionedPair,
    Scheme,
    SolverConfig,
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
    "classify",
    "write_artifacts",
    "append_abort_comment",
    "gather_warnings",
]

OUTPUT_KINDS = ("phase", "energy", "error")

BOUNDED_FRACTION = 0.01  # of |H_0|, for both deviation and trend
EXPLODE_FACTOR = 1e3  # of H_0, or of |y_0|^2 when H_0 <= 0


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
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.starter not in ("rk4", "exact"):
            raise ValueError(f"unknown starter {self.starter!r}")
        bad = [o for o in self.outputs if o not in OUTPUT_KINDS]
        if bad:
            raise ValueError(f"unknown outputs {bad}")


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
    ms = builtin_methods()
    return {"pc-m2": PCPair("pc-m2", predictor=ms["ab4"], corrector=ms["am4"])}


def _method(spec: str) -> MethodSpec:
    """A single method from a file path or the registry."""
    if os.path.isfile(spec):
        return parse_method(Path(spec).read_text())
    ms = builtin_methods()
    if spec in ms:
        return ms[spec]
    raise MethodError(f"unknown method {spec!r}")


def resolve_scheme(spec: str) -> Scheme:
    """Turn a method field into a scheme: a method file, a registry or pair
    name, or "first,second" (a partitioned pair of two methods, files or
    registry names; first drives q)."""
    spec = spec.strip()
    if "," in spec:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 2:
            raise MethodError(f"a partitioned pair needs two names, got {spec!r}")
        first, second = (_method(p) for p in parts)
        return PartitionedPair(f"{first.name},{second.name}", first, second)
    pairs = builtin_pairs()
    if spec in pairs and not os.path.isfile(spec):
        return pairs[spec]
    return _method(spec)


def gather_warnings(scheme: Scheme) -> tuple[str, ...]:
    if isinstance(scheme, MethodSpec):
        return scheme.warnings
    if isinstance(scheme, PCPair):
        members = (scheme.predictor, scheme.corrector)
    else:
        members = (scheme.first, scheme.second)
    out = []
    for m in members:
        out.extend(f"{m.name}: {w}" for w in m.warnings)
    return tuple(out)


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
    """Scenarios belonging to one canned figure-style experiment."""
    groups = {
        1: ("fig1-explicit-euler", "fig1-implicit-euler"),
        2: ("fig2-m1", "fig2-m1-corrected"),
        3: ("fig3-pc",),
        4: ("fig4-partitioned", "fig4-partitioned-corrected"),
    }
    if figure not in groups:
        raise ValueError(f"unknown figure {figure}; expected 1..4")
    byname = {s.name: s for s in builtin_scenarios(steps)}
    return [byname[n] for n in groups[figure]]


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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # fixed newline and plain formatting so reruns are byte-identical
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def append_abort_comment(path: Path, step: int) -> None:
    with open(path, "a", newline="\n") as fh:
        fh.write(f"# aborted at step {step}\n")


def write_artifacts(
    name: str,
    traj: Trajectory,
    outdir: str | Path,
    stride: int = 1,
    outputs: tuple[str, ...] = OUTPUT_KINDS,
) -> dict[str, str]:
    """Write the requested CSV artifacts for a trajectory; returns paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    n = traj.states.shape[1] // 2
    idx = np.arange(0, len(traj.states), stride)
    t = traj.times
    if "phase" in outputs:
        path = outdir / f"{name}-phase.csv"
        if n == 1:
            header = ["step", "t", "q", "p"]
        else:
            header = (
                ["step", "t"]
                + [f"q{i + 1}" for i in range(n)]
                + [f"p{i + 1}" for i in range(n)]
            )
        rows = (
            [str(int(j)), _fmt(t[j])] + [_fmt(v) for v in traj.states[j]] for j in idx
        )
        _write_csv(path, header, rows)
        files["phase"] = str(path)
    if "energy" in outputs:
        path = outdir / f"{name}-energy.csv"
        H = traj.energies
        rows = (
            [str(int(j)), _fmt(t[j]), _fmt(H[j]), _fmt(H[j] - H[0])] for j in idx
        )
        _write_csv(path, ["step", "t", "H", "dH"], rows)
        files["energy"] = str(path)
    if "error" in outputs and traj.errors is not None:
        path = outdir / f"{name}-error.csv"
        rows = ([str(int(j)), _fmt(t[j]), _fmt(traj.errors[j])] for j in idx)
        _write_csv(path, ["step", "t", "error"], rows)
        files["error"] = str(path)
    return files


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
        over = np.nonzero(size >= EXPLODE_FACTOR * size[0])[0]
        if len(over):
            crossing = int(over[0])
    prefix = H if crossing is None else H[:crossing]
    t = traj.times[: len(prefix)]
    if len(prefix) >= 2:
        max_dev = float(np.max(np.abs(prefix - h0)))
        A = np.vstack([t, np.ones_like(t)]).T
        slope = float(np.linalg.lstsq(A, prefix, rcond=None)[0][0])
    else:
        max_dev, slope = 0.0, 0.0
    if crossing is not None:
        return "exploding", h0, max_dev, slope, crossing
    scale = abs(h0) if h0 != 0 else 1.0
    budget = BOUNDED_FRACTION * scale
    t_final = float(traj.times[-1])
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


def run_scenario(s: Scenario, outdir: str | Path) -> ScenarioResult:
    """Run one scenario and write its artifacts under `outdir`.

    On a stepper failure the partial trajectory is still written, each file
    gains a trailing `# aborted at step N` comment, and the failing step
    index lands in the summary.
    """
    outdir = Path(outdir)
    scheme = resolve_scheme(s.method)
    if s.steps < scheme.k:
        raise ValueError(
            f"scenario {s.name}: steps = {s.steps} < window k = {scheme.k}"
        )
    warnings = list(gather_warnings(scheme))
    failed_step = None
    try:
        traj = integrate(scheme, sho(s.omega), np.array([s.q0, s.p0]), s.h,
                         s.steps, SolverConfig(starter=s.starter))
    except StepFailure as exc:
        traj = exc.partial
        failed_step = exc.step
        warnings.append(f"stepper failed at step {exc.step}: {exc.cause}")

    files = write_artifacts(s.name, traj, outdir, s.stride, s.outputs)
    if failed_step is not None:
        for path in files.values():
            append_abort_comment(Path(path), failed_step)

    label, h0, max_dev, slope, crossing = classify(traj)
    final_error = (
        float(traj.errors[-1]) if traj.errors is not None and len(traj.errors) else None
    )
    result = ScenarioResult(
        scenario=s,
        files=files,
        h0=h0,
        max_deviation=max_dev,
        slope=slope,
        final_error=final_error,
        radius_deviation=_radius_deviation(traj, crossing),
        classification=label,
        crossing_step=crossing,
        failed_step=failed_step,
        warnings=tuple(warnings),
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
            return _fmt(v)
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
