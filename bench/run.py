"""geostep benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; geostep is imported from `src/`.
Operations run back to back in this process, each starting when the
previous one ends.  A pass is one round of the workload's operations; passes
repeat until `--seconds` is used up (at least two, so every pass after the
first is checked byte for byte against the first).  A probe on a timer
measures the host's speed (hostspeed.py); times are reported in reference
seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json with tracing off.
--trace 1 alternates traced and untraced passes (at least traced, untraced,
traced, so every count can be checked to repeat) and reports the per-layer
metrics.  The last line of standard output is the JSON result; a record
with the seed, inputs and environment goes to `.bench_out/`, and on traced
runs also every span.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import REF_S, SpeedLog

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 3
# "set up" = a fresh interpreter imports the CLI and builds the registry
SETUP_CODE = "import geostep.cli, geostep.experiments as e; e.builtin_pairs()"
CHILD_PROBES = 4
PROBE_CODE = ("; import hostspeed, statistics; print(statistics.fmean("
              f"hostspeed.probe() for _ in range({CHILD_PROBES})))")
MIN_PASSES = 2
MIN_TRACED_RUN_PASSES = 3  # traced, untraced, traced


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# fresh-interpreter measurements


def _fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)


class SetupSampler:
    """`samples` set-up times on a fixed schedule through the run: sample i
    is taken at the first operation boundary after i * budget / samples
    seconds, so the samples see the same stretches of host load as the
    operations.

    The fresh interpreter may run on another core than this process, so
    once set up it times the probe itself.  A sample in reference seconds
    is its wall time, less the child's probes, over the mean of two speed
    factors: this process's around the sample and the child's.  The probe
    timer is paused while the child runs."""

    def __init__(self, speed: SpeedLog, budget: float, samples: int):
        self.speed = speed
        self.budget = budget
        self.samples = samples
        self.spans: list[tuple[float, float, float]] = []  # start, end, child probe
        self.start = perf_counter()

    def take(self) -> None:
        self.speed.pause()
        t0 = perf_counter()
        done = _fresh_python(["-c", SETUP_CODE + PROBE_CODE])
        t1 = perf_counter()
        self.speed.resume()
        child_probe = float(done.stdout)
        self.spans.append((t0, t1, child_probe))

    def wall_seconds(self) -> list[float]:
        return [t1 - t0 - CHILD_PROBES * child for t0, t1, child in self.spans]

    def ref_seconds(self) -> list[float]:
        """The samples in reference seconds; call once the run is over."""
        return [w / (0.5 * (self.speed.factor(t0, t1) + child / REF_S))
                for w, (t0, t1, child) in zip(self.wall_seconds(), self.spans)]

    def maybe(self) -> None:
        due = len(self.spans) * self.budget / self.samples
        if len(self.spans) < self.samples and perf_counter() - self.start >= due:
            self.take()

    def finish(self) -> None:
        """Take the samples the run ended too early for."""
        while len(self.spans) < self.samples:
            self.take()


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds to import geostep.cli, seconds importing scipy), both
    cumulative, from `python -X importtime` output.

    The output lists a module after everything it imported, one level
    deeper; the scipy figure sums the outermost scipy entries, so it counts
    what scipy pulls in as well.
    """
    nodes = []  # (depth, name, cumulative_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        children = []
        while nodes and nodes[-1][0] > depth:
            children.append(nodes.pop())
        nodes.append((depth, name.strip(), int(cum), children))

    def is_scipy(n):
        return n == "scipy" or n.startswith("scipy.")

    def scipy_us(node):
        _, name, cum, children = node
        return cum if is_scipy(name) else sum(scipy_us(c) for c in children)

    geostep_us = sum(n[2] for n in nodes if n[1].split(".")[0] == "geostep")
    return geostep_us * 1e-6, sum(scipy_us(n) for n in nodes) * 1e-6


def measure_importtime(samples: int) -> tuple[list[float], list[float]]:
    imp, sci = [], []
    for _ in range(samples):
        done = _fresh_python(["-X", "importtime", "-c", "import geostep.cli"])
        a, b = parse_importtime(done.stderr)
        imp.append(a)
        sci.append(b)
    return imp, sci


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size if kind == "Unified" else f"{size} {kind}"
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    ops: dict[str, tuple[float, float]]  # operation label -> (start, end)
    failures: list[str]
    counts: dict[str, float]
    wall: float = 0.0  # the pass with probes and checks; sets the budget
    layers: dict[str, dict[str, float]] | None = None
    traced_counts: dict[str, int] = field(default_factory=dict)



def run_pass(wl, between=None, tracer=None) -> Pass:
    """One round of the workload's operations.  `between()`, if given, runs
    before each operation, outside its time."""
    results = []
    if tracer is not None:
        mark = tracer.mark()
        states0, fails0 = tracer.states, tracer.step_failures
    for label, fn in wl.operations():
        if between is not None:
            between()
        ts = perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.operation(label):
                    out = fn()
            err = None
        except Exception as exc:  # a failed operation is data, keep going
            out = None
            err = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        results.append((label, (ts, perf_counter()), out, err))

    failures = []
    for label, _, out, err in results:
        if err is None:
            try:
                err = wl.check(label, out)
            except Exception as exc:  # malformed output fails the operation
                err = f"check raised {exc!r}"
        if err:
            failures.append(f"{label}: {err}")
    p = Pass({r[0]: r[1] for r in results}, failures, wl.pass_counts())
    if tracer is not None:
        p.layers = tracer.summary(mark)
        p.traced_counts = {
            "integrators.states": tracer.states - states0,
            "integrators.step_failures": tracer.step_failures - fails0,
        }
    return p


def run_phase(wl, budget: float, min_passes: int, between=None,
              tracer=None) -> list[Pass]:
    """Passes until the next one would overrun `budget` seconds, probes and
    set-up samples included.  With a tracer, passes alternate traced,
    untraced, traced, ...; the wrappers are installed only for traced
    passes."""
    passes = []
    t0 = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        ts = perf_counter()
        if traced:
            tracer.install()
        try:
            p = run_pass(wl, between, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p.wall = perf_counter() - ts
        passes.append(p)
        typical = statistics.median(q.wall for q in passes)
        if len(passes) >= min_passes and perf_counter() - t0 + typical > budget:
            return passes


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(p: Pass) -> dict[str, float]:
    L = p.layers

    def tot(name):
        return L.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return L.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return L.get(name, {}).get("calls", 0)

    integrate_s = tot("integrators.integrate")
    write_s = tot("experiments.write_artifacts")
    states = p.traced_counts["integrators.states"]
    csv_bytes = p.counts.get("experiments.csv_bytes", 0)
    m = {
        "integrators.integrate_s": integrate_s,
        "integrators.integrate.self_s": self_s("integrators.integrate"),
        "integrators.window_matrix_s": tot("integrators.window_matrix"),
        "integrators.window_matrix.calls": calls("integrators.window_matrix"),
        "integrators.starter_s": tot("integrators.starter"),
        "integrators.states": states,
        "integrators.states_per_s": states / integrate_s if integrate_s else 0.0,
        "integrators.step_failures": p.traced_counts["integrators.step_failures"],
        "systems.evaluate.calls": calls("systems.evaluate"),
        "systems.evaluate_s": tot("systems.evaluate"),
        "systems.energies_s": tot("systems.energies"),
        "systems.sho_exact_s": tot("systems.sho_exact"),
        "experiments.write_artifacts_s": write_s,
        "experiments.csv_rows": p.counts.get("experiments.csv_rows", 0),
        "experiments.csv_bytes": csv_bytes,
        "experiments.csv_bytes_per_s": csv_bytes / write_s if write_s else 0.0,
        "experiments.classify_s": tot("experiments.classify"),
        "experiments.run_scenario.self_s": self_s("experiments.run_scenario"),
        "experiments.resolve_scheme.calls": calls("experiments.resolve_scheme"),
        "methods.analyze_s": tot("methods.analyze"),
        "methods.root_condition_s": tot("methods.root_condition"),
        "methods.order_analysis_s": tot("methods.order_analysis"),
        "methods.builtin_methods.calls": calls("methods.builtin_methods"),
        "geometry.transfer_matrix_s": tot("geometry.transfer_matrix"),
        "geometry.g_symplecticity_defect_s": tot("geometry.g_symplecticity_defect"),
        "geometry.step_transition_s": tot("geometry.step_transition"),
        "geometry.reversibility_residual_s": tot("geometry.reversibility_residual"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for k, v in p.counts.items():
        m.setdefault(k, v)
    return m


def is_count(name: str) -> bool:
    return (name.endswith(".calls") or name.startswith("systems.f_evals_per_step.")
            or name in ("integrators.states", "integrators.step_failures",
                        "experiments.csv_rows", "experiments.csv_bytes"))


def count_mismatches(passes: list[Pass], per_pass) -> list[str]:
    """Names of count metrics that differ between passes."""
    rows = [per_pass(p) for p in passes]
    return sorted({k for r in rows for k in r if is_count(k)
                   and len({r.get(k) for r in rows}) > 1})


# Times below are in reference seconds (see hostspeed.py): each operation's
# wall time, less the probes inside it, over the host's speed factor.


def ref_ops(p: Pass, speed: SpeedLog) -> dict[str, float]:
    return {k: speed.ref_seconds(*span) for k, span in p.ops.items()}


def mean_pass_s(passes: list[Pass], speed: SpeedLog) -> float:
    """Time per pass: the passes' total time over their number."""
    return statistics.fmean(sum(ref_ops(p, speed).values()) for p in passes)


def op_p50(passes: list[Pass], speed: SpeedLog) -> float:
    """Median, over the workload's operations, of each operation's mean
    time across the passes (every pass runs every operation once)."""
    per = [ref_ops(p, speed) for p in passes]
    return statistics.median(
        statistics.fmean(r[k] for r in per) for k in per[0])


def trace_overhead(passes: list[Pass], speed: SpeedLog) -> float:
    """Mean over adjacent pairs of passes (traced first, then untraced, and
    so on) of traced minus untraced time.  Neighbours see nearly the same
    host, so the difference is the cost of the wrappers."""
    t = [sum(ref_ops(p, speed).values()) for p in passes]
    return statistics.fmean((t[i] - t[i + 1]) * (1 if i % 2 == 0 else -1)
                            for i in range(len(t) - 1))


def percentile_report(samples: list[float], q: int) -> str:
    n = len(samples)
    beyond = n * (100 - q) / 100
    if beyond < 10:
        return f"not reported (n={n}: fewer than 10 samples beyond p{q})"
    value = statistics.quantiles(samples, n=100)[q - 1]
    return f"{value:.6g} s (n={n})"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        return fail("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "geostep" / "__init__.py").is_file():
        return fail(f"no geostep sources under {SRC}; run from a source checkout")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    sys.path.insert(0, str(SRC))
    import geostep
    if Path(geostep.__file__).resolve().parent != (SRC / "geostep").resolve():
        return fail(f"imported geostep from {geostep.__file__}, not {SRC}")
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.NAMES)}")
    listed = {w["name"] for w in spec["workloads"]}
    if args.workload not in listed:
        return fail(f"workload {args.workload!r} is not listed in BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        record = {"workload": args.workload, "seed": args.seed,
                  "held_out_seed": workloads.HELD_OUT_SEED,
                  "trace": args.trace, "seconds": args.seconds,
                  "inputs": wl.inputs(), "environment": environment()}
        if args.trace == 1:
            imp, sci = measure_importtime(IMPORTTIME_SAMPLES)
        speed = SpeedLog()
        speed.resume()
        try:
            if args.trace == 0:
                setup = SetupSampler(speed, args.seconds, SETUP_SAMPLES)
                passes = untraced = run_phase(wl, args.seconds, MIN_PASSES,
                                              setup.maybe)
                setup.finish()
                traced = []
            else:
                tracer = Tracer()
                passes = run_phase(wl, args.seconds, MIN_TRACED_RUN_PASSES,
                                   tracer=tracer)
                traced, untraced = passes[0::2], passes[1::2]
        finally:
            speed.pause()
        if args.trace == 1:
            tracer.write(OUT / f"spans-{tag}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_times = [t for p in untraced for t in ref_ops(p, speed).values()]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.ops) for p in passes)
    failed_ops = len(failures)  # at most one entry per operation

    # counts the benchmark measures itself repeat on every pass, traced or
    # not; counts from spans repeat on every traced pass
    mismatched = count_mismatches(passes, lambda p: p.counts)
    values = {
        "pass_s": mean_pass_s(untraced, speed),
        "op_s.p50": op_p50(untraced, speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_pass = [sum(e - s - speed.probe_seconds(s, e) for s, e in p.ops.values())
                 for p in untraced]
    record["wall"] = {  # the same in host seconds, and every probe
        "pass_s": statistics.fmean(wall_pass),
        "pass_s_samples": wall_pass,
        "probe_s_samples": speed.seconds,
    }
    if not traced:
        values["setup_s"] = statistics.median(setup.ref_seconds())
        record["wall"]["setup_s_samples"] = setup.wall_seconds()
    else:
        mismatched += count_mismatches(traced, layer_metrics)
        per_pass = [layer_metrics(p) for p in traced]
        for name in per_pass[0]:
            vals = [m[name] for m in per_pass]
            values[name] = vals[0] if is_count(name) else statistics.fmean(vals)
        for name in workloads.F_EVALS_METRICS:
            values.setdefault(name, 0.0)
        values["trace.overhead_s"] = trace_overhead(passes, speed)
        values["setup.import_s"] = statistics.median(imp)
        values["setup.scipy_import_s"] = statistics.median(sci)
        record["traced_pass_s"] = [mean_pass_s([p], speed) for p in traced]
        record["spans"] = str((OUT / f"spans-{tag}.csv").relative_to(ROOT))
        record["op_labels"] = tracer.op_labels

    group = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[group] if m["name"] not in values]
    if missing:
        return fail(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    correct = not failures and not mismatched
    record.update({
        "passes": len(untraced),
        "pass_s_samples": [mean_pass_s([p], speed) for p in untraced],
        "op_s.p90": percentile_report(op_times, 90),
        "attempted": attempted, "failed": failed_ops,
        "failures": failures, "count_mismatches": mismatched,
        "metrics": metrics, "correct": correct,
    })
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} traced_passes={len(traced)} ops={attempted} "
          f"(one caller, closed loop)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  op_s.p90 = {record['op_s.p90']}")
    print(f"  failed_frac = {failed_ops}/{attempted} = {failed_ops / attempted:.3g}")
    for f in failures:
        print(f"  FAILED {f}")
    for name in mismatched:
        print(f"  COUNT MISMATCH {name}")
    print(f"  record: {(OUT / f'result-{tag}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
