"""Print the peak resident set size and wall time of fixed long runs.

    python tools/longrun_memory.py SRC

SRC is the directory that holds the `geostep` package (`src` in a
checkout).  Each case runs in a fresh `python -m geostep.cli` with
PYTHONPATH=SRC, inside a temporary directory, and one line per case gives
its exit code, that child's own `ru_maxrss` in MB (KiB / 1024, as the
benchmark reports `peak_rss_mb`) and its wall time from start to exit, the
interpreter's start and imports included.  The cases are `geostep
experiment --figure 2`, `3` and `4`, 10^6 steps per scenario; `experiment
--figure 3 --steps 30000000`, where `fig3-pc` explodes, whose line also
gives its `crossingStep` beside the step predicted from the window map's
spectral radius, log(1000) / (2 log rho(M)), and the 10^6-step figures'
peaks beside its own; one `integrate` of leapfrog on a 2-DOF Hessian
file over 10^5 steps at stride 1, as the benchmark's `dense-output`
workload runs it, whose exact-error channel forms the matrix exponential
exp(hA); the same over 2 10^6 steps at stride 1000, whose exact flow is a
second stream beside the run; and `integrate` of leapfrog on the
oscillator over 10^7 steps at stride 1000, whose line also gives figure
3's peak at 3 10^7 steps.  Every run streams through fixed buffers, so
its peak should not grow with the step count.  Run it on a parent tree and
on a change to compare their memory and cold start outside the benchmark;
RSS varies by a few hundred KB from run to run, wall time by more.  Each case
then runs a second time in the same directory, over the first run's
artifacts, and its line ends with that rerun's exit code and wall time.
"""
from __future__ import annotations

import os
from pathlib import Path
import subprocess
import sys
import tempfile
import time

# a 2-DOF Hessian blockdiag(K, I), K coupled with eigenvalues in [0.5, 2]
HESSIAN = "1.2 0.3 0 0\n0.3 0.9 0 0\n0 0 1 0\n0 0 0 1\n"

FIGURES = {f"figure {n}": ["experiment", "--figure", str(n), "--outdir", "."]
           for n in (2, 3, 4)}
LONG = "figure 3, 3e7 steps"
# fig3-pc's window map has rho(M) - 1 = 1.587e-7, so its energy, which grows
# as rho(M)^(2j), crosses 1000 H0 at about step log(1000) / (2 log rho(M))
PREDICTED_CROSSING = 21_763_566
CASES = {
    **FIGURES,
    LONG: FIGURES["figure 3"] + ["--steps", "30000000"],
    "hessian integrate": ["integrate", "--method", "leapfrog", "--system",
                          "hessian.txt", "--h", "0.1", "--steps", "100000",
                          "--q0", "1,0.5", "--p0", "0,-0.25", "--stride", "1"],
    "hessian integrate, 2e6 steps": [
        "integrate", "--method", "leapfrog", "--system", "hessian.txt", "--h", "0.1",
        "--steps", "2000000", "--q0", "1,0.5", "--p0", "0,-0.25", "--stride", "1000"],
}
LONG_INTEGRATE = "integrate, 1e7 steps"
CASES[LONG_INTEGRATE] = ["integrate", "--method", "leapfrog", "--h", "0.1",
                         "--steps", "10000000", "--stride", "1000"]


def run_child(src: Path, argv: list[str], out: str) -> tuple[int, float, float]:
    """(exit code, ru_maxrss in MB, wall seconds) of one command line in a
    fresh interpreter, run in `out`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "geostep.cli", *argv], cwd=out, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # wait4 reports this child's own peak; RUSAGE_CHILDREN would give
    # the largest over every child reaped so far
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, wall


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/longrun_memory.py SRC", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    peaks = {}
    for name, args in CASES.items():
        with tempfile.TemporaryDirectory() as out:
            Path(out, "hessian.txt").write_text(HESSIAN)
            code, peaks[name], wall = run_child(src, args, out)
            line = (f"{name}: exit {code} ru_maxrss_mb {peaks[name]:.1f} "
                    f"wall_s {wall:.2f}")
            if name == LONG:
                summary = Path(out, "fig3-pc-summary.txt").read_text()
                crossing = summary.split("crossingStep: ", 1)[1].split()[0]
                figures = ", ".join(f"{peaks[f]:.1f}" for f in FIGURES)
                line += (f" crossingStep {crossing} (predicted "
                         f"{PREDICTED_CROSSING}) ru_maxrss_mb at 10^6 steps "
                         f"(figures 2, 3, 4): {figures}")
            if name == LONG_INTEGRATE:
                line += f" ru_maxrss_mb of {LONG}: {peaks[LONG]:.1f}"
            again, _, rewall = run_child(src, args, out)
        print(f"{line} rerun: exit {again} wall_s {rewall:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
