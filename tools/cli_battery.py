"""Run a fixed battery of `geostep` commands and print everything they show.

    python tools/cli_battery.py SRC > run.txt

SRC is the directory that holds the `geostep` package (`src` in a
checkout).  Each case runs in a fresh `python -m geostep.cli` with
PYTHONPATH=SRC, inside an output directory that is emptied before it, and
prints its argv, exit code, stdout, stderr and the sha256 of every file it
wrote, by relative path.  Method and scenario files are written next to the
output directory and named by relative path, so two runs print the same text
when the two trees behave the same: `diff old.txt new.txt` is the identity
check.  The canned figures 2-4 run 10^6 steps per scenario; the battery
takes about 20 s on a 2-CPU host.

Besides the oscillator it integrates a 2-DOF Hessian file, with each starter,
so the Hessian loader and the matrix-exponential paths of the exact starter
and the exact-error channel run too, and verifies every built-in on a saddle
Hessian at a step where implicit Euler's step is singular.  The Hessian runs
of ab4 also come at k + C - 1, k + C + 1 and k + 2C + 1 steps, at stride 17,
where C = 32768 states is a chunk of the streamed run: the run and its
exact flow cross chunk edges, and the stride divides neither.  Two runs write
every row: one long enough for the CSV writer to split its rows with a
forked child, and one that overflows, so the CSVs hold inf, -inf and nan.
One run is on an indefinite 2-DOF Hessian, H = (q1^2 + p1^2 - q2^2 - p2^2)/2,
from a start where H0 = 0: its energies take both signs and zero within the
first block of the run statistics, |y|^2 is watched for the crossing, which
comes at step 695, and the run goes on past two more chunks, overflowing to
nan.

The last case is a rerun: `integrate` over 300 steps, then over 30 steps
into the same `--out`, after a fresh 30-step run in an empty directory.
Every file the rerun leaves, each rewritten in place over a longer one,
must hash as the fresh run's; one line says whether it does.
"""
from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

REGISTRY = ("ab4", "am4", "explicit-euler", "implicit-euler", "leapfrog",
            "m1-as-printed", "m1-corrected", "m3-line1", "m3-line2-as-printed",
            "m3b-corrected", "midpoint", "pc-m2")
SPECS = REGISTRY + ("m3-line1,m3b-corrected", "m3-line1,m3-line2-as-printed",
                    "ab4,leapfrog", "nosuch", "pc-m2,ab4")

HEAD = "name: {name}\nk: 1\nalpha: -1 1\n"
# method files, each well-formed but for what its name says
FILES = {
    "good": HEAD + "beta: 1/2 1/2\n",
    "gamma": HEAD + "beta: 1/2 1/2\ngamma:\n1 0\n1/2 1/2\n",
    "no-colon": "name: x\nk: 1\nalpha -1 1\nbeta: 1 0\n",
    "stray-row": HEAD + "beta: 1 0\n1 0\n",
    "unknown-key": HEAD + "beta: 1 0\nzeta: 1\n",
    "duplicate-key": HEAD + "beta: 1 0\nname: y\n",
    "missing-key": "name: x\nalpha: -1 1\nbeta: 1 0\n",
    "malformed-k": "name: x\nk: one\nalpha: -1 1\nbeta: 1 0\n",
    "malformed-rational": HEAD + "beta: 1/0 1\n",
    "short-beta": HEAD + "beta: 1\n",
    "bad-name": "name: -x\nk: 1\nalpha: -1 1\nbeta: 1 0\n",
    "zero-lead": "name: x\nk: 1\nalpha: -1 0\nbeta: 1 0\n",
    "k-past-bound": "name: x\nk: 65\nalpha:" + " 0" * 65 + " 1\nbeta:" + " 0" * 66 + "\n",
    "gamma-value": HEAD + "beta: 1/2 1/2\ngamma: junk\n1 0\n0 1\n",
    "gamma-twice": HEAD + "beta: 1/2 1/2\ngamma:\n1 0\n0 1\ngamma:\n1 0\n0 1\n",
    "gamma-empty": HEAD + "beta: 1/2 1/2\ngamma:\n",
    "gamma-row-sum": HEAD + "beta: 1/2 1/2\ngamma:\n1 1\n0 1\n",
    "generalized-no-gamma": HEAD + "beta: 1/2 1/2\nkind: generalized\n",
    "one-leg-sum": HEAD + "beta: 1 1\nkind: one-leg\n",
    "huge": "name: big\nk: 1\nalpha: -1e400 1e400\nbeta: 1 0\n",
    "bits-65": HEAD + f"beta: 0 {2**64}\n",
    # its time-reversed run at h = 100 overflows (`verify` reads inf)
    "reversed-overflow": "name: {name}\nk: 2\nalpha: -1/2 1 1\nbeta: 1 1 0\n",
    # the time grid of its reversibility run overflows at h = 1e308
    "grid-overflow": "name: {name}\nk: 1\nalpha: 1 1\nbeta: 1 1\n",
}
ALL_COMMANDS = ("good", "gamma", "huge")
# scenario files: H0 = 0 (the classifier watches |y|^2), a start off the
# q axis over enough steps for many blocks of the run statistics, a drift
# slope past the float range (inf), a constant energy record (slope 0) and
# a run over four chunks of the streamed scenario run (32768 states each
# after the window), at a stride that divides neither the chunks nor the run
SCENARIOS = {
    "zero-start": "scenario: zero-start\nmethod: leapfrog\nsteps: 20000\n"
                  "q0: 0\np0: 0\nstride: 100\n",
    "off-axis": f"scenario: off-axis\nmethod: m1-corrected\nsteps: 100000\n"
                f"q0: {math.cos(1)!r}\np0: {math.sin(1)!r}\nstride: 100\n",
    "over-range-slope": "scenario: over-range-slope\nmethod: explicit-euler\n"
                        "omega: 1e150\nh: 1e-150\nsteps: 5\nq0: 1\n",
    "constant-energy": "scenario: constant-energy\nmethod: leapfrog\n"
                       "h: 5e-324\nsteps: 10\nq0: 1e150\n",
    "chunk-edges": "scenario: chunk-edges\nmethod: pc-m2\nsteps: 100003\n"
                   "q0: 0.6\np0: 0.8\nstride: 7\n",
}

# a 2-DOF Hessian, the oscillator's blockdiag(K, I) with K coupled
HESSIAN = "2 0.5 0 0\n0.5 3 0 0\n0 0 1 0\n0 0 0 1\n"
# the saddle H = (p^2 - q^2) / 2: implicit Euler's step is singular at h = 1
SADDLE = "-1 0\n0 1\n"
# two oscillators of opposite energy: S = diag(1, -1, 1, -1)
INDEFINITE = "1 0 0 0\n0 -1 0 0\n0 0 1 0\n0 0 0 -1\n"

INTEGRATE = ("integrate", "--steps", "300", "--stride", "7", "--method")
# steps past ab4's window (k = 4) that put the run's end next to a chunk edge
CHUNK_EDGES = (32768 - 1, 32768 + 1, 2 * 32768 + 1)
# the rerun case's two runs, long then short, into one --out
RERUN = [["integrate", "--steps", steps, "--stride", "1", "--method", "leapfrog",
          "--out", "run"] for steps in ("300", "30")]


def cases() -> list[list[str]]:
    out = [["list"]]
    for spec in SPECS:
        out += [["analyze", "--method", spec], ["analyze", "--json", "--method", spec],
                [*INTEGRATE, spec]]
    out += [[*INTEGRATE, "ab4", "--system", "../in/hessian.txt", "--q0", "1,-0.5",
             "--p0", "0.2,0.3", "--starter", starter] for starter in ("rk4", "exact")]
    out += [["integrate", "--steps", str(4 + edge), "--stride", "17", "--method", "ab4",
             "--system", "../in/hessian.txt", "--q0", "1,-0.5", "--p0", "0.2,0.3",
             "--starter", starter]
            for edge in CHUNK_EDGES for starter in ("rk4", "exact")]
    # the second pair's members both carry warnings, printed in --method order
    out += [[*INTEGRATE, spec, "--swap-partition"]
            for spec in ("m3-line1,m3b-corrected", "m1-as-printed,m3-line2-as-printed")]
    # every row written: 40000 rows are past the forked split's threshold
    # (32768), and explicit Euler at h = 7 overflows to inf, -inf and nan
    out += [["integrate", "--steps", "40000", "--stride", "1", "--method", "leapfrog",
             "--system", "../in/hessian.txt", "--q0", "1,-0.5", "--p0", "0.2,0.3"],
            ["integrate", "--steps", "400", "--stride", "1", "--method",
             "explicit-euler", "--h", "7"],
            ["integrate", "--steps", "100000", "--stride", "17", "--method",
             "explicit-euler", "--system", "../in/indefinite.txt", "--q0", "1,0",
             "--p0", "0,1"]]
    out += [["verify"], ["verify", "--h", "0.3", "--omega", "2"],
            ["verify", "--method", "../in/reversed-overflow.txt", "--h", "100"],
            ["verify", "--h", "1e200"],
            ["verify", "--system", "../in/saddle.txt", "--h", "1"],
            ["verify", "--method", "../in/grid-overflow.txt", "--h", "1e308"]]
    out += [["experiment", "--figure", str(figure)] for figure in range(1, 5)]
    out += [["experiment", "--scenario", f"../in/{name}.txt"] for name in SCENARIOS]
    for name in FILES:
        path = f"../in/{name}.txt"
        out.append(["analyze", "--method", path])
        if name in ALL_COMMANDS:
            out += [[*INTEGRATE, path], ["verify", "--method", path]]
    return out


def _empty(outdir: Path) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()


def _run(args: list[str], outdir: Path, env: dict) -> dict[str, str]:
    """Run one command in `outdir` and print it; returns the sha256 of
    every file there by relative path."""
    proc = subprocess.run([sys.executable, "-m", "geostep.cli", *args],
                          cwd=outdir, env=env, capture_output=True, text=True)
    print(f"$ geostep {' '.join(args)}\nexit: {proc.returncode}")
    print(f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}--- files")
    digests = {f.relative_to(outdir).as_posix():
               hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(p for p in outdir.rglob("*") if p.is_file())}
    for path, digest in digests.items():
        print(f"{digest}  {path}")
    print()
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_battery.py SRC", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()))
    env.pop("GEOSTEP_TOL", None)
    with tempfile.TemporaryDirectory() as tmp:
        inputs, outdir = Path(tmp, "in"), Path(tmp, "out")
        inputs.mkdir()
        for name, text in FILES.items():
            (inputs / f"{name}.txt").write_text(text.format(name=name))
        for name, text in SCENARIOS.items():
            (inputs / f"{name}.txt").write_text(text)
        (inputs / "hessian.txt").write_text(HESSIAN)
        (inputs / "saddle.txt").write_text(SADDLE)
        (inputs / "indefinite.txt").write_text(INDEFINITE)
        for args in cases():
            _empty(outdir)
            _run(args, outdir, env)
        _empty(outdir)
        fresh = _run(RERUN[1], outdir, env)
        _empty(outdir)
        _run(RERUN[0], outdir, env)
        same = _run(RERUN[1], outdir, env) == fresh
        print(f"rerun: {'same bytes as' if same else 'differs from'} the fresh run\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
