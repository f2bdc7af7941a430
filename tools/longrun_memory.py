"""Print the peak resident set size of each canned long-run figure.

    python tools/longrun_memory.py SRC

SRC is the directory that holds the `geostep` package (`src` in a
checkout).  Each of `geostep experiment --figure 2`, `3` and `4` runs in a
fresh `python -m geostep.cli` with PYTHONPATH=SRC, writing into a temporary
directory, and one line per figure gives its exit code and that child's own
`ru_maxrss` in MB (KiB / 1024, as the benchmark reports `peak_rss_mb`).
Figures 2-4 run 10^6 steps per scenario, so the peak is set by the longest
arrays a run holds at once.  Run it on a parent tree and on a change to
compare their memory outside the benchmark; RSS varies by a few hundred KB
from run to run.
"""
from __future__ import annotations

import os
from pathlib import Path
import subprocess
import sys
import tempfile

FIGURES = (2, 3, 4)


def peak_rss_mb(src: Path, figure: int) -> tuple[int, float]:
    """(exit code, ru_maxrss in MB) of one figure in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "geostep.cli", "experiment", "--figure",
             str(figure), "--outdir", out],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # wait4 reports this child's own peak; RUSAGE_CHILDREN would give
        # the largest over every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/longrun_memory.py SRC", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    for figure in FIGURES:
        code, mb = peak_rss_mb(src, figure)
        print(f"figure {figure}: exit {code} ru_maxrss_mb {mb:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
