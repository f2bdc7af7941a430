"""Time each layer of the streamed long runs, in process.

    python tools/fold_layers.py SRC [ROUNDS]

SRC is the directory that holds the `geostep` package (`src` in a
checkout).  A pass runs the five built-in 10^6-step scenarios (`fig2-*`,
`fig3-pc`, `fig4-*`) through `run_scenario` into a temporary directory;
one pass warms up, then ROUNDS passes (15 by default) are timed.  Each
layer of `run_and_write`'s stream is timed by wrapping what `_fold` and
`run_and_write` call, looked up on their modules at call time:

- stream: the `_stream` generator's work, between chunks;
- energies: `_energy_rows` and `LinearHamiltonian.energies`;
- scan: `_Scan.add`;
- errors: the exact-error channel `_errors` and the function it returns;
- csv: `write_artifacts`;
- other: the rest of the pass (the fold's own copies, the summaries).

It prints the median per pass of each layer, in ms, and its share of the
median pass.  Run it on two trees to compare them layer by layer; the
wrappers add about a microsecond a call, a few hundred calls a pass.
"""
from __future__ import annotations

from pathlib import Path
import statistics
import sys
import tempfile
import time

LAYERS = ("stream", "energies", "scan", "errors", "csv")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tools/fold_layers.py SRC [ROUNDS]", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    rounds = int(argv[1]) if len(argv) == 2 else 15
    from geostep import experiments as ex, systems

    spent = dict.fromkeys(LAYERS, 0.0)

    def timed(layer, f):
        def call(*args, **kw):
            start = time.perf_counter()
            try:
                return f(*args, **kw)
            finally:
                spent[layer] += time.perf_counter() - start
        return call

    def stream(*args, **kw):
        chunks = ex_stream(*args, **kw)
        while True:
            start = time.perf_counter()
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            finally:
                spent["stream"] += time.perf_counter() - start
            yield chunk

    def errors(*args, **kw):
        return timed("errors", timed("errors", ex_errors)(*args, **kw))

    ex_stream, ex_errors = ex._stream, ex._errors
    ex._stream, ex._errors = stream, errors
    ex._energy_rows = timed("energies", ex._energy_rows)
    systems.LinearHamiltonian.energies = timed(
        "energies", systems.LinearHamiltonian.energies)
    ex._Scan.add = timed("scan", ex._Scan.add)
    ex.write_artifacts = timed("csv", ex.write_artifacts)

    scenarios = [s for s in ex.builtin_scenarios() if s.steps == 1_000_000]
    passes, layers = [], {layer: [] for layer in LAYERS}
    with tempfile.TemporaryDirectory() as out:
        for i in range(rounds + 1):
            for layer in LAYERS:
                spent[layer] = 0.0
            start = time.perf_counter()
            for s in scenarios:
                ex.run_scenario(s, out)
            if i:  # the first pass warms up
                passes.append(time.perf_counter() - start)
                for layer in LAYERS:
                    layers[layer].append(spent[layer])
    layers["other"] = [p - sum(layers[layer][i] for layer in LAYERS)
                       for i, p in enumerate(passes)]
    whole = statistics.median(passes)
    print(f"{len(scenarios)} scenarios: {', '.join(s.name for s in scenarios)}")
    print(f"{rounds} passes after one warm-up; median per pass")
    print(f"{'layer':<10}{'ms':>9}{'share':>8}")
    for layer, times in layers.items():
        median = statistics.median(times)
        print(f"{layer:<10}{1e3 * median:9.1f}{median / whole:8.1%}")
    print(f"{'pass':<10}{1e3 * whole:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
