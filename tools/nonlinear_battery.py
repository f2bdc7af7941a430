"""Run a fixed battery of nonlinear integrations and print a digest of each.

    python tools/nonlinear_battery.py SRC > run.txt

SRC is the directory that holds the `geostep` package (`src` in a
checkout).  Every case integrates one scheme on one nonlinear field at one
step size, through the per-step loop and, for implicit schemes, Newton.  It
prints the case, the number of gradient calls and the sha256 of the
recorded states; a run that fails also prints the failing step and its
message, and the digest is that of the partial run.  NaN entries are hashed
as one canonical NaN, so a change that only moves NaN sign bits (in runs
that have already blown up) does not show.  The last cases are the runs of
the benchmark's `nonlinear-implicit` workload (scheme, h and steps) on its
pendulum, from the edges of its four q0 strata, `BENCH_Q0`.  Two runs
print the same text when the two trees take the same steps: `diff old.txt
new.txt` is the identity check.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path
import sys

import numpy as np

PAIRS = ("m3-line1,m3b-corrected", "ab4,leapfrog")
HEAD = "name: {name}\nk: 1\nalpha: -1 1\nbeta: 1/2 1/2\n"
# generalized schemes: one leg reaching z_k, and two (one with no known part)
GAMMA = {
    "gamma-one-leg": HEAD + "gamma:\n1/2 1/2\n1/2 1/2\n",
    "gamma-two-legs": HEAD + "gamma:\n1/3 2/3\n0 1\n",
}
STEPS = 200
H = (0.05, 0.3, 1.0)
# bench/workloads.py NonlinearImplicit.RUNS: method, h, steps; p0 = 0
BENCH_RUNS = (("midpoint", 0.1, 500), ("midpoint", 1.0, 125),
              ("m1-corrected", 0.1, 1250))
BENCH_Q0 = (0.5, 1.0, 1.5, 2.0)


def _pendulum(y):
    return np.array([math.sin(y[0]), y[1]])


def _quartic(y):
    """H = |p|^2/2 + (q1^4 + q2^4)/4 + q1^2 q2^2 / 2 + q1 q2."""
    q1, q2 = y[0], y[1]
    return np.array([q1 ** 3 + q1 * q2 * q2 + q2, q2 ** 3 + q1 * q1 * q2 + q1,
                     y[2], y[3]])


FIELDS = {  # name: (n, gradient, y0)
    "pendulum": (1, _pendulum, (1.0, 0.0)),
    "pendulum-fast": (1, _pendulum, (3.0, 1.5)),
    "quartic": (2, _quartic, (1.0, -0.5, 0.2, 0.3)),
    "quartic-large": (2, _quartic, (4.0, 3.0, -2.0, 1.0)),
}


def _digest(states: np.ndarray) -> str:
    states = states.copy()
    states[np.isnan(states)] = np.nan
    return hashlib.sha256(states.tobytes()).hexdigest()


def _case(case: str, scheme, field, y0, h: float, steps: int, calls: list[int]):
    """Run one case and print its line."""
    from geostep.integrators import StepFailure, integrate

    calls[0] = 0
    with np.errstate(all="ignore"):
        try:
            states = integrate(scheme, field, np.array(y0), h, steps).states
            outcome = ""
        except StepFailure as exc:
            states = exc.partial.states
            outcome = f" step {exc.step}: {exc.cause}"
    print(f"{case}: evals {calls[0]} sha256 {_digest(states)}{outcome}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/nonlinear_battery.py SRC", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from geostep.experiments import resolve_scheme
    from geostep.methods import REGISTRY_NAMES, parse_method
    from geostep.systems import GradientField

    schemes = {name: resolve_scheme(name) for name in REGISTRY_NAMES + PAIRS}
    schemes.update((name, parse_method(text.format(name=name)))
                   for name, text in GAMMA.items())
    calls, fields = [0], {}
    for field_name, (n, gradient, y0) in FIELDS.items():

        def counted(y, gradient=gradient):
            calls[0] += 1
            return gradient(y)

        # only the states are hashed, so the energy is left at zero
        fields[field_name] = field = GradientField(n, lambda y: 0.0, counted)
        for name, scheme in schemes.items():
            for h in H:
                _case(f"{name} {field_name} h={h:g}", scheme, field, y0, h, STEPS,
                      calls)
    for name, h, steps in BENCH_RUNS:
        for q0 in BENCH_Q0:
            _case(f"bench {name} pendulum q0={q0:g} h={h:g} steps={steps}",
                  schemes[name], fields["pendulum"], (q0, 0.0), h, steps, calls)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
