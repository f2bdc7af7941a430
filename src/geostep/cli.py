"""Command line surface: analyze, integrate, verify, experiment, list.

A call builds the argument parser of its own command only.

Exit codes: 0 all good, 1 usage or input error, 2 completed with warnings
(inconsistent method analyzed, verification rows failing, partial run).
The default verification tolerance can be set through the GEOSTEP_TOL
environment variable; an explicit --tol always wins.  Either must be finite
and non-negative.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import methods as me
from . import geometry as ge
from .integrators import STARTERS, SingularStepError, StepFailure, integrate
from .systems import LinearHamiltonian, load_linear_system, sho
from . import experiments as ex

PASS_DEFAULT_TOL = 1e-10
REVERSIBILITY_STEPS = 100

CHECKS = ("order", "symmetry", "g-symplectic", "area", "reversibility",
          "step-transition")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    completed-with-warnings, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_system(name: str, omega: float | None) -> LinearHamiltonian:
    if name == "sho":
        return sho(1.0 if omega is None else omega)
    if omega is not None:
        raise ValueError("--omega applies to the sho system only")
    return load_linear_system(name)


def _parse_floats(text: str, n: int, flag: str) -> np.ndarray:
    vals = [float(t) for t in text.split(",") if t.strip()]
    if len(vals) != n:
        raise ValueError(f"{flag} needs {n} comma-separated values, got {len(vals)}")
    return np.array(vals)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    scheme = me.resolve_scheme(args.method)
    single = isinstance(scheme, me.MethodSpec)
    members = (("", scheme),) if single else scheme.members
    reports = {role: me.analyze(m) for role, m in members}
    pece = isinstance(scheme, me.PCPair)
    if args.json:
        doc = {role: me.report_to_dict(r) for role, r in reports.items()}
        if single:
            doc = doc[""]
        else:
            # only a pece pair names its mode
            doc = {"pair": scheme.name} | ({"mode": "pece"} if pece else {}) | doc
        print(json.dumps(doc, indent=2))
    else:
        if not single:
            print(f"pair: {scheme.name} ({'pece' if pece else 'partitioned'})")
        for r in reports.values():
            print(me.format_report(r), end="")
    return 2 if any(not r.consistent for r in reports.values()) else 0


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(args) -> int:
    scheme = resolved = me.resolve_scheme(args.method)
    if args.swap_partition:
        if not isinstance(scheme, me.PartitionedPair):
            raise ValueError("--swap-partition needs a partitioned pair")
        # the reversed pair, named so as not to overwrite the unswapped run
        scheme = me.PartitionedPair(f"{scheme.second.name},{scheme.first.name}",
                                    scheme.second, scheme.first)
    field = _resolve_system(args.system, args.omega)
    n = field.n
    q0 = _parse_floats(args.q0, n, "--q0")
    p0 = _parse_floats(args.p0, n, "--p0")
    y0 = np.concatenate([q0, p0])
    name = scheme.name.replace(",", "+")
    run, _ = ex.run_and_write(name, scheme, field, y0, args.h, args.steps,
                              args.starter, args.out, args.stride)
    if run.failure is not None:
        print(f"aborted at step {run.failure.step}", file=sys.stderr)
    h0 = run.stats[0]
    final_err = "-" if run.final_error is None else format(run.final_error, ".17g")
    print(
        f"{name}: steps={run.steps} H0={h0:.17g} "
        f"finalDeviation={run.final_energy - h0:.17g} finalError={final_err}"
    )
    for w in resolved.warnings:  # in --method's order, swapped or not
        print(f"warning: {w}", file=sys.stderr)
    return 0 if run.failure is None else 2


# ---------------------------------------------------------------------------
# verify


def _default_tol(args) -> float:
    source, tol = "--tol", args.tol
    if tol is None:
        source, env = "GEOSTEP_TOL", os.environ.get("GEOSTEP_TOL")
        if env is None:
            return PASS_DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError as exc:
            raise ValueError(f"GEOSTEP_TOL is not a number: {env!r}") from exc
    if not 0 <= tol < np.inf:
        raise ValueError(f"{source} must be finite and >= 0, got {tol}")
    return tol


def _verify_row(check: str, m: me.MethodSpec, field, h, tol):
    """(value, threshold, passed); threshold '-' when not applicable.

    A check that cannot be formed at this h (a singular implicit step, an
    ambiguous principal root) reads nan and fails, with a warning on
    stderr, so the rows after it still print."""
    if check == "order":
        order, _, consistent = me.order_analysis(m)
        return str(order), "1", consistent
    if check == "symmetry":
        sym = me.is_symmetric(m)
        return str(sym).lower(), "-", sym
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    try:
        if check == "g-symplectic":
            val = ge.g_symplecticity_defect(m, field, h).defect
        elif check == "area":
            val = ge.area_defect(ge.transfer_matrix(m, field, h))
        elif check == "reversibility":
            steps = m.k + REVERSIBILITY_STEPS
            traj = integrate(m, field, np.array([1.0, 0.0] * field.n), h, steps)
            val = ge.reversibility_residual(m, field, traj)
        else:
            val = ge.step_transition(m, field, h).residual
    except (ValueError, SingularStepError, StepFailure) as exc:
        print(f"warning: {m.name} {check}: {exc}", file=sys.stderr)
        val = np.nan
    return format(val, ".17g"), format(tol, ".17g"), val <= tol


# overflow (or a zero pivot) inside a check reads inf or nan: its row fails
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def cmd_verify(args) -> int:
    tol = _default_tol(args)
    field = _resolve_system(args.system, args.omega)
    omega = 1.0 if args.omega is None else args.omega
    if args.method is None:
        targets = [m for _, m in sorted(me.builtin_methods().items())]
    else:
        scheme = me.resolve_scheme(args.method)
        if not isinstance(scheme, me.MethodSpec):
            raise me.MethodError(f"verify takes a single method, not {scheme.name!r}")
        targets = [scheme]
    checks = [args.check] if args.check else list(CHECKS)
    if "reversibility" in checks:
        last = max(m.k for m in targets) + REVERSIBILITY_STEPS - 1
        if not np.isfinite(args.h * last):
            raise ValueError(f"the reversibility run's time grid overflows: "
                             f"h * {last} is not finite")
    print("method,system,omega,h,check,value,threshold,pass")
    all_pass = True
    for m in targets:
        for check in checks:
            value, thr, ok = _verify_row(check, m, field, args.h, tol)
            all_pass = all_pass and ok
            print(
                f"{m.name},{args.system},{omega:.17g},{args.h:.17g},"
                f"{check},{value},{thr},{'true' if ok else 'false'}"
            )
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> int:
    if (args.figure is None) == (args.scenario is None):
        raise ValueError("pass exactly one of --figure or --scenario")
    if args.figure is not None:
        scenarios = ex.figure_scenarios(args.figure, args.steps)
    else:
        s = ex.parse_scenario(Path(args.scenario).read_text())
        if args.steps is not None:
            s = dataclasses.replace(s, steps=args.steps)
        scenarios = [s]
    code = 0
    for s in scenarios:
        result = ex.run_scenario(s, args.outdir)
        print(f"{s.name}: {result.classification}")
        for w in result.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if result.failed_step is not None:
            code = 2
    return code


def cmd_list(args) -> int:
    for name in me.REGISTRY_NAMES:
        print(name)
    return 0


# ---------------------------------------------------------------------------


# name -> (help, handler, ((flag, add_argument keywords), ...))
COMMANDS = {
    "analyze": ("order, symmetry and structure report", cmd_analyze, (
        ("--method", dict(required=True, help="registry name or file")),
        ("--json", dict(action="store_true", help="machine-readable output")),
    )),
    "integrate": ("run a scheme and write CSV artifacts", cmd_integrate, (
        ("--method", dict(required=True, help="registry name, file, or "
                          "'first,second' partitioned pair")),
        ("--system", dict(default="sho", help="'sho' or a Hessian file")),
        ("--omega", dict(type=float, default=None,
                         help="oscillator frequency (sho only, default 1)")),
        ("--h", dict(type=float, default=0.1, help="step size")),
        ("--steps", dict(type=int, default=1000,
                         help="total recorded states, starter window included")),
        ("--q0", dict(default="1", help="initial positions, comma-separated")),
        ("--p0", dict(default="0", help="initial momenta, comma-separated")),
        ("--starter", dict(choices=STARTERS, default="rk4")),
        ("--out", dict(default=".", help="output directory")),
        ("--stride", dict(type=int, default=1, help="CSV row decimation")),
        ("--swap-partition", dict(action="store_true",
                                  help="second pair member drives q instead of p")),
    )),
    "verify": ("pass/fail structure checks as CSV rows", cmd_verify, (
        ("--check", dict(choices=CHECKS, default=None, help="one check (default: all)")),
        ("--method", dict(default=None,
                          help="registry name or file (default: all built-ins)")),
        ("--system", dict(default="sho")),
        ("--omega", dict(type=float, default=None)),
        ("--h", dict(type=float, default=0.1)),
        ("--tol", dict(type=float, default=None,
                       help="pass threshold (default GEOSTEP_TOL or 1e-10)")),
    )),
    "experiment": ("run canned or file-defined scenarios", cmd_experiment, (
        ("--figure", dict(type=int, default=None, help="canned group 1..4")),
        ("--scenario", dict(default=None, help="scenario file")),
        ("--steps", dict(type=int, default=None, help="override step count")),
        ("--outdir", dict(default=".", help="output directory")),
    )),
    "list": ("print the built-in registry", cmd_list, ()),
}


def build_parser(command: str | None = None) -> _Parser:
    """The full command tree, or only `command`'s branch of it.  A one-branch
    parser still shows all five commands in its usage line; the full tree
    names no metavar, so its own errors say "argument command"."""
    p = _Parser(prog="geostep", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, metavar=(
        None if command is None else "{" + ",".join(COMMANDS) + "}"))
    for name in COMMANDS if command is None else (command,):
        summary, func, arguments = COMMANDS[name]
        s = sub.add_parser(name, help=summary)
        for flag, kwargs in arguments:
            s.add_argument(flag, **kwargs)
        s.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option but -h, so the first token names the
    # command; for -h or a usage error the full tree does the printing
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None
                        ).parse_args(argv)
    if getattr(args, "h", None) is not None and not 0 < args.h < np.inf:
        print("error: h must be positive and finite", file=sys.stderr)
        return 1
    if getattr(args, "stride", None) is not None and args.stride < 1:
        print("error: stride must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except StepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (me.MethodError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
