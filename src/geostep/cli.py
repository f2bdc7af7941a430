"""Command line surface: analyze, integrate, verify, experiment, list.

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
from .integrators import PartitionedPair, SolverConfig, StepFailure, integrate
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
    scheme = ex.resolve_scheme(args.method)
    if isinstance(scheme, me.MethodSpec):
        reports = [me.analyze(scheme)]
        if args.json:
            print(json.dumps(me.report_to_dict(reports[0]), indent=2))
        else:
            print(me.format_report(reports[0]), end="")
    elif hasattr(scheme, "predictor"):
        reports = [me.analyze(scheme.predictor), me.analyze(scheme.corrector)]
        if args.json:
            print(json.dumps({
                "pair": scheme.name,
                "mode": "pece",
                "predictor": me.report_to_dict(reports[0]),
                "corrector": me.report_to_dict(reports[1]),
            }, indent=2))
        else:
            print(f"pair: {scheme.name} (pece)")
            for r in reports:
                print(me.format_report(r), end="")
    else:
        reports = [me.analyze(scheme.q_method), me.analyze(scheme.p_method)]
        if args.json:
            print(json.dumps({
                "pair": scheme.name,
                "positions": me.report_to_dict(reports[0]),
                "momenta": me.report_to_dict(reports[1]),
            }, indent=2))
        else:
            print(f"pair: {scheme.name} (partitioned)")
            for r in reports:
                print(me.format_report(r), end="")
    return 2 if any(not r.consistent for r in reports) else 0


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(args) -> int:
    scheme = ex.resolve_scheme(args.method)
    if args.swap_partition:
        if not isinstance(scheme, PartitionedPair):
            raise ValueError("--swap-partition needs a partitioned pair")
        scheme = dataclasses.replace(scheme, swap=True)
    field = _resolve_system(args.system, args.omega)
    n = field.n
    q0 = _parse_floats(args.q0, n, "--q0")
    p0 = _parse_floats(args.p0, n, "--p0")
    y0 = np.concatenate([q0, p0])
    if args.steps < scheme.k:
        raise ValueError(
            f"steps must be >= window k = {scheme.k}, got {args.steps}"
        )
    cfg = SolverConfig(starter=args.starter)
    name = scheme.name.replace(",", "+")
    outdir = Path(args.out)
    code = 0
    try:
        traj = integrate(scheme, field, y0, args.h, args.steps, cfg)
        failed_step = None
    except StepFailure as exc:
        traj = exc.partial
        failed_step = exc.step
        code = 2
    files = ex.write_artifacts(name, traj, outdir, args.stride,
                               ("phase", "energy", "error"))
    if failed_step is not None:
        for p in files.values():
            ex.append_abort_comment(Path(p), failed_step)
        print(f"aborted at step {failed_step}", file=sys.stderr)
    H = traj.energies
    final_err = "-" if traj.errors is None else format(traj.errors[-1], ".17g")
    print(
        f"{name}: steps={len(traj.states)} H0={H[0]:.17g} "
        f"finalDeviation={H[-1] - H[0]:.17g} finalError={final_err}"
    )
    for w in ex.gather_warnings(scheme):
        print(f"warning: {w}", file=sys.stderr)
    return code


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
    """(value, threshold, passed); threshold '-' when not applicable."""
    if check == "order":
        rep = me.analyze(m)
        return str(rep.order), "1", rep.consistent
    if check == "symmetry":
        sym = me.is_symmetric(m)
        return str(sym).lower(), "-", sym
    if check == "g-symplectic":
        rep = ge.g_symplecticity_defect(m, field, h)
        return format(rep.defect, ".17g"), format(tol, ".17g"), rep.defect <= tol
    if check == "area":
        tm = ge.transfer_matrix(m, field, h)
        val = ge.area_defect(tm.M)
        return format(val, ".17g"), format(tol, ".17g"), val <= tol
    if check == "reversibility":
        steps = m.k + REVERSIBILITY_STEPS
        traj = integrate(m, field, np.array([1.0, 0.0] * field.n), h, steps)
        val = ge.reversibility_residual(m, field, traj)
        return format(val, ".17g"), format(tol, ".17g"), val <= tol
    if check == "step-transition":
        st = ge.step_transition(m, field, h)
        return format(st.residual, ".17g"), format(tol, ".17g"), st.residual <= tol
    raise ValueError(f"unknown check {check!r}")


def cmd_verify(args) -> int:
    tol = _default_tol(args)
    field = _resolve_system(args.system, args.omega)
    omega = 1.0 if args.omega is None else args.omega
    if args.method is None:
        targets = [m for _, m in sorted(me.builtin_methods().items())]
    else:
        scheme = ex.resolve_scheme(args.method)
        if not isinstance(scheme, me.MethodSpec):
            raise me.MethodError(f"verify takes a single method, not {scheme.name!r}")
        targets = [scheme]
    checks = [args.check] if args.check else list(CHECKS)
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


def build_parser() -> _Parser:
    p = _Parser(prog="geostep", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="order, symmetry and structure report")
    a.add_argument("--method", required=True, help="registry name or file")
    a.add_argument("--json", action="store_true", help="machine-readable output")
    a.set_defaults(func=cmd_analyze)

    i = sub.add_parser("integrate", help="run a scheme and write CSV artifacts")
    i.add_argument("--method", required=True,
                   help="registry name, file, or 'first,second' partitioned pair")
    i.add_argument("--system", default="sho", help="'sho' or a Hessian file")
    i.add_argument("--omega", type=float, default=None,
                   help="oscillator frequency (sho only, default 1)")
    i.add_argument("--h", type=float, default=0.1, help="step size")
    i.add_argument("--steps", type=int, default=1000,
                   help="total recorded states, starter window included")
    i.add_argument("--q0", default="1", help="initial positions, comma-separated")
    i.add_argument("--p0", default="0", help="initial momenta, comma-separated")
    i.add_argument("--starter", choices=("rk4", "exact"), default="rk4")
    i.add_argument("--out", default=".", help="output directory")
    i.add_argument("--stride", type=int, default=1, help="CSV row decimation")
    i.add_argument("--swap-partition", action="store_true",
                   help="second pair member drives q instead of p")
    i.set_defaults(func=cmd_integrate)

    v = sub.add_parser("verify", help="pass/fail structure checks as CSV rows")
    v.add_argument("--check", choices=CHECKS, default=None,
                   help="one check (default: all)")
    v.add_argument("--method", default=None,
                   help="registry name or file (default: all built-ins)")
    v.add_argument("--system", default="sho")
    v.add_argument("--omega", type=float, default=None)
    v.add_argument("--h", type=float, default=0.1)
    v.add_argument("--tol", type=float, default=None,
                   help="pass threshold (default GEOSTEP_TOL or 1e-10)")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="run canned or file-defined scenarios")
    e.add_argument("--figure", type=int, default=None, help="canned group 1..4")
    e.add_argument("--scenario", default=None, help="scenario file")
    e.add_argument("--steps", type=int, default=None, help="override step count")
    e.add_argument("--outdir", default=".", help="output directory")
    e.set_defaults(func=cmd_experiment)

    l = sub.add_parser("list", help="print the built-in registry")
    l.set_defaults(func=cmd_list)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "h", None) is not None and not 0 < args.h < np.inf:
        print("error: h must be positive and finite", file=sys.stderr)
        return 1
    if getattr(args, "steps", None) is not None and args.steps < 1:
        print("error: steps must be >= 1", file=sys.stderr)
        return 1
    if getattr(args, "stride", None) is not None and args.stride < 1:
        print("error: stride must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except StepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (me.MethodError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
