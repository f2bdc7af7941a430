"""Span tracing around geostep's public functions, installed from outside.

`Tracer.install()` replaces every binding of the traced functions in the
loaded geostep modules (module attributes, names imported with `from ...
import`, and the class attributes of the two field types) with a wrapper
that records one span per call; `uninstall()` puts the originals back.
Nothing under `src/` is edited.

Spans live in flat in-memory columns and are written out once, at the end
of the run.  Each span holds its name, start and end (perf_counter_ns), the
span that was open when it started, and the id of the benchmark operation
it belongs to.
"""
from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# (module, attribute) -> span name.  "Class.method" attributes are patched
# on the class; plain functions are patched wherever a geostep module binds
# the same function object.
TRACED = {
    ("cli", "main"): "cli.main",
    ("experiments", "run_scenario"): "experiments.run_scenario",
    ("experiments", "write_artifacts"): "experiments.write_artifacts",
    ("experiments", "classify"): "experiments.classify",
    ("experiments", "resolve_scheme"): "experiments.resolve_scheme",
    ("integrators", "integrate"): "integrators.integrate",
    ("integrators", "window_matrix"): "integrators.window_matrix",
    ("integrators", "rk4_start"): "integrators.starter",
    ("integrators", "exact_start"): "integrators.starter",
    ("methods", "analyze"): "methods.analyze",
    ("methods", "root_condition"): "methods.root_condition",
    ("methods", "order_analysis"): "methods.order_analysis",
    ("methods", "builtin_methods"): "methods.builtin_methods",
    ("geometry", "transfer_matrix"): "geometry.transfer_matrix",
    ("geometry", "g_symplecticity_defect"): "geometry.g_symplecticity_defect",
    ("geometry", "step_transition"): "geometry.step_transition",
    ("geometry", "reversibility_residual"): "geometry.reversibility_residual",
    ("systems", "sho_exact"): "systems.sho_exact",
    ("systems", "LinearHamiltonian.evaluate"): "systems.evaluate",
    ("systems", "GradientField.evaluate"): "systems.evaluate",
    ("systems", "LinearHamiltonian.energies"): "systems.energies",
    ("systems", "GradientField.energies"): "systems.energies",
}

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._code = {OP_SPAN: 0}
        self.name_of = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_labels: list[str] = []
        self.states = 0  # rows of every Trajectory integrate returned
        self.step_failures = 0
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, code: int) -> int:
        sid = len(self.start)
        self.name_of.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; spans inside share its id."""
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)
            self._op = -1

    def _wrap(self, name: str, fn):
        code = self._code.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        is_integrate = name == "integrators.integrate"
        from geostep.integrators import StepFailure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(code)
            try:
                out = fn(*args, **kwargs)
            except StepFailure as exc:
                if is_integrate:
                    self.step_failures += 1
                    self.states += len(exc.partial.states)
                raise
            finally:
                self._close(sid)
            if is_integrate:
                self.states += len(out.states)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "geostep" or k.startswith("geostep.")}
        for (mod, attr), name in TRACED.items():
            owner = mods[f"geostep.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, target, key, orig, wrapper) -> None:
        setattr(target, key, wrapper)
        self._restore.append((target, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def mark(self) -> int:
        """Span count so far; pass it to `summary` to cover later spans."""
        return len(self.start)

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over the
        spans recorded since `first`.  Self time is the span's duration minus
        the durations of its direct children (calls are synchronous, so
        children never overlap)."""
        n = len(self.start) - first
        if n == 0:
            return {}
        code = np.frombuffer(self.name_of, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        dur = (np.frombuffer(self.end, dtype=np.int64)[first:]
               - np.frombuffer(self.start, dtype=np.int64)[first:]) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        selfdur = dur - child
        out = {}
        for c in np.unique(code):
            sel = code == c
            out[self.names[c]] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(selfdur[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        """All spans as CSV; `op` indexes `op_labels`, -1 outside operations."""
        with open(path, "w", newline="\n") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.op_id[i]},"
                         f"{self.names[self.name_of[i]]},{self.start[i]},"
                         f"{self.end[i]}\n")
