"""Every geostep name the benchmark under `bench/` uses still resolves.

`bench/tracing.py` patches its traced functions with a bare getattr, and
`bench/run.py` and `bench/workloads.py` call geostep by attribute, so a
rename or removal in the package would otherwise only show when the
benchmark runs (or, for the tracer, only under `--trace 1`).  The bench
files are read, not imported.
"""
import ast
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from geostep import cli, experiments, integrators
from geostep.experiments import Scenario, run_scenario
from geostep.methods import builtin_methods
from geostep.systems import sho

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the calls the workloads and the set-up probe make
CALLED = [
    ("experiments", "builtin_pairs"),
    ("experiments", "builtin_scenarios"),
    ("experiments", "run_scenario"),
    ("methods", "REGISTRY_NAMES"),
    ("methods", "builtin_methods"),
    ("integrators", "integrate"),
    ("systems", "GradientField"),
    ("cli", "main"),
]


def _constant(filename: str, name: str):
    """The literal assigned to a module-level `name` in a bench file."""
    tree = ast.parse((BENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in bench/{filename}")


def _resolve(module: str, attr: str):
    obj = importlib.import_module(f"geostep.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _workload_names() -> set[tuple[str, str]]:
    """(module, attr) for every `geostep.<module>.<attr>` in workloads.py."""
    found = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "geostep"
        ):
            found.add((node.value.attr, node.attr))
    return found


@pytest.mark.parametrize("module,attr", sorted(_constant("tracing.py", "TRACED")))
def test_traced_functions_resolve(module, attr):
    owner = importlib.import_module(f"geostep.{module}")
    if "." in attr:
        # patched on the class itself, as Tracer.install does
        cls, method = attr.split(".")
        assert method in vars(getattr(owner, cls))
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module,attr", CALLED)
def test_called_names_resolve(module, attr):
    _resolve(module, attr)


def test_workload_names_resolve():
    names = _workload_names()
    assert set(CALLED) - {("experiments", "builtin_pairs")} <= names
    for module, attr in names:
        _resolve(module, attr)


def test_setup_code_runs():
    exec(_constant("run.py", "SETUP_CODE"), {})


@pytest.mark.parametrize("starter", ["rk4", "exact"])
def test_integrate_calls_traced_functions_by_module_attribute(monkeypatch, starter):
    # the tracer's `integrators.starter` and `integrators.window_matrix` spans
    # exist only while integrate looks these functions up on the module
    calls = Counter()
    for name in ("rk4_start", "exact_start", "window_matrix"):
        def counted(*args, _fn=getattr(integrators, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(integrators, name, counted)
    ab4 = builtin_methods()["ab4"]
    integrators.integrate(ab4, sho(1.0), np.array([1.0, 0.0]), 0.1, 20, starter=starter)
    assert calls == {f"{starter}_start": 1, "window_matrix": 1}


def test_exact_channel_calls_sho_exact_by_module_attribute(monkeypatch, tmp_path):
    # the tracer's `systems.sho_exact` span exists only while integrate and
    # run_scenario look sho_exact up on the integrators module when they call
    # it; the error channel is evaluated after integrate returns, so a
    # reference captured when the trajectory was built would miss a wrapper
    # installed later
    original = integrators.sho_exact
    rows = Counter()

    def wrap(label):
        def counted(omega, y0, t):
            rows[label] += np.size(t)
            return original(omega, y0, t)
        monkeypatch.setattr(integrators, "sho_exact", counted)

    wrap("starter")
    ab4 = builtin_methods()["ab4"]
    traj = integrators.integrate(ab4, sho(1.0), np.array([1.0, 0.0]), 0.1, 20,
                                 starter="exact")
    wrap("channel")
    assert traj.final_error is not None
    assert len(traj.error_at(np.arange(traj.steps))) == 20
    wrap("scenario")
    run_scenario(Scenario("traced", "leapfrog", steps=50, stride=7), tmp_path)
    # 4 starter states; the last row, then all 20; 8 written rows and the last
    assert rows == {"starter": 4, "channel": 21, "scenario": 9}


def test_runs_write_and_label_through_traced_functions_by_module_attribute(
        monkeypatch, tmp_path):
    # the tracer's `experiments.write_artifacts` and `experiments.classify`
    # spans exist only while every run looks these up on the module: a
    # scenario writes once and is labelled once, `geostep integrate` writes
    # once and is not labelled
    calls = Counter()
    for name in ("write_artifacts", "classify"):
        def counted(*args, _fn=getattr(experiments, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(experiments, name, counted)
    run_scenario(Scenario("traced", "leapfrog", steps=50, stride=7), tmp_path)
    assert calls == {"write_artifacts": 1, "classify": 1}
    calls.clear()
    assert cli.main(["integrate", "--method", "leapfrog", "--steps", "50",
                     "--out", str(tmp_path)]) == 0
    assert calls == {"write_artifacts": 1}
