"""Every exported name resolves, so a removal cannot leave a stale export."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import geostep

MODULES = sorted(m.name for m in pkgutil.iter_modules(geostep.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"geostep.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(geostep.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module("." * node.level + node.module, "geostep")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(geostep, alias.asname or alias.name)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only where the matrix exponential is needed
    src = str(Path(geostep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, geostep.cli; geostep.methods.builtin_methods(); "
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_schemes_and_resolver_are_defined_once_in_methods():
    # `methods` defines every scheme type, the registry and the resolver;
    # the modules that step or run schemes only import them
    from geostep import experiments, integrators, methods

    assert experiments.resolve_scheme is methods.resolve_scheme
    assert experiments.builtin_pairs is methods.builtin_pairs
    assert integrators.PCPair is methods.PCPair
    assert integrators.PartitionedPair is methods.PartitionedPair
    for obj in (methods.resolve_scheme, methods.builtin_pairs, methods.PCPair,
                methods.PartitionedPair, methods.pad_method):
        assert obj.__module__ == "geostep.methods"
