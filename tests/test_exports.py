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


def _fresh_python(code: str, cwd=None) -> str:
    """stdout of `code` run in a fresh interpreter that imports this geostep."""
    src = str(Path(geostep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, cwd=cwd).stdout


def test_cli_import_leaves_scipy_unloaded():
    out = _fresh_python("import sys, geostep.cli; geostep.methods.builtin_methods(); "
                        "print('scipy' in sys.modules)")
    assert out.strip() == "False"


@pytest.mark.parametrize("starter", ["rk4", "exact"])
def test_hessian_run_leaves_scipy_unloaded(tmp_path, starter):
    # a general linear field forms its exact flow exp(hA) with numpy alone
    (tmp_path / "H.txt").write_text("2 0.5 0 0\n0.5 3 0 0\n0 0 1 0\n0 0 0 1\n")
    argv = ["integrate", "--method", "ab4", "--system", "H.txt", "--q0", "1,0",
            "--p0", "0,1", "--steps", "300", "--starter", starter]
    out = _fresh_python(f"import sys, geostep.cli; code = geostep.cli.main({argv!r}); "
                        "print(code, 'scipy' in sys.modules)", cwd=tmp_path)
    assert out.splitlines()[-1] == "0 False"
    assert (tmp_path / "ab4-error.csv").exists()


def test_no_module_imports_scipy():
    for path in Path(geostep.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), \
                f"{path.name}:{node.lineno}"


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
