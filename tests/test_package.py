"""Tests of the package surface: its exports and what importing it loads."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import leafquant

PACKAGE_DIR = Path(leafquant.__file__).parent


def test_every_export_resolves():
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"leafquant.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"leafquant.{info.name}.{name}"
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for name in imported:
        assert hasattr(leafquant, name), f"leafquant.{name}"


@pytest.mark.parametrize("module", ["scipy.interpolate",
                                    "scipy.sparse.linalg", "scipy.linalg",
                                    "scipy.special"])
def test_import_leaves_scipy_interpolate_unloaded(module):
    # only a path built from sampled knots needs the spline module, only
    # a non-commuting transport product the Bessel functions, and no
    # module of the package needs the sparse or dense solvers
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, leafquant; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
