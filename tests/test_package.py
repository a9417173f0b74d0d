"""Tests of the package surface: its exports and what importing it loads."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leafquant
from leafquant.scenarios import SCENARIO_SCHEMA

PACKAGE_DIR = Path(leafquant.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
# an UPPER_SNAKE name between single or double backticks
DOCUMENTED_CONSTANT = re.compile(
    r"(`{1,2})([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)\1(?!`)")
# a dotted name between single or double backticks
DOCUMENTED_DOTTED = re.compile(
    r"(`{1,2})([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)\1(?!`)")
# a private name between double backticks
DOCUMENTED_PRIVATE = re.compile(r"``(_[A-Za-z_]\w*)``(?!`)")


def _has(owner, name):
    """An attribute of owner, or a field of a dataclass owner."""
    return hasattr(owner, name) or (dataclasses.is_dataclass(owner) and any(
        f.name == name for f in dataclasses.fields(owner)))


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


def test_documented_constants_resolve():
    # a constant or private name named in the README or in a docstring
    # of the package is an attribute of one of its modules or of their
    # classes, and a dotted name that starts at the package, one of its
    # modules or one of their classes resolves along its path, so
    # deleting a name leaves no stale mention of it
    modules = [leafquant] + [
        importlib.import_module(f"leafquant.{info.name}")
        for info in pkgutil.iter_modules([str(PACKAGE_DIR)])]
    roots = {"leafquant": leafquant}
    for module in modules[1:]:
        roots[module.__name__.split(".")[-1]] = module
        roots.update((name, cls) for name, cls in inspect.getmembers(
            module, inspect.isclass) if cls.__module__ == module.__name__)
    owners = modules + [cls for cls in roots.values() if inspect.isclass(cls)]
    texts = [("README.md", README.read_text())]
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    where = getattr(node, "name", "module docstring")
                    texts.append((f"{path.name}: {where}", doc))
    named = {(where, match[2]) for where, text in texts
             for match in DOCUMENTED_CONSTANT.finditer(text)}
    private = {(where, match[1]) for where, text in texts
               for match in DOCUMENTED_PRIVATE.finditer(text)}
    dotted = {(where, match[2]) for where, text in texts
              for match in DOCUMENTED_DOTTED.finditer(text)
              if match[2].split(".")[0] in roots}
    assert named and private and dotted
    stale = sorted((where, name) for where, name in named | private
                   if not any(_has(owner, name) for owner in owners))

    def resolves(name):
        owner, *path = name.split(".")
        owner = roots[owner]
        for part in path:
            if not _has(owner, part):
                return False
            owner = getattr(owner, part, None)
        return True

    stale += sorted((where, name) for where, name in dotted
                    if not resolves(name))
    assert not stale


def _reads(tree: ast.Module, skip: str) -> set[str]:
    """Every name and attribute that the module reads, outside its
    top-level definition named ``skip``; an import or an ``__all__``
    entry is no read."""
    out = set()
    for top in tree.body:
        if getattr(top, "name", None) == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_export_has_a_caller():
    # a name that a module exports is used by the package outside its own
    # definition, or README names it: a name that only tests reach goes
    trees = [ast.parse(path.read_text())
             for path in sorted(PACKAGE_DIR.glob("*.py"))]
    readme = README.read_text()
    uncalled = []
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"leafquant.{info.name}")
        for name in getattr(module, "__all__", ()):
            if (not re.search(rf"\b{name}\b", readme)
                    and not any(name in _reads(tree, name)
                                for tree in trees)):
                uncalled.append(f"leafquant.{info.name}.{name}")
    assert not uncalled


def _name(node: ast.expr) -> str | None:
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _passed(fn, trees: list[ast.Module]) -> set[str]:
    """The parameters of ``fn`` that some call in the trees passes: a
    call of ``fn``, or one that hands ``fn`` on as an argument followed
    by its arguments (as ``runner._staged`` does)."""
    sig = inspect.signature(fn)
    out = set()
    for node in (n for tree in trees for n in ast.walk(tree)
                 if isinstance(n, ast.Call)):
        args = node.args
        if _name(node.func) != fn.__name__:
            at = [i for i, a in enumerate(args) if _name(a) == fn.__name__]
            if not at:
                continue
            args = args[at[0] + 1:]
        starred = [i for i, a in enumerate(args)
                   if isinstance(a, ast.Starred)]
        args = args[:starred[0]] if starred else args
        try:
            bound = sig.bind_partial(*args, **{
                k.arg: k.value for k in node.keywords if k.arg})
        except TypeError:
            continue
        out.update(bound.arguments)
    return out


def test_every_default_parameter_has_a_setter():
    # a defaulted parameter of a function that evolution or runner
    # exports is passed by some call in the package, or a backticked
    # README call or signature of the function names it as `param=`: a
    # setting that nothing sets is a constant
    trees = [ast.parse(path.read_text())
             for path in sorted(PACKAGE_DIR.glob("*.py"))]
    # fenced blocks, double- and single-backticked spans, in that order
    spans = re.findall(r"```.*?```|``.+?``|`[^`]+`", README.read_text(),
                       re.S)
    unset = []
    for module in (leafquant.evolution, leafquant.runner):
        for fn in (getattr(module, name) for name in module.__all__):
            if not inspect.isfunction(fn):
                continue
            documented = {name for span in spans
                          for call in re.findall(
                              rf"\b{fn.__name__}\(([^()]*)", span)
                          for name in re.findall(r"(\w+)\s*=(?!=)", call)}
            passed = _passed(fn, trees) | documented
            unset += [f"{fn.__name__}({p.name}=)"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not p.empty and p.name not in passed]
    assert not unset


def test_readme_scenario_keys_match_the_schema():
    # README names every key of the integrator block as
    # `integrator.<key>`, and every value it lists for an enumerated key
    # is one the schema accepts, so a removed key or value leaves no
    # mention behind
    readme = README.read_text()
    properties = SCENARIO_SCHEMA["properties"]
    integrator = properties["integrator"]["properties"]
    assert not [key for key in integrator
                if f"`integrator.{key}`" not in readme]
    enums = {"integrator.ordering": integrator["ordering"]["enum"],
             "outputs": properties["outputs"]["items"]["enum"]}
    for key, allowed in enums.items():
        # the bullet runs to the next line that is not indented
        bullet = re.search(rf"^- `{re.escape(key)}`:(.*?)(?=^\S|\Z)",
                           readme, re.M | re.S)
        assert bullet, key
        listed = re.findall(r"`(\w+)`", bullet[1])
        assert listed and set(listed) <= set(allowed), (key, listed)


@pytest.mark.parametrize("module", ["scipy.interpolate",
                                    "scipy.sparse.linalg", "scipy.linalg",
                                    "scipy.special"])
def test_import_leaves_scipy_interpolate_unloaded(module):
    # only a path built from sampled knots needs the spline module, only
    # a non-commuting transport walk (the product or the phase column)
    # the Bessel functions, and no module of the package needs the
    # sparse or dense solvers
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, leafquant; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
