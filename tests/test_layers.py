"""Layering: the exact engine runs without numpy, and nothing uses scipy.

Parses each module and follows its imports inside the package, so a
numeric dependency pulled in through another module also counts; and
runs the engine in a fresh interpreter to check that importing the
package loads neither numpy nor scipy, and that the oracle loads numpy
only.  Also checks that the command line reaches every module, so code
that only the tests use lives under tests/, and that every name the
benchmark's tracer hooks still exists.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wresbd

PKG = Path(wresbd.__file__).parent
ENGINE = ("ring", "clifford", "symbols", "catalog", "boundary", "refdata")
NUMERIC = {"numpy", "scipy"}


def _imports(module):
    """(top-level external names, package modules) one module imports."""
    tree = ast.parse((PKG / ("%s.py" % module)).read_text())
    external, internal = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            external.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                external.add(node.module.split(".")[0])
            elif node.module:
                internal.add(node.module.split(".")[0])
            else:
                internal.update(a.name for a in node.names)
    return external, internal


def _reachable(module):
    """(package modules, top-level external names) reached from a module."""
    seen, todo, external = set(), [module], set()
    while todo:
        m = todo.pop()
        if m in seen:
            continue
        seen.add(m)
        ext, internal = _imports(m)
        external |= ext
        todo.extend(internal)
    return seen, external


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_is_numpy_free(module):
    assert not _reachable(module)[1] & NUMERIC


def test_oracle_is_where_numpy_lives():
    # guards the check itself: the parser does see the oracle's imports
    assert "numpy" in _reachable("oracle")[1]
    modules = sorted(p.stem for p in PKG.glob("*.py"))
    assert "oracle" in modules
    for module in modules:
        assert "scipy" not in _reachable(module)[1], module


def test_cli_reaches_every_module():
    # a module that only the tests import belongs under tests/
    modules = {p.stem for p in PKG.glob("*.py")} - {"__init__"}
    assert modules - _reachable("cli")[0] == set()


def test_package_and_engine_leave_numpy_and_scipy_unloaded():
    # the oracle and ledger names are still reachable from the package,
    # and reaching one loads numpy but not scipy
    code = ("import sys, wresbd\n"
            "wresbd.assemble('dirac')\n"
            "print(sorted(m for m in %r if m in sys.modules))\n"
            "wresbd.build_ledger\n"
            "print(sorted(m for m in %r if m in sys.modules))\n"
            % (sorted(NUMERIC), sorted(NUMERIC)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout.split()
    assert out == ["[]", "['numpy']"]


def test_every_benchmark_hook_resolves():
    # a hook whose target has moved makes its per-layer metrics read null
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr in tracer.HOOKS:
        assert tracer._resolve(module, attr) is not None, (module, attr)
