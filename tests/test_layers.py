"""Layering: the exact engine runs without numpy, and nothing uses scipy.

Parses each module and follows its imports inside the package, so a
numeric dependency pulled in through another module also counts; and
runs the engine in a fresh interpreter to check that importing the
package loads neither numpy nor scipy, and that the oracle loads numpy
only.  Also checks that the command line reaches every module and that
`wresbd verify` enters every module-level function, so code that only the
tests use lives under tests/, that every name the benchmark's tracer
hooks still exists, and that no module imports a name it never uses.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wresbd

PKG = Path(wresbd.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
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


def _run_python(code):
    """Standard output of `code` run in a fresh interpreter on the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


# verify once per family, text and JSON, recording every code object
# entered from the package's import on; numpy loads first, unrecorded
_VERIFY_ENTERED = """
import contextlib, io, json, sys
from pathlib import Path
import numpy
entered = set()
sys.setprofile(lambda frame, event, arg:
               event == "call" and entered.add(frame.f_code))
from wresbd import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", "--family", "dirac", "--seeds", "1"]),
             cli.main(["verify", "--family", "signature", "--seeds", "1",
                       "--format", "json"])]
sys.setprofile(None)
pkg = Path(cli.__file__).parent
print(json.dumps([codes, sorted(
    "%s.%s" % (Path(c.co_filename).stem, c.co_qualname)
    for c in entered if Path(c.co_filename).parent == pkg)]))
"""

# module-level functions that verify need not enter
_NOT_RUN_BY_VERIFY = {
    # the library entry, and the benchmark's assemble workload
    "boundary.assemble",
    # resolves the package's lazy oracle and ledger names for library
    # callers; cli imports those modules directly (the import system only
    # probes it for the submodule name)
    "__init__.__getattr__",
}


def test_cli_reaches_every_module():
    # a module or function that only the tests use belongs under tests/
    modules = {p.stem for p in PKG.glob("*.py")} - {"__init__"}
    assert modules - _reachable("cli")[0] == set()
    functions = {"%s.%s" % (p.stem, node.name)
                 for p in PKG.glob("*.py")
                 for node in ast.parse(p.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    codes, entered = json.loads(_run_python(_VERIFY_ENTERED))
    assert codes == [0, 0]
    assert functions - set(entered) <= _NOT_RUN_BY_VERIFY


def test_package_and_engine_leave_numpy_and_scipy_unloaded():
    # the oracle and ledger names are still reachable from the package,
    # and reaching one loads numpy but not scipy
    code = ("import sys, wresbd\n"
            "wresbd.assemble('dirac')\n"
            "print(sorted(m for m in %r if m in sys.modules))\n"
            "wresbd.build_ledger\n"
            "print(sorted(m for m in %r if m in sys.modules))\n"
            % (sorted(NUMERIC), sorted(NUMERIC)))
    assert _run_python(code).split() == ["[]", "['numpy']"]


# the package's lazy names, resolved in a fresh interpreter
_LAZY_RESOLVED = """
import importlib, json, sys
import wresbd
loaded_at_import = "numpy" in sys.modules
same = {name: getattr(wresbd, name)
        is getattr(importlib.import_module("wresbd." + module), name)
        for name, module in wresbd._LAZY.items()}
try:
    wresbd.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps([loaded_at_import, same, "numpy" in sys.modules, error]))
"""


def test_lazy_package_names_resolve_on_first_use():
    # README's Library section reads the oracle and ledger names from the
    # package itself; every name in __all__ that the package does not bind
    # at import is one of them
    before, same, after, error = json.loads(_run_python(_LAZY_RESOLVED))
    assert before is False and after is True
    assert set(same) == set(wresbd.__all__) - set(vars(wresbd))
    assert all(same.values()), same
    assert "'no_such_name'" in error


def test_every_benchmark_hook_resolves():
    # a hook whose target has moved makes its per-layer metrics read null
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr in tracer.HOOKS:
        assert tracer._resolve(module, attr) is not None, (module, attr)


def _unused_imports(source):
    """Names a module imports and never reads; __all__ counts as a read."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("where", [PKG, ROOT / "tests", ROOT / "demos"],
                         ids=lambda p: p.name)
def test_no_unused_imports(where):
    unused = {p.name: names for p in sorted(where.glob("*.py"))
              if (names := _unused_imports(p.read_text()))}
    assert unused == {}


def test_unused_import_check_sees_one():
    # guards the check itself
    code = ("import os.path\nimport sys\nfrom json import dumps, loads as ld"
            "\n__all__ = ['dumps']\nld(sys.argv[1])\n")
    assert _unused_imports(code) == ["os"]
