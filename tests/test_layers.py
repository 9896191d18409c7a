"""Layering: the program uses the standard library only.

Parses each module and follows its imports inside the package, so a
numeric dependency pulled in through another module also counts; runs
the package and `wresbd verify` in a fresh interpreter to check that
they load neither numpy nor scipy, nor dataclasses or inspect, and that
importing the package loads neither the ledger nor the oracle.  Also
checks that the command line reaches every module and that `wresbd
verify` enters every module-level function and method, so code that only
the tests use lives under tests/, that every name the
benchmark's tracer hooks still exists, and that no module imports a name
it never uses.
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


def _run_python(code):
    """Standard output of `code` run in a fresh interpreter on the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


# verify once per family, text and JSON, recording every code object
# entered from the package's import on
_VERIFY_ENTERED = """
import contextlib, io, json, sys
from pathlib import Path
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

# module-level functions and methods that verify need not enter
_NOT_RUN_BY_VERIFY = {
    # the library entry, and the benchmark's assemble workload
    "boundary.assemble",
    # the one-seed library entry, which the benchmark's check calls; the
    # ledger evaluates all seeds of a case with oracle_cases
    "oracle.oracle_case",
    # equality and hashing: the tests compare exact values with them, and
    # without __eq__ an `assert a != b` would pass for any two objects
    "clifford.CliffordElement.__eq__",
    "clifford.CliffordElement.__hash__",
    "ring.GRat.__hash__",
    "ring.Scalar.__eq__",
    "ring.Scalar.__hash__",
    # the rest of GRat's ring protocol, which the tests check against
    # pairs of Fractions
    "ring.GRat.__rsub__",
    "ring.GRat.__str__",
    "ring.GRat.__sub__",
    # the linear sugar that tests/references.py composes symbols with
    "symbols.RationalSymbol.__neg__",
    "symbols.RationalSymbol.__rsub__",
    "symbols.RationalSymbol.__sub__",
    "symbols.RationalSymbol.constant",
    "symbols.RationalSymbol.is_zero",
    "symbols.RationalSymbol.zero",
    # the text of a failed assertion or of an interactive session
    "catalog.OperatorFamily.__repr__",
    "clifford.CliffordElement.__repr__",
    "ring.GRat.__repr__",
    "ring.Scalar.__repr__",
    "symbols.RationalSymbol.__repr__",
}


def _functions(tree, module):
    """Qualified names of a module's functions and its classes' methods, as
    a code object's co_qualname spells them."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.add("%s.%s" % (module, node.name))
        elif isinstance(node, ast.ClassDef):
            out |= _functions(node, "%s.%s" % (module, node.name))
    return out


def test_cli_reaches_every_module():
    # a module, function or method that only the tests use belongs under
    # tests/, unless _NOT_RUN_BY_VERIFY says why it stays
    modules = {p.stem for p in PKG.glob("*.py")} - {"__init__"}
    assert modules - _reachable("cli")[0] == set()
    functions = set().union(*(_functions(ast.parse(p.read_text()), p.stem)
                              for p in PKG.glob("*.py")))
    codes, entered = json.loads(_run_python(_VERIFY_ENTERED))
    assert codes == [0, 0]
    assert _NOT_RUN_BY_VERIFY <= functions
    assert functions - set(entered) <= _NOT_RUN_BY_VERIFY


def test_oracle_is_where_numpy_lives():
    # numpy's generator lives on in the oracle, as a standard-library copy
    # of default_rng; guards the parse: it does see the oracle's imports
    assert "math" in _reachable("oracle")[1]
    modules = sorted(p.stem for p in PKG.glob("*.py"))
    assert [m for m in modules
            if any(isinstance(node, ast.ClassDef) and node.name == "default_rng"
                   for node in ast.parse((PKG / ("%s.py" % m)).read_text()).body)
            ] == ["oracle"]
    for module in modules:
        assert not _reachable(module)[1] & NUMERIC, module


# the ledger and oracle modules loaded by importing the package; then the
# numeric packages, and the dataclasses and inspect modules, loaded after
# assembling, after importing the ledger, and after verify for both families
_VERIFY_LOADED = """
import contextlib, io, json, sys
import wresbd
at_import = [m for m in ("wresbd.ledger", "wresbd.oracle") if m in sys.modules]
loaded = lambda: sorted(m for m in %r if m in sys.modules)
wresbd.assemble("dirac")
at_assemble = loaded()
import wresbd.ledger
at_ledger = loaded()
from wresbd import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", "--family", family, "--seeds", "1"])
             for family in ("dirac", "signature")]
print(json.dumps([at_import, at_assemble, at_ledger, codes, loaded()]))
""" % sorted(NUMERIC | {"dataclasses", "inspect"})


def test_package_and_engine_leave_numpy_and_scipy_unloaded():
    assert json.loads(_run_python(_VERIFY_LOADED)) == [[], [], [], [0, 0], []]


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
