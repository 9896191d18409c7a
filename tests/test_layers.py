"""Layering: the exact engine runs without numpy or scipy.

Parses each engine module and follows its imports inside the package, so
a numeric dependency pulled in through another module also counts.
"""

import ast
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


def _reachable_externals(module):
    seen, todo, external = set(), [module], set()
    while todo:
        m = todo.pop()
        if m in seen:
            continue
        seen.add(m)
        ext, internal = _imports(m)
        external |= ext
        todo.extend(internal)
    return external


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_is_numpy_free(module):
    assert not _reachable_externals(module) & NUMERIC


def test_oracle_is_where_numpy_lives():
    # guards the check itself: the parser does see the oracle's imports
    assert NUMERIC <= _reachable_externals("oracle")
