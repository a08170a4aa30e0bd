"""Every name a module under src/opbar imports is used in that module.

The check parses each module with `ast`: an imported name counts as used
when it appears as a name anywhere in the module (an attribute chain
counts through its root), inside a string annotation, or in `__all__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opbar"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    """{bound name: line} for every import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            # string annotations such as "Mat" or "list[Perm]"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr)
                            if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "linalg.py", "bar.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import itertools\n"
           "import os.path\n"
           "from .linalg import Mat, block_matrix as bm\n"
           "from .symgrp import Perm\n"
           "def f(x: \"Mat\") -> \"list[str]\":\n"
           "    \"\"\"Perm\"\"\"\n"
           "    return os.path.join(x)\n")
    assert unused_imports(src) == [(2, "itertools"), (4, "bm"), (5, "Perm")]
