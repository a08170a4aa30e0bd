"""Static gates on the modules under src/opbar, read with `ast` only.

* Every name a module imports is used in that module: an imported name
  counts as used when it appears as a name anywhere in the module (an
  attribute chain counts through its root), inside a string annotation, or
  in `__all__`.
* No code outside `ChainComplex.__init__` assigns to a `.diff` attribute or
  to an item of one: every complex gets its differential from the
  constructor, which checks its shape and ring.
* Every module is imported by another module of the package or named in
  the `ENGINE` tuple of perfbench/run.py.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opbar"
MODULES = sorted(PACKAGE.glob("*.py"))
RUN = ROOT / "perfbench" / "run.py"


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


# -- assignments to .diff ------------------------------------------------------

def _writes_diff(target) -> bool:
    """Whether an assignment target is x.diff, an item of it, or holds one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_diff(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_diff(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "diff"


def diff_assignments(source: str):
    """Lines that assign to a `.diff` attribute (or to an item of one, or
    through setattr) outside ChainComplex.__init__."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign, ast.For)):
                targets = [child.target]
            else:
                targets = []
            hit = any(_writes_diff(t) for t in targets) or (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "setattr" and len(child.args) > 1
                and isinstance(child.args[1], ast.Constant)
                and child.args[1].value == "diff")
            if hit and scope != ("ChainComplex", "__init__"):
                out.append(child.lineno)
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_diff_assignment_outside_the_constructor(path):
    assert diff_assignments(path.read_text()) == []


def test_checker_flags_a_diff_assignment():
    src = ("class ChainComplex:\n"
           "    def __init__(self, diff):\n"
           "        self.diff = {}\n"
           "        self.diff[1] = diff\n"
           "def patch(c, m):\n"
           "    c.diff = {1: m}\n"
           "    c.diff[1] = m\n"
           "    a, c.diff = 1, {}\n"
           "    setattr(c, 'diff', {})\n"
           "    m.d = {}\n"
           "    diff = c.diff\n")
    assert diff_assignments(src) == [6, 7, 8, 9]


# -- every module is reached --------------------------------------------------------

def imported_modules(source: str):
    """The opbar modules a module imports, relatively or by absolute name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == "opbar":
                if node.module and node.module != "opbar":
                    out.add(node.module.split(".")[0])
                else:
                    out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("opbar."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("opbar."))
    return out


def engine_modules():
    """The names in perfbench/run.py's ENGINE tuple."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENGINE" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py defines no ENGINE tuple")


def unreached_modules():
    reached = set(engine_modules())
    for path in MODULES:
        reached |= imported_modules(path.read_text()) - {path.stem}
    return sorted({p.stem for p in MODULES} - {"__init__"} - reached)


def test_every_module_is_imported_or_benchmarked():
    assert unreached_modules() == []


def test_import_reader_sees_every_form():
    src = ("from .linalg import Mat\n"
           "from . import coeff\n"
           "from .errors import EngineError as E\n"
           "import opbar.bar\n"
           "from opbar.symgrp import Perm\n"
           "from opbar import dgcat\n"
           "import os.path\n"
           "from itertools import product\n"
           "def f():\n"
           "    from .fixtures import unit_operad\n")
    assert imported_modules(src) == {"linalg", "coeff", "errors", "bar",
                                     "symgrp", "dgcat", "fixtures"}
