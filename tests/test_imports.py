"""Static gates on the modules under src/opbar, read with `ast` only.

* Every name a module imports is used in that module: an imported name
  counts as used when it appears as a name anywhere in the module (an
  attribute chain counts through its root), inside a string annotation, or
  in `__all__`.
* No code outside `ChainComplex.__init__` assigns to a `.diff` attribute or
  to an item of one: every complex gets its differential from the
  constructor, which checks its shape and ring.
* No code outside `complexes.total` imports or names `block_matrix`: every
  sum of complexes is laid out by that one builder.
* No code outside linalg.py writes a `.d` attribute (src/opbar and tests
  alike): assigning, augmenting or deleting it or an item of it, or
  calling `update`, `pop`, `setdefault`, `clear` or `popitem` on it.  A
  `Mat` is zero-free and keeps its column form, so every other matrix is
  built by a constructor from finished entries.
* No string constant in src/opbar holds "Z2": every complex is Z-graded,
  and a second grading would come back as a branch on that string.
* Every module is imported by another module of the package or named in
  the `ENGINE` tuple of perfbench/run.py.
* Every defaulted parameter of a public function, or of a public method or
  `__init__` of a public class, is passed by some call in src/opbar, tests
  or perfbench: an option that only ever takes its default is a constant.
* Imports go one way and sit at the top: no module imports anything
  inside a function or class body, and the modules' imports of each other
  form no cycle.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opbar"
MODULES = sorted(PACKAGE.glob("*.py"))
RUN = ROOT / "perfbench" / "run.py"
CALLERS = [p for d in ("src/opbar", "tests", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]


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

def _writes_attr(target, attr) -> bool:
    """Whether an assignment target is x.<attr>, an item of it, or holds one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_attr(t, attr) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_attr(target.value, attr)
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == attr


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
            hit = any(_writes_attr(t, "diff") for t in targets) or (
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


# -- one caller of block_matrix -----------------------------------------------------

def block_matrix_uses(name: str, source: str):
    """Lines that import `block_matrix` or name it (as a name or an
    attribute) anywhere but in the module-level `total` of complexes.py."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            hit = (isinstance(child, ast.Name) and child.id == "block_matrix") or (
                isinstance(child, ast.Attribute) and child.attr == "block_matrix") or (
                isinstance(child, ast.ImportFrom)
                and any(a.name == "block_matrix" for a in child.names))
            if hit and (name, scope) != ("complexes.py", ("total",)):
                out.add(child.lineno)
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_block_matrix_is_called_by_total_only(path):
    assert block_matrix_uses(path.name, path.read_text()) == []


def test_checker_flags_a_block_matrix_use():
    src = ("from . import linalg\n"
           "from .linalg import block_matrix as bm\n"
           "def total(ring):\n"
           "    return linalg.block_matrix(ring, 0, 0, [])\n"
           "def cone(ring):\n"
           "    return bm(ring, 0, 0, []), linalg.block_matrix\n"
           "class A:\n"
           "    def total(self, ring):\n"
           "        return linalg.block_matrix(ring, 0, 0, [])\n"
           "def block_matrix(ring):\n"
           "    return block_matrix\n")
    assert block_matrix_uses("complexes.py", src) == [2, 6, 9, 11]
    assert block_matrix_uses("bar.py", src) == [2, 4, 6, 9, 11]


# -- writes to Mat.d ------------------------------------------------------------

MUTATORS = {"update", "pop", "setdefault", "clear", "popitem"}


def d_writes(source: str):
    """Lines that write a `.d` attribute: assign, augment, annotate, loop
    into or delete it or an item of it, set it through setattr, or call a
    mutating dict method on it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        else:
            targets = []
        func = node.func if isinstance(node, ast.Call) else None
        if any(_writes_attr(t, "d") for t in targets) or (
                isinstance(func, ast.Attribute) and func.attr in MUTATORS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "d") or (
                isinstance(func, ast.Name) and func.id == "setattr"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "d"):
            out.add(node.lineno)
    return sorted(out)


def test_mat_entries_are_written_in_linalg_only():
    hits = [(str(p.relative_to(ROOT)), line)
            for d in ("src/opbar", "tests") for p in sorted((ROOT / d).rglob("*.py"))
            if p != PACKAGE / "linalg.py" for line in d_writes(p.read_text())]
    assert hits == []
    assert d_writes((PACKAGE / "linalg.py").read_text())  # it is found


def test_checker_flags_a_d_write():
    src = ("def tamper(m, k, v, other):\n"
           "    m.d = {}\n"
           "    m.d[k] = v\n"
           "    m.d[k] += v\n"
           "    a, m.d = 1, {}\n"
           "    del m.d[k]\n"
           "    m.d.update(other.d)\n"
           "    m.d.pop(k)\n"
           "    m.d.setdefault(k, v)\n"
           "    m.d.clear()\n"
           "    m.d.popitem()\n"
           "    setattr(m, 'd', {})\n"
           "    m.d: dict = {}\n"
           "    for m.d[k] in other:\n"
           "        pass\n"
           "    d = dict(m.d)\n"
           "    d[k] = m.d.get(k)\n"
           "    other.diff[k] = m.d\n"
           "    return 'm.d = {}', m.d.items()\n")
    assert d_writes(src) == list(range(2, 15))


# -- one grading ---------------------------------------------------------------------

def z2_strings(source: str):
    """Lines of the string constants (docstrings and f-string parts too)
    that hold "Z2"."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "Z2" in node.value})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_z2_grading_string(path):
    assert z2_strings(path.read_text()) == []


def test_checker_flags_a_z2_string():
    src = ('"""A Z2-graded module."""\n'
           "Z2 = 'Z'\n"
           "def pred(grading, d):\n"
           "    if grading == 'Z2':\n"
           "        return (d - 1) % 2  # Z2 in a comment is no string\n"
           "    raise ValueError(f'{grading}: not Z2')\n"
           "GRADINGS = ('Z', 'Z/2')\n")
    assert z2_strings(src) == [1, 4, 6]


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


# -- imports go one way, at the top ------------------------------------------------

def nested_imports(source: str):
    """Lines of imports inside a function or class body."""
    out = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            out.update(node.lineno for node in ast.walk(scope)
                       if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(out)


def import_cycle(graph):
    """One cycle of {module: the modules it imports}, as a path that starts
    and ends at the same module, or None."""
    done, path = set(), []

    def visit(m):
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if n in path:
                return path[path.index(n):] + [n]
            if n not in done:
                found = visit(n)
                if found:
                    return found
        done.add(path.pop())
        return None

    for m in sorted(graph):
        found = None if m in done else visit(m)
        if found:
            return found
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert nested_imports(path.read_text()) == []


def test_package_imports_form_no_cycle():
    graph = {p.stem: imported_modules(p.read_text()) - {p.stem}
             for p in MODULES}
    assert import_cycle(graph) is None


def test_import_checkers_on_planted_modules():
    src = ("from .linalg import Mat\n"
           "import itertools\n"
           "def f():\n"
           "    import os\n"
           "    from .fixtures import unit_operad\n"
           "class A:\n"
           "    def g(self):\n"
           "        import opbar.bar\n")
    assert nested_imports(src) == [4, 5, 8]
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == \
        ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b", "c"}, "b": set(), "c": {"c2"},
                         "c2": {"c"}}) == ["c", "c2", "c"]


# -- every option is passed somewhere ---------------------------------------------

def _defaulted(fn, bound):
    """(name, positional index or None) of fn's defaulted parameters; the
    index counts from the first argument a caller writes."""
    args = fn.args
    pos = [*args.posonlyargs, *args.args]
    skip = 1 if bound else 0
    out = [(a.arg, k - skip)
           for k, a in enumerate(pos) if k >= len(pos) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def defaulted_options(source: str):
    """(qualified name, callee name, parameter, positional index) for every
    defaulted parameter of a public module-level function, and of a public
    method or `__init__` of a public module-level class.  A constructor is
    called by its class name, or by the name of a subclass in the same
    source."""
    tree = ast.parse(source)
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    subclasses = {c.name: {c.name} for c in classes}
    for c in classes:
        for base in c.bases:
            if isinstance(base, ast.Name) and base.id in subclasses:
                subclasses[base.id].add(c.name)
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out += [(node.name, {node.name}, p, i)
                    for p, i in _defaulted(node, False)]
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("_") and fn.name != "__init__"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            callees = subclasses[node.name] | {"__init__"} \
                if fn.name == "__init__" else {fn.name}
            out += [(f"{node.name}.{fn.name}", callees, p, i)
                    for p, i in _defaulted(fn, not static)]
    return out


def passed_arguments(sources):
    """{callee name: (keywords, positional indexes)} over every call whose
    callee is a name or an attribute, matched by that name only.  A `**`
    argument passes every keyword ("**"); a starred argument at index k
    passes every index from k on ("*k")."""
    out = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            keywords, indexes = out.setdefault(name, (set(), set()))
            keywords.update(k.arg or "**" for k in node.keywords)
            indexes.update(f"*{k}" if isinstance(a, ast.Starred) else k
                           for k, a in enumerate(node.args))
    return out


def unpassed_options(modules, callers):
    passed = passed_arguments(callers)
    out = []
    for name, source in modules:
        for qual, callees, param, index in defaulted_options(source):
            live = False
            for callee in callees:
                keywords, indexes = passed.get(callee, ((), ()))
                live |= param in keywords or "**" in keywords or (
                    index is not None and (index in indexes or any(
                        isinstance(k, str) and int(k[1:]) <= index
                        for k in indexes)))
            if not live:
                out.append(f"{name}: {qual}({param})")
    return out


def test_every_option_is_passed_somewhere():
    modules = [(p.name, p.read_text()) for p in MODULES]
    assert unpassed_options(modules, [p.read_text() for p in CALLERS]) == []


def test_option_reader_on_a_planted_module():
    module = ("def kan(pi, n_max, check=True, *, arity=None):\n"
              "    pass\n"
              "def _private(x=1):\n"
              "    pass\n"
              "class Bar:\n"
              "    def __init__(self, mr, check=True):\n"
              "        pass\n"
              "    def level(self, n, cache=None):\n"
              "        pass\n"
              "    @staticmethod\n"
              "    def single(ring, label, degree=0):\n"
              "        pass\n"
              "    def _memo(self, key=None):\n"
              "        pass\n"
              "class Sub(Bar):\n"
              "    pass\n")
    options = [(q, sorted(c), p, i) for q, c, p, i in defaulted_options(module)]
    assert options == [
        ("kan", ["kan"], "check", 2), ("kan", ["kan"], "arity", None),
        ("Bar.__init__", ["Bar", "Sub", "__init__"], "check", 1),
        ("Bar.level", ["level"], "cache", 1),
        ("Bar.single", ["single"], "degree", 2)]
    every = ["planted.py: kan(check)", "planted.py: kan(arity)",
             "planted.py: Bar.__init__(check)", "planted.py: Bar.level(cache)",
             "planted.py: Bar.single(degree)"]
    assert unpassed_options([("planted.py", module)], []) == every
    callers = ("kan(pi, 2, False)\n"
               "m.kan(pi, 2, arity=3)\n"
               "Sub(mr, check=False)\n"
               "b.level(*args)\n"
               "Bar.single(ring, 'a', **opts)\n")
    assert unpassed_options([("planted.py", module)], [callers]) == []
    callers = ("kan(pi, n_max=2)\n"
               "Bar(mr)\n"
               "b.level(1)\n"
               "single(ring, 'a')\n")
    assert unpassed_options([("planted.py", module)], [callers]) == every
