"""The layer targets of perfbench/tracer.py that resolve in src/opbar.

The tracer skips a target that no longer exists, and the metric it feeds
then reads 0.  This test reads the TARGETS table with `ast` (the tracer
module is not imported) and resolves each target the way
`Tracer.install` does, so a refactor that moves a traced function fails
here instead of zeroing a per-layer metric.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# targets whose functions are gone from src/opbar
UNRESOLVED = {
    ("bar", "_compose_on_subdomain"),
    ("linalg", "Mat.apply"),
    ("linalg", "field_kernel"),
    ("linalg", "field_solve"),
    ("linalg", "z_solve"),
    ("linalg", "z_solve_mat"),
    ("linalg", "z_kernel_basis"),
    ("linalg", "z_rank"),
    ("symgrp", "quotient_by_span"),
    ("barcat", "_bar_level_complex"),
    ("barcat", "_bar_face_fn"),
    ("barcat", "_bar_degen_fn"),
}


def _targets():
    """(group, module, attribute path) of every TARGETS entry."""
    tree = ast.parse(TRACER.read_text())
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]]
    return [tuple(ast.literal_eval(e) for e in entry.elts[:3])
            for entry in table.elts]


def _resolves(modname, path):
    owner = importlib.import_module(f"opbar.{modname}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    raw = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    return raw is not None


def test_unresolved_tracer_targets_are_exactly_the_known_ones():
    targets = _targets()
    assert len(targets) > len(UNRESOLVED)
    missing = {(mod, path) for _, mod, path in targets
               if not _resolves(mod, path)}
    assert missing == UNRESOLVED

