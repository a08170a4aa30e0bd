"""Layer tracing for the benchmark, installed from outside the engine.

The tracer wraps public functions of each `opbar` module at run time and
restores them afterwards; nothing under `src/` is edited.  A wrapped function
either records a span (name, start, end, parent) or, for hot leaf functions
(ring operations, `Mat.column`, `degree_of`, ...), only bumps a counter.
Spans are kept in flat arrays in memory and reduced to per-layer metrics
after the run.

A function imported by name (`from .linalg import Mat`, `from .complexes
import homology`) is bound in several module namespaces; every `opbar`
namespace that holds the original object gets the wrapper.

Targets that do not exist (a later refactor renamed or removed them) are
skipped, and the metrics they feed read 0.

With `spans=False` only the Z-routine size hooks are installed: they read
matrix shapes and pivot counts and take no timings, so the timed run can
report the sizes that explain its numbers.
"""

from __future__ import annotations

import sys
import time
from array import array

SPAN = "span"
COUNT = "count"
FACTORY = "factory"  # the function returns a callback; the callback gets the span

# (group, module, attribute path, kind).  The layer is the part of the group
# name before the first dot.  Groups listed twice (from_label_fn and
# from_label_fn2) are one metric.  Groups that feed no metric of their own
# (bar.face, complexes.cone, ...) are there so that their time counts as their
# own layer's self time, not as that of the layer that called them.
TARGETS = [
    # bar: the free algebra, the Kan object and its operad structure map
    ("bar.free_algebra", "bar", "free_algebra", SPAN),
    ("bar.ordered_form", "bar", "_ordered_form", SPAN),
    ("bar.simplicial_kan", "bar", "simplicial_kan", SPAN),
    ("bar.operadic_kan", "bar", "operadic_kan", SPAN),
    ("bar.level_complex", "bar", "WordCalculus.level_complex", SPAN),
    ("bar.face", "bar", "WordCalculus.face", SPAN),
    ("bar.degen", "bar", "WordCalculus.degen", SPAN),
    ("bar.mu", "bar", "KanAlgebraStructure.mu", SPAN),
    ("bar.mu_on_labels", "bar", "KanAlgebraStructure.mu_on_labels", SPAN),
    ("bar.check_chain_map", "bar", "KanAlgebraStructure.check_chain_map", SPAN),
    ("bar.check_equivariance", "bar", "KanAlgebraStructure.check_equivariance", SPAN),
    ("bar.compose_on_subdomain", "bar", "_compose_on_subdomain", SPAN),
    # complexes
    ("complexes.homology", "complexes", "homology", SPAN),
    ("complexes.is_quasi_iso", "complexes", "is_quasi_iso", SPAN),
    ("complexes.null_homotopy", "complexes", "null_homotopy", SPAN),
    ("complexes.cone", "complexes", "cone", SPAN),
    ("complexes.tensor_many", "complexes", "ChainComplex.tensor_many", SPAN),
    ("complexes.tensor", "complexes", "ChainComplex.tensor", SPAN),
    ("complexes.validate", "complexes", "ChainComplex.validate", SPAN),
    ("complexes.from_label_fn", "complexes", "ChainMap.from_label_fn", SPAN),
    ("complexes.from_label_fn", "complexes", "ChainMap.from_label_fn2", SPAN),
    ("complexes.compose", "complexes", "ChainMap.compose", SPAN),
    ("complexes.map_validate", "complexes", "ChainMap.validate", SPAN),
    ("complexes.degree_of", "complexes", "ChainComplex.degree_of", COUNT),
    # linalg
    ("linalg.mat_mul", "linalg", "Mat.mul", SPAN),
    ("linalg.column", "linalg", "Mat.column", COUNT),
    ("linalg.apply", "linalg", "Mat.apply", COUNT),
    ("linalg.field_rank", "linalg", "field_rank", SPAN),
    ("linalg.field_kernel", "linalg", "field_kernel", SPAN),
    ("linalg.field_solve", "linalg", "field_solve", SPAN),
    ("linalg.field_solve_mat", "linalg", "field_solve_mat", SPAN),
    ("linalg.z_solve", "linalg", "z_solve", SPAN),
    ("linalg.z_solve_mat", "linalg", "z_solve_mat", SPAN),
    ("linalg.z_kernel_basis", "linalg", "z_kernel_basis", SPAN),
    ("linalg.snf_diagonal", "linalg", "snf_diagonal", SPAN),
    ("linalg.z_rank", "linalg", "z_rank", SPAN),
    ("linalg.diagonalize", "linalg", "_ZWorker.diagonalize", COUNT),
    # coeff: the ring operations are hot leaves
    ("coeff.mul", "coeff", "Ring.mul", COUNT),
    ("coeff.add", "coeff", "Ring.add", COUNT),
    ("coeff.from_int", "coeff", "Ring.from_int", COUNT),
    ("coeff.one", "coeff", "Ring.one", COUNT),
    ("coeff.invert", "coeff", "Ring.invert", SPAN),
    # lincomb
    ("lincomb.add_into", "lincomb", "add_into", COUNT),
    ("lincomb.linear", "lincomb", "linear", SPAN),
    ("lincomb.bilinear", "lincomb", "bilinear", SPAN),
    ("lincomb.combine", "lincomb", "combine", SPAN),
    # multicat
    ("multicat.validate", "multicat", "MultiCat.validate", SPAN),
    ("multicat.validate", "multicat", "MultiAlgebra.validate", SPAN),
    ("multicat.validate", "multicat", "MultiFunctor.validate", SPAN),
    ("multicat.compose_keys", "multicat", "MultiCat.compose_keys", SPAN),
    ("multicat.act", "multicat", "MultiCat.act", SPAN),
    ("multicat.gamma", "multicat", "MultiCat.gamma", SPAN),
    # symgrp
    ("symgrp.tensor_over_group_ring", "symgrp", "tensor_over_group_ring", SPAN),
    ("symgrp.coinvariants", "symgrp", "coinvariants", SPAN),
    ("symgrp.quotient_by_span", "symgrp", "quotient_by_span", SPAN),
    ("symgrp.group_ring_module", "symgrp", "GroupRingModule.__init__", SPAN),
    ("symgrp.group_action", "symgrp", "GroupAction.__init__", SPAN),
    ("symgrp.enumerate_group", "symgrp", "enumerate_group", SPAN),
    # simplicial
    ("simplicial.check_identities", "simplicial", "SimplicialComplexObj.check_identities", SPAN),
    ("simplicial.realize", "simplicial", "realize", SPAN),
    ("simplicial.constant_simplicial", "simplicial", "constant_simplicial", SPAN),
    # barcat and dgcat
    ("barcat.bar", "barcat", "BarBimoduleComplex.__init__", SPAN),
    ("barcat.level_complex", "barcat", "_bar_level_complex", SPAN),
    ("barcat.face", "barcat", "_bar_face_fn", FACTORY),
    ("barcat.degen", "barcat", "_bar_degen_fn", FACTORY),
    ("barcat.tensor_quotient", "barcat", "BarBimoduleComplex.tensor_quotient", SPAN),
    ("barcat.augmentation_maps", "barcat", "BarBimoduleComplex.augmentation_maps", SPAN),
    ("barcat.free_quotient", "barcat", "_free_quotient", SPAN),
    ("barcat.two_sided_bar", "barcat", "two_sided_bar", SPAN),
    ("barcat.group_bar_complex", "barcat", "group_bar_complex", SPAN),
    ("barcat.telescope_complex", "barcat", "telescope_complex", SPAN),
    ("barcat.telescope_vs_hocolim", "barcat", "telescope_vs_hocolim", SPAN),
    ("barcat.complete_tower", "barcat", "complete_tower", SPAN),
    ("dgcat.validate", "dgcat", "DgCategory.validate", SPAN),
    ("dgcat.validate", "dgcat", "DgFunctor.validate", SPAN),
    ("dgcat.validate", "dgcat", "RightModule.validate", SPAN),
    ("dgcat.validate", "dgcat", "LeftModule.validate", SPAN),
    ("dgcat.compose_keys", "dgcat", "DgCategory.compose_keys", SPAN),
    ("dgcat.right_act", "dgcat", "RightModule.act_key", SPAN),
    ("dgcat.left_act", "dgcat", "LeftModule.act_key", SPAN),
    ("dgcat.group_ring_category", "dgcat", "group_ring_category", SPAN),
    ("dgcat.poset_category", "dgcat", "poset_category", SPAN),
]

# Groups whose `.s` is taken over the whole family: a span counts only when no
# enclosing span belongs to the same family (z_solve_mat calls z_solve).
Z_ROUTINES = ("linalg.z_solve", "linalg.z_solve_mat", "linalg.z_kernel_basis",
              "linalg.snf_diagonal", "linalg.z_rank")
FAMILY = {g: "linalg.z" for g in Z_ROUTINES}

# Z routines whose input matrix is recorded in the size report.
Z_SIZED = ("linalg.z_solve", "linalg.z_kernel_basis", "linalg.snf_diagonal",
           "linalg.z_rank")

LAYERS = ("bar", "complexes", "linalg", "coeff", "lincomb", "multicat",
          "symgrp", "simplicial", "barcat", "dgcat")


class Tracer:
    """Wraps engine functions; records spans, counts and sizes in memory."""

    def __init__(self, spans=True):
        self.with_spans = spans
        self.names = []          # group names, indexed by name id
        self._name_id = {}
        self.families = []       # family id per name id
        self._family_id = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("l")
        self.sp_outer = array("b")
        self._stack = [-1]
        self._active = []        # open spans per family
        self.counts = {}
        self.pivots = 0
        self.zcalls = []         # (routine, rows, cols, nnz, pivots)
        self.level_dim = 0
        self.tensor_many_dim = 0
        self.realized_dim = 0
        self.bar_dim = 0
        self.coinvariant_dim = 0
        self.mu_domain_cols = 0
        self.mu_window_cols = 0
        self.mu_args = set()
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "opbar" or name.startswith("opbar."))
                   and mod is not None}
        for group, modname, path, kind in TARGETS:
            if not self.with_spans and group not in Z_SIZED \
                    and group != "linalg.diagonalize":
                continue
            mod = modules.get(f"opbar.{modname}")
            if mod is None:
                continue
            owner = mod
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p, None)
                if owner is None:
                    break
            if owner is None:
                continue
            attr = parts[-1]
            raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if raw is None:
                continue
            if not self.with_spans:
                kind = COUNT
            self._patch(modules, owner, attr, raw, self._wrapper(group, kind))
        return self

    def _patch(self, modules, owner, attr, raw, make):
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif isinstance(raw, property):
            new = property(make(raw.fget))
        elif callable(raw):
            new = make(raw)
        else:
            return
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for mod in modules.values():
            if mod is owner:
                continue
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, name, raw))
                    setattr(mod, name, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------

    def _ids(self, group):
        nid = self._name_id.get(group)
        if nid is None:
            nid = self._name_id[group] = len(self.names)
            self.names.append(group)
            fam = FAMILY.get(group, group)
            fid = self._family_id.get(fam)
            if fid is None:
                fid = self._family_id[fam] = len(self._active)
                self._active.append(0)
            self.families.append(fid)
        return nid, self.families[nid]

    def _wrapper(self, group, kind):
        after = self._after_hook(group)
        counts = self.counts
        counts.setdefault(group, 0)
        if kind == COUNT:
            def make(fn):
                if after is None:
                    def counted(*args, **kwargs):
                        counts[group] += 1
                        return fn(*args, **kwargs)
                else:
                    def counted(*args, **kwargs):
                        counts[group] += 1
                        before = self._before(group, args)
                        out = fn(*args, **kwargs)
                        after(args, out, before)
                        return out
                return counted
            return make
        if kind == FACTORY:
            span = self._span_maker(group, None)

            def make(fn):
                def factory(*args, **kwargs):
                    return span(fn(*args, **kwargs))
                return factory
            return make
        return lambda fn: self._span_maker(group, after)(fn)

    def _span_maker(self, group, after):
        nid, fid = self._ids(group)
        counts = self.counts
        counts.setdefault(group, 0)
        clock = time.perf_counter
        stack = self._stack
        active = self._active
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_outer = self.sp_parent, self.sp_outer

        def make(fn):
            def spanned(*args, **kwargs):
                counts[group] += 1
                idx = len(sp_name)
                sp_name.append(nid)
                sp_parent.append(stack[-1])
                sp_outer.append(1 if active[fid] == 0 else 0)
                sp_end.append(0.0)
                stack.append(idx)
                active[fid] += 1
                before = self._before(group, args) if after else None
                sp_start.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    sp_end[idx] = clock()
                    active[fid] -= 1
                    stack.pop()
                if after is not None:
                    after(args, out, before)
                return out
            return spanned
        return make

    def wrap(self, group, fn):
        """fn with a span named group (the benchmark's own op spans)."""
        return self._span_maker(group, None)(fn)

    # -- size hooks --------------------------------------------------------

    def _before(self, group, args):
        if group in Z_SIZED:
            return self.pivots
        return None

    def _after_hook(self, group):
        if group in Z_SIZED:
            def z_sizes(args, out, pivots_before):
                mat = args[0]
                self.zcalls.append((group.split(".", 1)[1], mat.nrows,
                                    mat.ncols, len(mat.d),
                                    self.pivots - pivots_before))
            return z_sizes
        if group == "linalg.diagonalize":
            def pivots(args, out, _):
                self.pivots += len(out)
            return pivots
        if group == "bar.level_complex":
            def level(args, out, _):
                self.level_dim += out.total_dim()
            return level
        if group == "complexes.tensor_many":
            def tdim(args, out, _):
                self.tensor_many_dim += out.total_dim()
            return tdim
        if group == "simplicial.realize":
            def rdim(args, out, _):
                self.realized_dim += out.complex.total_dim()
            return rdim
        if group == "barcat.bar":
            def bdim(args, out, _):
                self.bar_dim += args[0].complex.total_dim()
            return bdim
        if group == "symgrp.coinvariants":
            def cdim(args, out, _):
                self.coinvariant_dim += out[0].total_dim()
            return cdim
        if group == "bar.mu":
            def mu_cols(args, out, _):
                structure = args[0]
                n_max = structure.simp.n_max
                src = out.source
                for d in src.degrees():
                    for label in src.labels(d):
                        parts = label[1]
                        self.mu_domain_cols += 1
                        if sum(p[1] for p in parts[:-1]) <= n_max - 1:
                            self.mu_window_cols += 1
            return mu_cols
        if group == "bar.mu_on_labels":
            def mu_args(args, out, _):
                self.mu_args.add((tuple(args[1]), args[2]))
            return mu_args
        return None

    # -- reduction ---------------------------------------------------------

    def z_mark(self):
        return len(self.zcalls)

    def metrics(self, wall_traced, wall_untraced):
        """Per-layer metrics for everything recorded so far."""
        n = len(self.sp_name)
        dur = [self.sp_end[i] - self.sp_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [g.split(".", 1)[0] for g in self.names]
        self_s = {layer: 0.0 for layer in LAYERS}
        family_s = {}
        for i in range(n):
            nid = self.sp_name[i]
            layer = layer_of[nid]
            if layer in self_s:
                self_s[layer] += dur[i] - child[i]
            if self.sp_outer[i]:
                fam = FAMILY.get(self.names[nid], self.names[nid])
                family_s[fam] = family_s.get(fam, 0.0) + dur[i]
        c = self.counts
        calls_mu = c.get("bar.mu_on_labels", 0)
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        secs = ("bar.simplicial_kan", "bar.mu", "bar.check_chain_map",
                "bar.check_equivariance", "bar.free_algebra",
                "complexes.homology", "complexes.is_quasi_iso",
                "complexes.tensor_many", "complexes.from_label_fn",
                "complexes.compose", "complexes.null_homotopy",
                "linalg.z", "linalg.field_rank", "linalg.mat_mul",
                "multicat.validate", "symgrp.tensor_over_group_ring",
                "simplicial.check_identities", "simplicial.realize",
                "barcat.bar", "barcat.tensor_quotient",
                "barcat.telescope_vs_hocolim", "barcat.complete_tower")
        for g in secs:
            out[f"{g}.s"] = family_s.get(g, 0.0)
        for g in ("bar.mu_on_labels", "bar.degen", "complexes.homology",
                  "complexes.from_label_fn", "complexes.degree_of",
                  "linalg.z_solve", "linalg.z_kernel_basis",
                  "linalg.snf_diagonal", "linalg.field_rank",
                  "linalg.mat_mul", "linalg.column", "linalg.apply",
                  "coeff.mul", "coeff.add", "coeff.from_int", "coeff.one",
                  "lincomb.add_into", "multicat.compose_keys",
                  "multicat.act", "multicat.gamma"):
            out[f"{g}.calls"] = c.get(g, 0)
        out.update({
            "bar.level_dim": self.level_dim,
            "bar.mu_domain_cols": self.mu_domain_cols,
            "bar.mu_window_ratio": (self.mu_window_cols / self.mu_domain_cols
                                    if self.mu_domain_cols else 0.0),
            "bar.mu_on_labels.distinct_ratio": (len(self.mu_args) / calls_mu
                                                if calls_mu else 0.0),
            "complexes.tensor_many.dim": self.tensor_many_dim,
            "linalg.z.max_cells": max((r * k for _, r, k, _, _ in self.zcalls),
                                      default=0),
            "linalg.z.nnz_in": sum(z[3] for z in self.zcalls),
            "linalg.z.pivots": self.pivots,
            "symgrp.coinvariant_dim": self.coinvariant_dim,
            "simplicial.realized_dim": self.realized_dim,
            "barcat.bar_dim": self.bar_dim,
            "trace.overhead_ratio": (wall_traced / wall_untraced
                                     if wall_untraced else 0.0),
        })
        return out

    def span_rows(self):
        """Spans as (name, start, end, parent) tuples, in call order."""
        return [(self.names[self.sp_name[i]], self.sp_start[i],
                 self.sp_end[i], self.sp_parent[i])
                for i in range(len(self.sp_name))]
