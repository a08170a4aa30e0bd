"""One-sided modules over dg categories, and the dg category builders.

`multicat.py` stores and validates a dg category: `DgCategory` is a view of
the 1-ary MultiCat `C.M`, under the key translation (a, b, d, l) <->
((a,), b, d, l), and compose(u, v), "u then v", plugs u into the one slot of
v.  It is a chain map in the tensor order (u, v): d(uv) = (du)v + (-1)^{|u|}
u (dv).  `C.validate()` is `C.M.validate()`, so a witness names a
multicategory axiom ("eqMultComp3" for a unit law, "leibniz", "eqMultComp1"
for associativity) with 1-ary keys, and a Novikov ring raises UnsupportedRing.

A right module R is a covariant assignment a -> R(a) with x.u in R(b) for
u: a -> b; a left module L is contravariant: u.y in L(a) for y in L(b).
"""

from __future__ import annotations

from .complexes import ChainComplex
from .errors import EngineError
from .lincomb import add_into, bilinear, combine, eq as lc_eq, linear, scaled_int
from .multicat import DgCategory, DgFunctor
from .symgrp import Perm, enumerate_group


class _Module:
    """A one-sided dg module: a complex per object (None or absent for 0),
    keys (object, degree, label), and an action through action_fn, memoized
    by `act_key`."""

    def __init__(self, cat: DgCategory, complexes, action_fn, name=None):
        self.cat = cat
        self.ring = cat.ring
        self.complexes = {a: c for a, c in complexes.items() if c is not None}
        self._action_fn = action_fn
        self._cache = {}
        self._diff_cache = {}
        self.name = self.default_name if name is None else name

    def complex(self, a) -> ChainComplex:
        c = self.complexes.get(a)
        if c is None:
            c = ChainComplex.zero(self.cat.ring)
        return c

    def elem_keys(self, a):
        c = self.complex(a)
        return [(a, d, l) for d in c.degrees() for l in c.labels(d)]

    def diff_key(self, key) -> dict:
        """d of a basis element, memoized per key: callers only read it."""
        cached = self._diff_cache.get(key)
        if cached is None:
            a, d, l = key
            c = self.complex(a)
            col = c.d_mat(d).column(c.index(d, l))
            pd = c.pred(d)
            cached = self._diff_cache[key] = {
                (a, pd, c.labels(pd)[i]): v for i, v in col.items()}
        return cached


class RightModule(_Module):
    """Covariant dg functor to complexes: morphisms push elements forward."""

    default_name = "R"

    def act_key(self, mkey, ukey) -> dict:
        """m . u for m in R(a), u: a -> b; lands in R(b)."""
        if mkey[0] != ukey[0]:
            raise EngineError("module action mismatch")
        cached = self._cache.get((mkey, ukey))
        if cached is None:
            cached = self._action_fn(self, mkey, ukey)
            for k in cached:
                if k[0] != ukey[1] or k[1] != mkey[1] + ukey[2]:
                    raise EngineError(f"module action off-signature: {k}")
            self._cache[(mkey, ukey)] = cached
        return cached

    def validate(self):
        ring = self.ring
        for a in self.cat.objects:
            for m in self.elem_keys(a):
                got = self.act_key(m, self.cat.unit_key(a))
                if not lc_eq(ring, got, {m: ring.one}):
                    return {"axiom": "module-unit", "m": m}
        for a in self.cat.objects:
            for m in self.elem_keys(a):
                for u in self.cat.all_keys():
                    if u[0] != a:
                        continue
                    lhs = linear(ring, self.diff_key, self.act_key(m, u))
                    rhs = combine(
                        ring,
                        bilinear(ring, self.act_key, self.diff_key(m),
                                 {u: ring.one}),
                        scaled_int(ring,
                                   bilinear(ring, self.act_key, {m: ring.one},
                                            self.cat.diff_key(u)),
                                   -1 if m[1] % 2 else 1),
                    )
                    if not lc_eq(ring, lhs, rhs):
                        return {"axiom": "module-leibniz", "m": m, "u": u}
                    for v in self.cat.all_keys():
                        if v[0] != u[1]:
                            continue
                        lhs2 = bilinear(ring, self.act_key,
                                        self.act_key(m, u), {v: ring.one})
                        rhs2 = bilinear(ring, self.act_key, {m: ring.one},
                                        self.cat.compose_keys(u, v))
                        if not lc_eq(ring, lhs2, rhs2):
                            return {"axiom": "module-assoc", "m": m, "u": u, "v": v}
        return None


class LeftModule(_Module):
    """Contravariant dg functor: morphisms pull elements back (u . y)."""

    default_name = "L"

    def act_key(self, ukey, ykey) -> dict:
        """u . y for u: a -> b and y in L(b); lands in L(a)."""
        if ykey[0] != ukey[1]:
            raise EngineError("module action mismatch")
        cached = self._cache.get((ukey, ykey))
        if cached is None:
            cached = self._action_fn(self, ukey, ykey)
            for k in cached:
                if k[0] != ukey[0] or k[1] != ykey[1] + ukey[2]:
                    raise EngineError(f"module action off-signature: {k}")
            self._cache[(ukey, ykey)] = cached
        return cached

    def validate(self):
        ring = self.ring
        for b in self.cat.objects:
            for y in self.elem_keys(b):
                got = self.act_key(self.cat.unit_key(b), y)
                if not lc_eq(ring, got, {y: ring.one}):
                    return {"axiom": "module-unit", "y": y}
                for u in self.cat.all_keys():
                    if u[1] != b:
                        continue
                    lhs = linear(ring, self.diff_key, self.act_key(u, y))
                    rhs = combine(
                        ring,
                        bilinear(ring, self.act_key, self.cat.diff_key(u),
                                 {y: ring.one}),
                        scaled_int(ring,
                                   bilinear(ring, self.act_key, {u: ring.one},
                                            self.diff_key(y)),
                                   -1 if u[2] % 2 else 1),
                    )
                    if not lc_eq(ring, lhs, rhs):
                        return {"axiom": "module-leibniz", "y": y, "u": u}
                    for v in self.cat.all_keys():
                        if v[1] != u[0]:
                            continue
                        lhs2 = bilinear(ring, self.act_key, {v: ring.one},
                                        self.act_key(u, y))
                        rhs2 = bilinear(ring, self.act_key,
                                        self.cat.compose_keys(v, u), {y: ring.one})
                        if not lc_eq(ring, lhs2, rhs2):
                            return {"axiom": "module-assoc", "y": y, "u": u, "v": v}
        return None


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def table_category(ring, objects, hom_bases, diff_entries, comp_entries, units,
                   name="C") -> DgCategory:
    """Category from explicit tables.

    hom_bases: {(a,b): {degree: [labels]}}
    diff_entries: {(a,b,src_label): [(coeff, tgt_label)]} within a hom complex
    comp_entries: {(u_label, v_label): [(coeff, w_label)]} keyed by labels,
                  which must be globally unique across hom complexes.
    """
    owner = {}
    homs = {}
    for (a, b), basis in hom_bases.items():
        entries = {}
        degree_of = {}
        for d, ls in basis.items():
            for l in ls:
                if l in owner:
                    raise EngineError(f"duplicate morphism label {l!r}")
                owner[l] = (a, b)
                degree_of[l] = d
        for (aa, bb, src), hits in diff_entries.items():
            if (aa, bb) != (a, b):
                continue
            for coeff, tgt in hits:
                entries[(degree_of[src], src, tgt)] = coeff
        homs[(a, b)] = ChainComplex.free(ring, basis, entries)

    def compose_fn(C, ukey, vkey):
        hits = comp_entries.get((ukey[3], vkey[3]))
        if hits is None:
            return {}
        out = {}
        a, c = ukey[0], vkey[1]
        target = C.hom(a, c)
        for coeff, w in hits:
            d = target.degree_of(w)
            add_into(ring, out, (a, c, d, w), ring.canon(coeff))
        return out

    return DgCategory(ring, objects, homs, compose_fn, units, name=name)


def group_ring_category(ring, n, generators) -> DgCategory:
    """R[G] as a one-object dg category, G a subgroup of S_n."""
    gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
    elements = enumerate_group(gens, n)
    labels = [repr(g) for g in elements]
    by_label = {repr(g): g for g in elements}
    obj = "*"
    hom = ChainComplex.free(ring, {0: labels}, {})
    homs = {(obj, obj): hom}

    def compose_fn(C, ukey, vkey):
        # u then v corresponds to the product v o u of group elements acting
        # on the left; the bar differential only needs some fixed convention.
        g = by_label[ukey[3]]
        h = by_label[vkey[3]]
        w = repr(h.compose(g))
        return {(obj, obj, 0, w): ring.one}

    return DgCategory(ring, [obj], homs, compose_fn, {obj: repr(Perm.identity(n))},
                      name=f"R[G<=S{n}]")


def poset_category(ring, k) -> DgCategory:
    """The chain poset 0 -> 1 -> ... -> k with one morphism per pair i <= j."""
    objects = list(range(k + 1))
    homs = {}
    for i in objects:
        for j in objects:
            if i <= j:
                homs[(i, j)] = ChainComplex.free(ring, {0: [f"u{i}_{j}"]}, {})

    def compose_fn(C, ukey, vkey):
        i, j = ukey[0], vkey[1]
        return {(i, j, 0, f"u{i}_{j}"): ring.one}

    units = {i: f"u{i}_{i}" for i in objects}
    return DgCategory(ring, objects, homs, compose_fn, units, name=f"N<={k}")


def trivial_right_module(cat: DgCategory) -> RightModule:
    """The constant module R (each morphism acts as the augmentation 1)."""
    ring = cat.ring
    complexes = {a: ChainComplex.single(ring, "r") for a in cat.objects}

    def action(R, mkey, ukey):
        return {(ukey[1], 0, "r"): ring.one}

    return RightModule(cat, complexes, action, name="triv")


def trivial_left_module(cat: DgCategory) -> LeftModule:
    ring = cat.ring
    complexes = {a: ChainComplex.single(ring, "l") for a in cat.objects}

    def action(L, ukey, ykey):
        return {(ukey[0], 0, "l"): ring.one}

    return LeftModule(cat, complexes, action, name="triv")


def functor_right_module(cat: DgCategory, complexes, maps, name="F") -> RightModule:
    """Right module from complexes {a: C_a} and chain maps for basis morphisms.

    maps: {(a, b, label): ChainMap C_a -> C_b} for every basis morphism label
    of C(a, b); linearity in the morphism argument is automatic.
    """
    ring = cat.ring

    def action(R, mkey, ukey):
        a, d, l = mkey
        f = maps[(ukey[0], ukey[1], ukey[3])]
        return {(ukey[1], d + ukey[2], tl): c
                for tl, c in f.apply_label(d, l).items()}

    return RightModule(cat, complexes, action, name=name)


def pullback_right_module(F: DgFunctor, R: RightModule) -> RightModule:
    """f^* R over the source category: (f^*R)(a) = R(F a)."""
    cat = F.source
    ring = cat.ring
    complexes = {a: R.complex(F.on_obj(a)) for a in cat.objects}

    def action(_R, mkey, ukey):
        a, d, l = mkey
        out = {}
        for k, c in F.on_key(ukey).items():
            for kk, cc in R.act_key((F.on_obj(a), d, l), k).items():
                add_into(ring, out, (ukey[1], kk[1], kk[2]), ring.mul(c, cc))
        return out

    return RightModule(cat, complexes, action, name=f"{F.name}^*{R.name}")


def under_functor_left_module(p: DgFunctor, c_obj) -> LeftModule:
    """The left module a |-> D(p(a), c_obj) over the source of p: A -> D."""
    A, D = p.source, p.target
    ring = A.ring
    complexes = {a: D.hom(p.on_obj(a), c_obj) for a in A.objects}

    def action(L, ukey, ykey):
        b, d, l = ykey  # y in D(p(b), c_obj)
        out = {}
        for k, c in p.on_key(ukey).items():
            for kk, cc in D.compose(
                    {k: ring.one},
                    {(p.on_obj(b), c_obj, d, l): ring.one}).items():
                add_into(ring, out, (ukey[0], kk[2], kk[3]), ring.mul(c, cc))
        return out

    return LeftModule(A, complexes, action, name=f"_{p.name}{D.name}")


def corepresented_right_module(D: DgCategory, b_obj) -> RightModule:
    """The right module a |-> D(b_obj, a) (postcomposition action)."""
    ring = D.ring
    complexes = {a: D.hom(b_obj, a) for a in D.objects}

    def action(R, mkey, ukey):
        a, d, l = mkey
        out = {}
        for kk, cc in D.compose({(b_obj, a, d, l): ring.one},
                                {ukey: ring.one}).items():
            add_into(ring, out, (ukey[1], kk[2], kk[3]), cc)
        return out

    return RightModule(D, complexes, action, name=f"{D.name}({b_obj},-)")
