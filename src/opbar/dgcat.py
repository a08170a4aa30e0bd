"""One-sided modules over dg categories, and the dg category builders.

`multicat.py` stores and validates a dg category: `DgCategory` is a view of
the 1-ary MultiCat `C.M`, under the key translation (a, b, d, l) <->
((a,), b, d, l), and compose(u, v), "u then v", plugs u into the one slot of
v.  It is a chain map in the tensor order (u, v): d(uv) = (du)v + (-1)^{|u|}
u (dv).  `C.validate()` is `C.M.validate()`, so a witness names a
multicategory axiom ("eqMultComp3" for a unit law, "leibniz", "eqMultComp1"
for associativity) with 1-ary keys, over every ring, a Novikov ring included.

A right module R has complexes R(a) and m.u in R(b) for m in R(a) and
u: a -> b; a left module L has u.y in L(a) for y in L(b).  Each is a view of
the algebra `R.A`, which holds the carriers and the action: over `C.M` with
u(m) = (-1)^{|m||u|} m.u for a right module, over `C.op().M` with u(y) = u.y
for a left one.  The twist is applied when the action goes in and again when
`act_key` reads it back, so `act_key` returns the builder's values.
`R.validate()` is `R.A.validate()`: a witness names an algebra axiom
("algebra-unit", "algebra-chain-map" for the Leibniz rule,
"algebra-composition" for associativity) with 1-ary keys.  `apply_key`
checks each value's degree and labels; the views check its object.
"""

from __future__ import annotations

from .complexes import ChainComplex
from .errors import EngineError
from .lincomb import add_into
from .multicat import DgCategory, DgFunctor, MultiAlgebra
from .symgrp import Perm, enumerate_group


class _Module:
    """The view of `A` shared by both sides: carriers, elements and d."""

    ring = property(lambda self: self.A.ring)
    complexes = property(lambda self: self.A.carriers)
    name = property(lambda self: self.A.name)

    def __init__(self, cat: DgCategory, M, complexes, action, name):
        self.cat = cat
        zero = ChainComplex.zero(cat.ring)
        carriers = {a: zero if complexes.get(a) is None else complexes[a]
                    for a in cat.objects}
        self.A = MultiAlgebra(M, carriers, action, name)

    def complex(self, a) -> ChainComplex:
        return self.A.carrier(a)

    def elem_keys(self, a):
        c = self.complex(a)
        return [(a, d, l) for d in c.degrees() for l in c.labels(d)]

    def diff_key(self, key) -> dict:
        """d of a basis element."""
        a, d, l = key
        return {(a,) + k: v for k, v in self.A.diff_carrier(a, (d, l)).items()}

    def _stored(self, obj, lc, odd) -> dict:
        """A builder's value {(obj, d, l): c} as {(d, l): +-c} for `A`."""
        for k in lc:
            if k[0] != obj:
                raise EngineError(f"module action off-signature: {k}")
        return {k[1:]: v for k, v in self._signed(lc, odd).items()}

    def _read(self, obj, lc, odd) -> dict:
        """A value {(d, l): c} of `A` as {(obj, d, l): +-c}."""
        return {(obj,) + k: v for k, v in self._signed(lc, odd).items()}

    def _signed(self, lc, odd) -> dict:
        return {k: self.ring.neg(v) for k, v in lc.items()} if odd else lc


class RightModule(_Module):
    """Covariant dg functor to complexes: morphisms push elements forward.

    action_fn(R, mkey, ukey) gives m.u in (object, degree, label) keys."""

    def __init__(self, cat: DgCategory, complexes, action_fn, name="R"):
        def action(A, fkey, args):
            ((a,), b, du, lu), ((d, l),) = fkey, args
            return self._stored(b, action_fn(self, (a, d, l), (a, b, du, lu)),
                                d * du % 2)

        super().__init__(cat, cat.M, complexes, action, name)

    def act_key(self, mkey, ukey) -> dict:
        """m . u for m in R(a), u: a -> b; lands in R(b)."""
        if mkey[0] != ukey[0]:
            raise EngineError("module action mismatch")
        a, b, du, lu = ukey
        return self._read(b, self.A.apply_key(((a,), b, du, lu), (mkey[1:],)),
                          mkey[1] * du % 2)

    def validate(self):
        return self.A.validate()


class LeftModule(_Module):
    """Contravariant dg functor: morphisms pull elements back (u . y).

    action_fn(L, ukey, ykey) gives u.y in (object, degree, label) keys."""

    def __init__(self, cat: DgCategory, complexes, action_fn, name="L"):
        def action(A, fkey, args):
            ((b,), a, du, lu), ((d, l),) = fkey, args
            return self._stored(a, action_fn(self, (a, b, du, lu), (b, d, l)),
                                False)

        super().__init__(cat, cat.op().M, complexes, action, name)

    def act_key(self, ukey, ykey) -> dict:
        """u . y for u: a -> b and y in L(b); lands in L(a)."""
        if ykey[0] != ukey[1]:
            raise EngineError("module action mismatch")
        a, b, du, lu = ukey
        return self._read(a, self.A.apply_key(((b,), a, du, lu), (ykey[1:],)),
                          False)

    def validate(self):
        return self.A.validate()


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


def _acts_by_one(cat: DgCategory):
    """EngineError naming the first basis morphism of nonzero degree, or the
    first pair whose composite is not one basis morphism with coefficient 1:
    then acting by 1 on every basis morphism is no module.  Read off the int
    tables of `cat.M`, where u then v is the outer entry of u into v's slot."""
    T = cat.M._tables
    keys = [(xs[0], y, d, l) for xs, y, d, l in T.keys]
    for u in (u for u in keys if u[2]):
        raise EngineError(f"trivial module: basis morphism {u!r} has degree {u[2]}")
    for (f, u), (g, v) in ((a, b) for a in enumerate(keys) for b in enumerate(keys)):
        w = T.outer.get((1, g), {}).get(f, ())
        if v[0] == u[1] and [c for _, c in w] != [T.const(T.den)]:
            w = {k: c for k, c in cat.compose_keys(u, v).items() if not cat.ring.is_zero(c)}
            raise EngineError(f"trivial module: {u!r} then {v!r} is {w}, "
                              "not one basis morphism with coefficient 1")


def trivial_right_module(cat: DgCategory) -> RightModule:
    """The constant module R (each morphism acts as the augmentation 1)."""
    _acts_by_one(cat)
    ring = cat.ring
    complexes = {a: ChainComplex.single(ring, "r") for a in cat.objects}

    def action(R, mkey, ukey):
        return {(ukey[1], 0, "r"): ring.one}

    return RightModule(cat, complexes, action, name="triv")


def trivial_left_module(cat: DgCategory) -> LeftModule:
    _acts_by_one(cat)
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
