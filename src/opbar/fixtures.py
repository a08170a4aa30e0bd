"""Bundled fixture builders: small validated multicategories and algebras.

Everything here is an honest finite presentation; arities beyond the stated
bound are zero, which keeps truncated operads genuine operads.
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex, ChainMap
from .dgcat import group_ring_category, poset_category
from .lincomb import combine, scaled_int
from .multicat import MultiAlgebra, MultiCat, MultiFunctor, endomorphism_multicat
from .symgrp import Perm


def unit_operad(ring, arity_max=3) -> MultiCat:
    """One object, only the identity operation; all higher arities vanish."""
    star = "*"
    cx = ChainComplex.free(ring, {0: ["one"]}, {})

    def compose_fn(M, fkey, i, gkey):
        return {gkey: ring.one}

    def sym_fn(M, i, fkey):
        raise AssertionError("no higher-arity operations exist")

    return MultiCat(ring, [star], arity_max, {((star,), star): cx},
                    compose_fn, sym_fn, {star: "one"}, name="unit")


def as_operad(ring, arity_max=3) -> MultiCat:
    """Rank-one operations mu_n in degree 0 with trivial symmetry.

    All compositions hit the generator: mu_k into mu_m gives mu_{k+m-1}
    (zero above the arity bound).
    """
    star = "*"
    complexes = {}
    for n in range(1, arity_max + 1):
        complexes[((star,) * n, star)] = ChainComplex.free(
            ring, {0: [f"mu{n}"]}, {})

    def compose_fn(M, fkey, i, gkey):
        n = len(fkey[0]) + len(gkey[0]) - 1
        return {(((star,) * n), star, 0, f"mu{n}"): ring.one}

    def sym_fn(M, i, fkey):
        return {fkey: ring.one}

    return MultiCat(ring, [star], arity_max, complexes, compose_fn, sym_fn,
                    {star: "mu1"}, name="as")


def sym_assoc_operad(ring, arity_max=3) -> MultiCat:
    """The associative operad with O(n) = R[S_n]: free regular orbits.

    The word w (an ordering of 1..n) is the operation multiplying its inputs
    in the order a_{w_1} a_{w_2} ... a_{w_n}.
    """
    star = "*"
    complexes = {}
    for n in range(1, arity_max + 1):
        labels = [("w", w) for w in itertools.permutations(range(1, n + 1))]
        complexes[((star,) * n, star)] = ChainComplex.free(
            ring, {0: labels}, {})

    def compose_fn(M, fkey, i, gkey):
        (_, w_in) = fkey[3]
        (_, w_out) = gkey[3]
        k = len(w_in)
        word = []
        for letter in w_out:
            if letter == i:
                word.extend(t + i - 1 for t in w_in)
            else:
                word.append(letter if letter < i else letter + k - 1)
        n = len(word)
        return {(((star,) * n), star, 0, ("w", tuple(word))): ring.one}

    def sym_fn(M, i, fkey):
        (_, w) = fkey[3]
        t = Perm.transposition(len(w), i, i + 1)
        new = tuple(t(letter) for letter in w)
        return {(fkey[0], star, 0, ("w", new)): ring.one}

    unit = ("w", (1,))
    return MultiCat(ring, [star], arity_max, complexes, compose_fn, sym_fn,
                    {star: unit}, name="sym_assoc")


def poset_multicat(ring, k) -> MultiCat:
    """The chain poset 0 <= 1 <= ... <= k as a 1-ary multicategory."""
    return poset_category(ring, k).M


def group_ring_multicat(ring, n, generators) -> MultiCat:
    """R[G] as a one-object 1-ary multicategory, G a subgroup of S_n."""
    return group_ring_category(ring, n, generators).M


def z2_group_ring_cat(ring) -> MultiCat:
    return group_ring_multicat(ring, 2, [Perm((2, 1))])


# -- algebras --------------------------------------------------------------


def trivial_algebra(M: MultiCat) -> MultiAlgebra:
    """Rank-one degree-0 carriers; every basis operation acts by 1."""
    ring = M.ring
    carriers = {x: ChainComplex.single(ring, "e") for x in M.objects}

    def action_fn(alg, fkey, args):
        return {(0, "e"): ring.one}

    return MultiAlgebra(M, carriers, action_fn, name="trivial")


def diagram_algebra(M: MultiCat, carriers, maps, name="A") -> MultiAlgebra:
    """An algebra over a 1-ary multicategory (= a functor to complexes).

    maps: {morphism_label: ChainMap}; units may be omitted.
    """
    ring = M.ring

    def action_fn(alg, fkey, args):
        xs, y, _, label = fkey
        ((d, l),) = args
        if label == M.units.get(y) and xs[0] == y:
            return {(d, l): ring.one}
        f = maps[label]
        return {(d + f.degree, tl): c for tl, c in f.apply_label(d, l).items()}

    return MultiAlgebra(M, carriers, action_fn, name=name)


def two_object_kappa(ring, C0=None, C1=None, kappa=None):
    """The two-object model: the poset 0 -> 1, carriers C0, C1, action kappa.

    Defaults to rank-one carriers with the identity-like map.
    Returns (M, algebra, kappa map).
    """
    M = poset_multicat(ring, 1)
    if C0 is None:
        C0 = ChainComplex.single(ring, "c0", 0)
    if C1 is None:
        C1 = ChainComplex.single(ring, "c1", 0)
    if kappa is None:
        kappa = ChainMap.from_label_fn(C0, C1, 0,
                                       lambda l: [(C1.labels(0)[0], 1)])
    maps = {"u0_1": kappa,
            "u0_0": ChainMap.identity(C0),
            "u1_1": ChainMap.identity(C1)}
    A = diagram_algebra(M, {0: C0, 1: C1}, maps, name="kappa_alg")
    return M, A, kappa


# -- multifunctors ------------------------------------------------------------


def projection_to_unit(M: MultiCat, O: MultiCat | None = None) -> MultiFunctor:
    """Collapse a 1-ary multicategory onto the unit operad."""
    if O is None:
        O = unit_operad(M.ring, M.arity_max)
    return projection_to_operad(M, O)


def projection_to_operad(M: MultiCat, O: MultiCat) -> MultiFunctor:
    """Collapse a 1-ary multicategory onto the units of a one-object operad."""
    star = O.objects[0]

    def key_fn(F, key):
        if len(key[0]) != 1 or key[2] != 0:
            raise AssertionError("projection defined for 1-ary degree-0 sources")
        return {O.unit_key(star): M.ring.one}

    return MultiFunctor(M, O, {x: star for x in M.objects}, key_fn,
                        name=f"to_{O.name}")


def identity_functor(M: MultiCat) -> MultiFunctor:
    return MultiFunctor(M, M, {x: x for x in M.objects},
                        lambda F, k: {k: M.ring.one}, name="id")


# -- the BV fixture ------------------------------------------------------------


def bv_carrier(ring) -> ChainComplex:
    """The exterior algebra on one odd generator: a in degree 0, b in degree -1."""
    return ChainComplex.free(ring, {0: ["a"], -1: ["b"]}, {})


def bv_operad(ring, arity_max=3):
    """The endomorphism operad of the rank-two exterior algebra.

    Contains the identity 1, the degree-1 operator D with D(b) = a, D(a) = 0,
    and the graded-commutative product m; the seven-term relation and D o D = 0
    hold exactly in the composition tables.  Returns (M, taut algebra, keys).
    """
    A = bv_carrier(ring)
    M, taut = endomorphism_multicat(ring, {"A": A}, arity_max, name="bv_endo")
    star = "A"
    delta = ((star,), star, 1, ("h", ((-1, "b"),), (0, "a")))
    m = {}
    for args, out in [(((0, "a"), (0, "a")), (0, "a")),
                      (((0, "a"), (-1, "b")), (-1, "b")),
                      (((-1, "b"), (0, "a")), (-1, "b"))]:
        deg = out[0] - sum(d for d, _ in args)
        key = ((star, star), star, deg, ("h", args, out))
        m[key] = ring.one
    return M, taut, {"delta": {delta: ring.one}, "m": m}


def bv_seven_term_check(M: MultiCat, delta: dict, m: dict) -> dict:
    """lhs - rhs of the seven-term relation, as operadic arity-3 elements.

    Returns the difference (empty dict means the relation holds on the nose).
    """
    ring = M.ring
    mm = M.compose(m, 1, m)                      # (x,y,z) -> (xy)z
    dm = M.compose(m, 1, delta)                  # D(xy)
    lhs = M.compose(mm, 1, delta)                # D((xy)z)
    t1 = M.compose(dm, 1, m)                     # D(xy) z
    t2 = M.compose(dm, 2, m)                     # +- x D(yz)
    t3 = M.act(Perm((2, 1, 3)), t2)              # +- y D(xz)
    t4 = M.compose(delta, 1, mm)                 # D(x) yz
    t5 = M.compose(delta, 2, mm)                 # +- x D(y) z
    t6 = M.compose(delta, 3, mm)                 # +- xy D(z)
    rhs = combine(ring, t1, t2, t3,
                  scaled_int(ring, t4, -1),
                  scaled_int(ring, t5, -1),
                  scaled_int(ring, t6, -1))
    return combine(ring, lhs, scaled_int(ring, rhs, -1))


# -- planted failures ------------------------------------------------------------


def planted_nonassociative(ring) -> MultiCat:
    """as_operad with one corrupted entry: mu2 o_1 mu3 doubled."""
    base = as_operad(ring, arity_max=4)
    star = "*"

    def compose_fn(M, fkey, i, gkey):
        n = len(fkey[0]) + len(gkey[0]) - 1
        out = {(((star,) * n), star, 0, f"mu{n}"): ring.one}
        if fkey[3] == "mu2" and i == 1 and gkey[3] == "mu3":
            out = {(((star,) * n), star, 0, f"mu{n}"): ring.from_int(2)}
        return out

    return MultiCat(ring, [star], 4, dict(base.complexes), compose_fn,
                    base._sym_fn, dict(base.units), name="as_planted")


def planted_asymmetric(ring) -> MultiCat:
    """sym_assoc with a corrupted transposition entry on one arity-2 word."""
    base = sym_assoc_operad(ring, arity_max=3)
    star = "*"

    def sym_fn(M, i, fkey):
        if fkey[3] == ("w", (1, 2)) and i == 1:
            return {fkey: ring.one}  # wrong: fails equivariance/involution
        return base._sym_fn(M, i, fkey)

    return MultiCat(ring, [star], 3, dict(base.complexes), base._compose_fn,
                    sym_fn, dict(base.units), name="sym_planted")
