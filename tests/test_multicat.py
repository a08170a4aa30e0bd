import itertools
import random

import pytest

from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap
from opbar.fixtures import (
    as_operad,
    bv_operad,
    bv_seven_term_check,
    diagram_algebra,
    group_ring_multicat,
    identity_functor,
    planted_asymmetric,
    planted_nonassociative,
    poset_multicat,
    projection_to_unit,
    sym_assoc_operad,
    trivial_algebra,
    two_object_kappa,
    unit_operad,
    z2_group_ring_cat,
)
from opbar.lincomb import eq as lc_eq
from opbar.multicat import (
    MultiCat,
    check_freeness,
    endomorphism_multicat,
    perm_morphism,
    prop_of,
)
from opbar.symgrp import Perm

Z = Ring.Z()
Q = Ring.Q()


# -- validation of fixtures ------------------------------------------------------

def test_unit_operad_valid():
    assert unit_operad(Z).validate() is None


def test_as_operad_valid():
    assert as_operad(Z, 3).validate() is None


def test_sym_assoc_valid():
    assert sym_assoc_operad(Z, 3).validate() is None


def test_poset_valid():
    assert poset_multicat(Z, 2).validate() is None


def test_group_ring_valid():
    assert z2_group_ring_cat(Z).validate() is None


def test_endomorphism_operad_valid():
    c = ChainComplex.free(Q, {0: ["a"], 1: ["t"]}, {(1, "t", "a"): 1})
    M, taut = endomorphism_multicat(Q, {"X": c}, 2)
    assert M.validate() is None
    assert taut.validate() is None


def test_endomorphism_two_objects_valid():
    c0 = ChainComplex.single(Z, "p", 0)
    c1 = ChainComplex.free(Z, {0: ["q"], -1: ["r"]}, {})
    M, taut = endomorphism_multicat(Z, {"X": c0, "Y": c1}, 2)
    assert M.validate() is None
    assert taut.validate() is None


def test_planted_nonassociative_witnessed():
    w = planted_nonassociative(Z).validate()
    assert w is not None
    assert w["axiom"] == "eqMultComp1"


def test_planted_asymmetric_witnessed():
    w = planted_asymmetric(Z).validate()
    assert w is not None
    assert w["axiom"].startswith("sym") or w["axiom"].startswith("eqSymAc")


def test_act_is_right_action():
    M = sym_assoc_operad(Z, 3)
    keys = [k for k in M.all_keys() if M.arity(k) == 3]
    perms = [Perm(p) for p in itertools.permutations((1, 2, 3))]
    for f in keys[:3]:
        for s in perms:
            for t in perms:
                lhs = M.act(t, M.act(s, f))
                rhs = M.act(s.compose(t), f)
                assert lc_eq(Z, lhs, rhs)


# -- algebras ---------------------------------------------------------------------

def test_trivial_algebra_over_as():
    M = as_operad(Z, 3)
    assert trivial_algebra(M).validate() is None


def test_trivial_algebra_over_sym_assoc():
    M = sym_assoc_operad(Z, 3)
    assert trivial_algebra(M).validate() is None


def test_two_object_kappa_algebra():
    M, A, kappa = two_object_kappa(Z)
    assert M.validate() is None
    assert A.validate() is None


def test_exterior_algebra_over_as():
    # graded-commutative product on the rank-2 exterior algebra is an
    # As-algebra (trivial symmetric action forces graded commutativity)
    M = as_operad(Q, 3)
    from opbar.fixtures import bv_carrier
    A = bv_carrier(Q)
    ring = Q

    def mult(args):
        # product of basis elements of the exterior algebra
        out_deg = sum(d for d, _ in args)
        n_b = sum(1 for _, l in args if l == "b")
        if n_b == 0:
            return (0, "a")
        if n_b == 1:
            return (-1, "b")
        return None

    def action_fn(alg, fkey, args):
        got = mult(args)
        if got is None:
            return {}
        # Koszul: reordering b's past b's kills the product; with at most one
        # odd factor no sign arises
        return {got: ring.one}

    from opbar.multicat import MultiAlgebra
    alg = MultiAlgebra(M, {"*": A}, action_fn, name="exterior")
    assert alg.validate() is None


def test_planted_algebra_symmetry_witnessed():
    M = sym_assoc_operad(Q, 2)
    ring = Q
    c = ChainComplex.free(Q, {0: ["x", "y"]}, {})

    def action_fn(alg, fkey, args):
        if fkey[3] == ("w", (1, 2)) and args == ((0, "x"), (0, "y")):
            return {(0, "x"): ring.one}
        if fkey[3] == ("w", (2, 1)) and args == ((0, "y"), (0, "x")):
            return {(0, "y"): ring.one}  # incompatible with the relabeling
        if len(args) == 1:
            return {args[0]: ring.one}
        return {}

    from opbar.multicat import MultiAlgebra
    alg = MultiAlgebra(M, {"*": c}, action_fn)
    w = alg.validate()
    assert w is not None
    assert w["axiom"] in ("eqSymAc-algebra", "algebra-composition")


# -- functors ----------------------------------------------------------------------

def test_projection_functor_valid():
    M = poset_multicat(Z, 1)
    pi = projection_to_unit(M)
    assert pi.validate() is None


def test_identity_functor_valid():
    M = as_operad(Z, 3)
    assert identity_functor(M).validate() is None


# -- PROP --------------------------------------------------------------------------

def test_prop_of_as_counting():
    M = as_operad(Z, 3)
    P = prop_of(M, 3)
    hom = P.cat.hom(("*", "*", "*"), ("*",))
    assert hom is not None and hom.dim(0) == 1  # one surjection [3] -> [1]


def test_prop_category_axioms():
    for M in (as_operad(Z, 2), sym_assoc_operad(Z, 2), poset_multicat(Z, 1)):
        P = prop_of(M, 2)
        assert P.cat.validate() is None


def test_prop_identity_flag_poset():
    P = prop_of(poset_multicat(Z, 1), 2)
    assert all(P.identity_flags.values())


def test_prop_identity_flag_group_ring_fails():
    # a one-object category with extra endomorphisms is not R[Aut]
    P = prop_of(z2_group_ring_cat(Z), 2)
    assert not P.identity_flags[("*",)]


def test_perm_morphisms_compose_as_group():
    M = poset_multicat(Z, 1)
    P = prop_of(M, 2)
    seq = (0, 0)
    perms = [Perm((1, 2)), Perm((2, 1))]
    for s in perms:
        for t in perms:
            # sigma* o tau* = (sigma tau)*: tau* first, then sigma*
            tk = perm_morphism(P, seq, t)
            sk = perm_morphism(P, seq, s)
            got = P.cat.compose_keys(tk, sk)
            want = perm_morphism(P, seq, s.compose(t))
            assert lc_eq(Z, got, {want: Z.one})


def test_prop_endo_of_repeated_object_is_group_ring():
    M = poset_multicat(Z, 1)
    P = prop_of(M, 2)
    hom = P.cat.hom((0, 0), (0, 0))
    assert hom.dim(0) == 2  # R[S2]
    assert P.identity_flags[(0, 0)]


# -- freeness ---------------------------------------------------------------------

def test_freeness_regular_orbits():
    M = poset_multicat(Z, 1)
    O = sym_assoc_operad(Z, 2)
    pi = projection_to_unit(M, unit_operad(Z, 2))
    # use the sym_assoc target through a fresh projection
    from opbar.fixtures import projection_to_operad
    pi2 = projection_to_operad(M, O)
    assert pi2.validate() is None
    rep = check_freeness(M, pi2)
    assert rep.identity and rep.freeness1 and rep.freeness2


def test_freeness_fails_for_as():
    M = poset_multicat(Z, 1)
    O = as_operad(Z, 2)
    from opbar.fixtures import projection_to_operad
    pi = projection_to_operad(M, O)
    rep = check_freeness(M, pi)
    assert rep.identity and rep.freeness1
    assert not rep.freeness2  # orbit of size 1 < 2 in O(2)


def test_freeness_identity_fails_for_group_ring():
    M = z2_group_ring_cat(Z)
    pi = projection_to_unit(M, unit_operad(Z, 2))
    rep = check_freeness(M, pi)
    assert not rep.identity


# -- BV -----------------------------------------------------------------------------

def test_bv_operad_validates():
    M, taut, keys = bv_operad(Q, 3)
    assert M.validate() is None
    assert taut.validate() is None


def test_bv_delta_squared_zero():
    M, taut, keys = bv_operad(Q, 3)
    dd = M.compose(keys["delta"], 1, keys["delta"])
    assert dd == {}


def test_bv_seven_term_relation():
    M, taut, keys = bv_operad(Q, 3)
    diff = bv_seven_term_check(M, keys["delta"], keys["m"])
    assert diff == {}


def test_bv_seven_term_fails_with_wrong_third_term():
    # replacing y D(xz) by z D(xy) (a misprint seen in the wild) breaks the
    # relation on the exterior-algebra model
    M, taut, keys = bv_operad(Q, 3)
    ring = Q
    from opbar.lincomb import combine, scaled_int
    delta, m = keys["delta"], keys["m"]
    mm = M.compose(m, 1, m)
    dm = M.compose(m, 1, delta)
    lhs = M.compose(mm, 1, delta)
    t1 = M.compose(dm, 1, m)
    t2 = M.compose(dm, 2, m)
    bad_t3 = M.act(Perm((3, 2, 1)), M.compose(dm, 1, m))  # z D(xy)-style term
    t4 = M.compose(delta, 1, mm)
    t5 = M.compose(delta, 2, mm)
    t6 = M.compose(delta, 3, mm)
    rhs = combine(ring, t1, t2, bad_t3, scaled_int(ring, t4, -1),
                  scaled_int(ring, t5, -1), scaled_int(ring, t6, -1))
    assert combine(ring, lhs, scaled_int(ring, rhs, -1)) != {}


# -- restriction --------------------------------------------------------------------

def test_full_sub_multicategory():
    M = poset_multicat(Z, 2)
    sub = M.restrict_to([0, 2])
    assert sub.validate() is None
    assert sub.complex((0,), 2) is not None
    assert sub.complex((1,), 2) is None
