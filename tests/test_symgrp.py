import random

import pytest

from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, homology
from opbar.errors import GroupTooLarge, NonPermutationAction
from opbar.linalg import Mat
from opbar.symgrp import (
    GroupAction,
    GroupRingModule,
    Perm,
    block_perm,
    coinvariants,
    cycle_notation,
    descend_to_coinvariants,
    enumerate_group,
    is_free_module,
    koszul_sign,
    parse_cycles,
    tensor_over_group_ring,
)

Z = Ring.Z()
Q = Ring.Q()


def swap_map(c, l0, l1, sign=1):
    return ChainMap.from_label_fn(
        c, c, 0,
        lambda l: [(l1 if l == l0 else l0 if l == l1 else l, sign if l in (l0, l1) else 1)],
    )


# -- permutations --------------------------------------------------------------

def test_perm_compose_and_inverse():
    s = Perm((2, 1, 3))
    t = Perm((1, 3, 2))
    st = s.compose(t)
    assert st(1) == 2 and st(2) == 3 and st(3) == 1
    assert st.compose(st.inverse()).is_identity()
    assert s.sign() == -1 and st.sign() == 1


def test_cycle_notation_roundtrip():
    for images in [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]:
        p = Perm(images)
        assert parse_cycles(cycle_notation(p), 3) == p
    assert parse_cycles("(1 2)(3)", 3) == Perm((2, 1, 3))


def test_koszul_sign():
    # swapping two odd factors is -1; even factors never contribute
    assert koszul_sign(Perm((2, 1)), [1, 1]) == -1
    assert koszul_sign(Perm((2, 1)), [1, 2]) == 1
    assert koszul_sign(Perm((3, 1, 2)), [1, 1, 1]) == 1  # two inversions


def test_block_perm():
    p = block_perm([2, 1], Perm((2, 1)))
    assert p.images == (2, 3, 1)


# -- enumerate_group -------------------------------------------------------------

def test_enumerate_trivial():
    assert enumerate_group([], 3) == [Perm.identity(3)]


def test_enumerate_s2():
    got = enumerate_group([Perm((2, 1))], 2)
    assert got == [Perm.identity(2), Perm((2, 1))]


def test_enumerate_s3_from_generators():
    got = enumerate_group([Perm((2, 1, 3)), Perm((2, 3, 1))], 3)
    assert len(got) == 6


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        enumerate_group([], 9)


# -- coinvariants -----------------------------------------------------------------

def test_coinvariants_trivial_action():
    c = ChainComplex.single(Q, "a", 0)
    act = GroupAction(2, [Perm((2, 1))], c, [ChainMap.identity(c)])
    q, proj = coinvariants(act)
    assert q.dim(0) == 1
    assert proj.mat(0).get(0, 0) == Q.one


def test_coinvariants_swap():
    c = ChainComplex.free(Q, {0: ["x", "y"]}, {})
    act = GroupAction(2, [Perm((2, 1))], c, [swap_map(c, "x", "y")])
    q, proj = coinvariants(act)
    assert q.dim(0) == 1
    assert proj.apply_label(0, "x") == proj.apply_label(0, "y")


def test_coinvariants_sign_action_kills_generator():
    c = ChainComplex.single(Q, "x", 0)
    neg = ChainMap.from_label_fn(c, c, 0, lambda l: [(l, -1)])
    act = GroupAction(2, [Perm((2, 1))], c, [neg])
    q, proj = coinvariants(act)
    assert q.dim(0) == 0


def test_coinvariants_general_fallback_matches_span_rank():
    # non-permutation action over Q: x -> x + y, y -> y is not an involution,
    # so use an honest order-2 matrix action: swap with a shear conjugation
    c = ChainComplex.free(Q, {0: ["x", "y"]}, {})
    m = Mat.from_rows(Q, [[0, 1], [1, 0]])
    shear = Mat.from_rows(Q, [[1, 1], [0, 1]])
    shear_inv = Mat.from_rows(Q, [[1, -1], [0, 1]])
    conj = shear.mul(m).mul(shear_inv)
    f = ChainMap(c, c, 0, {0: conj})
    act = GroupAction(2, [Perm((2, 1))], c, [f])
    q, proj = coinvariants(act)
    # rank(quotient) = rank(source) - rank(relation span)
    assert q.dim(0) == 1


def test_coinvariants_projection_surjective_rank():
    rng = random.Random(2)
    c = ChainComplex.free(Q, {0: ["a", "b", "c"], 1: ["u", "v", "w"]}, {})
    perm_map = ChainMap.from_label_fn(
        c, c, 0,
        lambda l: [({"a": "b", "b": "a", "u": "v", "v": "u"}.get(l, l), 1)])
    act = GroupAction(2, [Perm((2, 1))], c, [perm_map])
    q, proj = coinvariants(act)
    assert q.dim(0) == 2 and q.dim(1) == 2
    from opbar.linalg import field_rank
    assert field_rank(proj.mat(0)) == 2


# -- group ring modules -----------------------------------------------------------

def group_ring_complex(ring, n, elements):
    return ChainComplex.free(ring, {0: [repr(g) for g in elements]}, {})


def regular_module(ring, n, gens, side="right"):
    """R[G] as a module over itself, by right or left translation."""
    elements = enumerate_group(gens, n)
    c = group_ring_complex(ring, n, elements)
    gen_maps = []
    for g in gens:
        mapping = {repr(h): repr(h.compose(g) if side == "right" else g.compose(h))
                   for h in elements}
        gen_maps.append(ChainMap.from_label_fn(c, c, 0, lambda l, m=mapping: [(m[l], 1)]))
    return GroupRingModule(side, n, gens, c, gen_maps)


def trivial_module(ring, n, gens, side, label="m"):
    c = ChainComplex.single(ring, label, 0)
    return GroupRingModule(side, n, gens, c,
                           [ChainMap.identity(c) for _ in gens])


def test_tensor_over_trivial_group():
    mr = trivial_module(Z, 2, [], "right", "a")
    ml = trivial_module(Z, 2, [], "left", "b")
    t, proj = tensor_over_group_ring(mr, ml)
    assert t.dim(0) == 1


def test_tensor_of_trivials_over_z2():
    gens = [Perm((2, 1))]
    mr = trivial_module(Z, 2, gens, "right", "a")
    ml = trivial_module(Z, 2, gens, "left", "b")
    t, proj = tensor_over_group_ring(mr, ml)
    assert homology(t, 0).format() == "Z"


def test_free_module_cancellation():
    gens = [Perm((2, 1))]
    reg = regular_module(Z, 2, gens)
    ml = trivial_module(Z, 2, gens, "left", "b")
    t, proj = tensor_over_group_ring(reg, ml)
    assert t.dim(0) == 1
    assert homology(t, 0).format() == "Z"


def test_tensor_regular_against_regular_is_regular():
    # free right module cancellation: M (x)_{R[G]} R[G] ~ M
    gens = [Perm((2, 1))]
    t, proj = tensor_over_group_ring(regular_module(Z, 2, gens),
                                     regular_module(Z, 2, gens, "left"))
    assert t.dim(0) == 2


# -- freeness ----------------------------------------------------------------------

def test_regular_representation_is_free():
    gens = [Perm((2, 1))]
    rep = is_free_module(regular_module(Z, 2, gens))
    assert rep.free
    assert len(rep.orbit_reps) == 1


def test_trivial_action_not_free():
    gens = [Perm((2, 1))]
    rep = is_free_module(trivial_module(Z, 2, gens, "right"))
    assert not rep.free


def test_swap_two_generators_free():
    gens = [Perm((2, 1))]
    c = ChainComplex.free(Z, {0: ["x", "y"]}, {})
    m = swap_map(c, "x", "y")
    mod = GroupRingModule("right", 2, gens, c, [m])
    rep = is_free_module(mod)
    assert rep.free and len(rep.orbit_reps) == 1


def test_non_permutation_action_rejected():
    gens = [Perm((2, 1))]
    c = ChainComplex.free(Q, {0: ["x", "y"]}, {})
    m = Mat.from_rows(Q, [[0, 1], [1, 0]])
    shear = Mat.from_rows(Q, [[1, 1], [0, 1]])
    shear_inv = Mat.from_rows(Q, [[1, -1], [0, 1]])
    f = ChainMap(c, c, 0, {0: shear.mul(m).mul(shear_inv)})
    mod = GroupRingModule("right", 2, gens, c, [f])
    with pytest.raises(NonPermutationAction):
        is_free_module(mod)


# -- functoriality -------------------------------------------------------------------

def test_equivariant_map_descends_and_composes():
    gens = [Perm((2, 1))]
    c1 = ChainComplex.free(Z, {0: ["x", "y"]}, {})
    c2 = ChainComplex.free(Z, {0: ["u", "v"]}, {})
    a1 = GroupAction(2, gens, c1, [swap_map(c1, "x", "y")])
    a2 = GroupAction(2, gens, c2, [swap_map(c2, "u", "v")])
    f = ChainMap.from_label_fn(c1, c2, 0,
                               lambda l: [("u" if l == "x" else "v", 1)])
    g = ChainMap.from_label_fn(c2, c2, 0, lambda l: [("u", 1), ("v", 1)])
    desc_f, (qs, ps), (qt, pt) = descend_to_coinvariants(a1, a2, f)
    assert pt.compose(f).eq(desc_f.compose(ps))
    desc_g, _, _ = descend_to_coinvariants(a2, a2, g)
    desc_gf, _, _ = descend_to_coinvariants(a1, a2, g.compose(f))
    assert desc_gf.eq(desc_g.compose(desc_f))


# -- groups of order > 2 -------------------------------------------------------------

S3_GENS = [Perm((2, 1, 3)), Perm((2, 3, 1))]


def _permutation_map(c, g):
    """g acting on the labels e1, e2, e3 of c by e_i -> e_{g(i)}."""
    return ChainMap.from_label_fn(c, c, 0, lambda l: [(f"e{g(int(l[1]))}", 1)])


def test_s3_action_maps_every_element():
    # the closure starts from the generators; it used to stop at them
    c = ChainComplex.free(Z, {0: ["e1", "e2", "e3"]}, {})
    act = GroupAction(3, S3_GENS, c, [_permutation_map(c, g) for g in S3_GENS])
    assert len(act.elements) == 6
    for g in act.elements:
        assert act.map_of(g).eq(_permutation_map(c, g)), g
    act.check_consistency()
    q, _ = coinvariants(act)
    assert q.total_dim() == 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_s3_group_ring_module_maps_every_element(side):
    c = ChainComplex.free(Q, {0: ["e1", "e2", "e3"]}, {})
    # a right action m.g is the left action of g^{-1}
    gen_maps = [_permutation_map(c, g if side == "left" else g.inverse())
                for g in S3_GENS]
    mod = GroupRingModule(side, 3, S3_GENS, c, gen_maps)
    for g in enumerate_group(S3_GENS, 3):
        want = _permutation_map(c, g if side == "left" else g.inverse())
        assert mod.map_of(g).eq(want), g


def test_s3_regular_against_trivial_is_z():
    reg = regular_module(Z, 3, S3_GENS)
    t, _ = tensor_over_group_ring(reg, trivial_module(Z, 3, S3_GENS, "left", "b"))
    assert t.dim(0) == 1
    assert homology(t, 0).format() == "Z"


def test_s3_regular_against_regular_is_regular():
    t, _ = tensor_over_group_ring(regular_module(Z, 3, S3_GENS),
                                  regular_module(Z, 3, S3_GENS, "left"))
    assert t.total_dim() == t.dim(0) == 6


def test_s3_regular_right_module_is_free():
    # a right module is read as it is: its orbits are those of its inverse
    # left action
    rep = is_free_module(regular_module(Z, 3, S3_GENS))
    assert rep.free
    assert rep.orbit_reps == [(0, "id")]


def test_s3_permutation_module_is_not_free():
    c = ChainComplex.free(Z, {0: ["e1", "e2", "e3"]}, {})
    mod = GroupRingModule("right", 3, S3_GENS, c,
                          [_permutation_map(c, g.inverse()) for g in S3_GENS])
    rep = is_free_module(mod)
    assert not rep.free
    assert "orbit of size 3 < 6" in rep.reason


@pytest.mark.parametrize("bad", ["degree_1", "other_complex"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_group_ring_module_rejects_maps_that_are_not_degree_0_self_maps(side, bad):
    c = ChainComplex.free(Z, {0: ["x"], 1: ["y"]}, {})
    if bad == "degree_1":
        m = ChainMap(c, c, 1, {0: Mat.from_rows(Z, [[1]])})
    else:
        m = ChainMap.identity(ChainComplex.free(Z, {0: ["x"], 1: ["y"]}, {}))
    # check=False: the maps are rejected before any relation is checked
    with pytest.raises(NonPermutationAction, match="degree-0 self-maps"):
        GroupRingModule(side, 2, [Perm((2, 1))], c, [m], check=False)
