import math
import random
from fractions import Fraction

import pytest

from opbar import barcat, linalg
from opbar.barcat import (
    BarBimoduleComplex,
    _free_quotient,
    cat_left_kan,
    complete_tower,
    group_bar_complex,
    hv_pushout_check,
    reduce_complex,
    reduce_map,
    telescope_vs_hocolim,
    two_sided_bar,
)
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, _sliced, cone, homology, is_quasi_iso
from opbar.dgcat import (
    DgCategory,
    DgFunctor,
    group_ring_category,
    poset_category,
    pullback_right_module,
    table_category,
    trivial_left_module,
    trivial_right_module,
    under_functor_left_module,
    functor_right_module,
)
from opbar.errors import EngineError, NonCommutingSquare
from opbar.lincomb import add_into, eq as lc_eq
from opbar.linalg import Mat
from opbar.symgrp import Perm

from .genutil import NOVIKOV_RINGS, cyclic_group_homology_oracle, full_cone_quasi_iso_oracle, \
    novikov_conjugate, plus_lone, random_chain_map, \
    random_complex, random_novikov_acyclic, random_novikov_element, random_two_term

Z = Ring.Z()
Q = Ring.Q()


def test_dg_category_builders_validate():
    assert group_ring_category(Z, 2, [Perm((2, 1))]).validate() is None
    assert poset_category(Z, 2).validate() is None


def test_bar_levels_and_identities():
    bar = group_bar_complex(Z, 2, [Perm((2, 1))], 3)
    # levels have rank 2^n (unreduced bar of Z[Z/2] between trivial modules)
    for n in range(0, 4):
        assert bar.simplicial.level(n).dim(n * 0) == 2 ** n


def test_group_homology_z2():
    bar = group_bar_complex(Z, 2, [Perm((2, 1))], 5)
    want = {0: "Z", 1: "Z/2", 2: "0", 3: "Z/2"}
    for deg, expect in want.items():
        assert deg in bar.realized.reliable_degrees
        got = homology(bar.complex, deg)
        assert got.format() == expect
        rank, torsion = cyclic_group_homology_oracle(2, deg)
        oracle = ("Z" if rank == "Z" else "") or ""
        # oracle cross-check
        if deg == 0:
            assert got.free_rank == 1 and not got.invariant_factors
        elif deg % 2 == 1:
            assert got.free_rank == 0 and got.invariant_factors == [2]
        else:
            assert got.is_zero()


def test_group_homology_z3():
    gens = [Perm((2, 3, 1))]
    bar = group_bar_complex(Z, 3, gens, 3)
    assert homology(bar.complex, 1).invariant_factors == [3]
    rank, torsion = cyclic_group_homology_oracle(3, 1)
    assert torsion == [3]


def test_group_homology_s3_degree_3():
    # H_3(S_3; Z) = Z/6 (the 2- and 3-primary parts, Z/2 and Z/3); H_3 needs
    # only C_2, C_3 and C_4, all complete at n_max = 4
    gens = [Perm((2, 1, 3)), Perm((2, 3, 1))]
    bar = group_bar_complex(Z, 3, gens, 4)
    assert bar.complex.d_mat(4).nrows == 216 and bar.complex.d_mat(4).ncols == 1296
    h = homology(bar.complex, 3)
    assert h.free_rank == 0 and h.invariant_factors == [6]


@pytest.mark.parametrize("ring", [Z, Ring.Fp(3)], ids=repr)
@pytest.mark.parametrize("gens", [[Perm((2, 3, 1))], [Perm((2, 1, 3)), Perm((2, 3, 1))]],
                         ids=["z3", "s3"])
def test_group_bar_homology_is_stable_on_reliable_degrees(ring, gens):
    """The stabilization oracle, which assumes no window formula: on every
    reliable degree of the n_max build, homology equals that of the
    n_max + 1 build (n_max 2, 3 and 4)."""
    bars = {n: group_bar_complex(ring, 3, gens, n) for n in range(2, 6)}
    for n in range(2, 5):
        degrees = bars[n].realized.reliable_degrees
        assert degrees
        for d in degrees:
            assert homology(bars[n].complex, d).as_dict() == \
                homology(bars[n + 1].complex, d).as_dict(), (n, d)


def _v4_homology_oracle(degree: int):
    """H_degree((Z/2)^2; Z) by Kunneth from H_*(Z/2; Z) = Z, Z/2, 0, Z/2, ...:
    Z in degree 0, (Z/2)^((n+3)/2) for odd n and (Z/2)^(n/2) for even n > 0."""
    if degree == 0:
        return ("Z", [])
    return ("0", [2] * ((degree + 3) // 2 if degree % 2 else degree // 2))


@pytest.mark.parametrize("n, gens, n_max, oracle", [
    (4, [Perm((2, 3, 4, 1))], 5, lambda d: cyclic_group_homology_oracle(4, d)),
    (4, [Perm((2, 1, 3, 4)), Perm((1, 2, 4, 3))], 4, _v4_homology_oracle),
    (5, [Perm((2, 3, 1, 5, 4))], 4, lambda d: cyclic_group_homology_oracle(6, d)),
], ids=["z4", "v4", "z6"])
def test_group_homology_composite_torsion(n, gens, n_max, oracle):
    """Groups of order 4 and 6 whose torsion is composite: Z/4 against Z/2 +
    Z/2 in H_1, and Z/6 from a 3-cycle times a disjoint transposition."""
    bar = group_bar_complex(Z, n, gens, n_max)
    degrees = [d for d in bar.realized.reliable_degrees if d >= 0]
    assert degrees == list(range(n_max - 1))
    for deg in degrees:
        h = homology(bar.complex, deg)
        free, torsion = oracle(deg)
        assert (h.free_rank, h.invariant_factors) == (int(free == "Z"), torsion)


def test_group_homology_rational_vanishes():
    bar = group_bar_complex(Q, 2, [Perm((2, 1))], 5)
    assert homology(bar.complex, 0).format() == "k^1"
    for deg in (1, 2, 3):
        assert homology(bar.complex, deg).is_zero()


def test_bar_acyclicity_onto_module():
    # B(M, A, A) -> M is a quasi-isomorphism (extra degeneracy)
    C = group_ring_category(Z, 2, [Perm((2, 1))])
    Mr = trivial_right_module(C)
    # left module A = the category acting on itself: hom complexes
    from opbar.dgcat import corepresented_right_module
    star = C.objects[0]
    # regular left module: L(a) = C(a, *) with action by precomposition
    idf = DgFunctor.identity(C)
    L = under_functor_left_module(idf, star)
    bar = two_sided_bar(Mr, C, L, 4)
    p, f, q, tensor, const = bar.augmentation_maps()
    assert q.compose(f).eq(p)
    window = [d for d in bar.realized.reliable_degrees if d >= 0]
    assert is_quasi_iso(p, window).ok


S3_GENS = [Perm((2, 1, 3)), Perm((2, 3, 1))]


def _s3_augmentation(ring, module):
    """(p, window): the augmentation of B(k, k[S_3], M) onto k (x)_{k[S_3]} M
    at n_max 3, M trivial or regular, and its window of reliable degrees
    >= 0."""
    C = group_ring_category(ring, 3, S3_GENS)
    Ml = trivial_left_module(C) if module == "trivial" else \
        under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    bar = two_sided_bar(trivial_right_module(C), C, Ml, 3)
    return bar.augmentation_maps()[0], [d for d in bar.realized.reliable_degrees
                                        if d >= 0]


@pytest.mark.parametrize("ring,module,ok", [
    (Q, "trivial", True), (Q, "regular", True), (Z, "regular", True),
    (Z, "trivial", False)], ids=["q_trivial", "q_regular", "z_regular", "z_trivial"])
def test_s3_augmentation_verdicts_match_the_full_cone(ring, module, ok):
    """B(k, k[S_3], k[S_3]) ~ k always, B(k, k[S_3], k) ~ k only rationally:
    over Z the cone has H_1 = H_1(S_3) = Z/2.  The windowed cone agrees
    with the full one, whose top level no tested degree reads."""
    p, window = _s3_augmentation(ring, module)
    got = is_quasi_iso(p, window)
    assert (got.ok, got.witness) == full_cone_quasi_iso_oracle(p, window)
    assert got.ok == ok
    if not ok:
        assert got.witness["cone_homology"] == "Z/2"


def test_quasi_iso_ranks_each_cone_differential_once(monkeypatch):
    """On the regular S_3 bar over Q, `field_rank` runs once per cone
    differential that the window [a, b] reads: d_a .. d_{b+2}."""
    p, window = _s3_augmentation(Q, "regular")
    ranked = []
    field_rank = linalg.field_rank
    monkeypatch.setattr(linalg, "field_rank", lambda m: ranked.append(m) or field_rank(m))
    assert is_quasi_iso(p, window).ok
    a, b = window[0], window[-1]
    cn = cone(p, range(a - 1, b + 3))
    assert len(ranked) == b - a + 3
    assert ranked == [cn.d_mat(e) for e in range(a, b + 3)]


def test_augmentation_triangle_on_group_bar():
    bar = group_bar_complex(Z, 2, [Perm((2, 1))], 3)
    p, f, q, tensor, const = bar.augmentation_maps()
    assert q.compose(f).eq(p)
    assert tensor.dim(0) == 1  # Z (x)_{Z[G]} Z = Z


# -- the structure maps against the labels -------------------------------------------

def _image_by_labels(bar, kind, i, label):
    """The image of a bar label under the level differential (kind "d"),
    face d_i ("face") or degeneracy s_i ("degen"), read off its keys alone:
    the actions and compositions of the modules and the category, their
    differentials and units."""
    Mr, C, Ml = bar.Mr, bar.C, bar.Ml
    ring = C.ring
    _, m, us, y = label
    n = len(us)
    out = {}

    def put(m2, us2, y2, v):
        add_into(ring, out, ("bar", m2, us2, y2), v)
    if kind == "degen":  # the unit at the object where c_i ends
        put(m, us[:i] + (C.unit_key(m[0] if i == 0 else us[i - 1][1]),) + us[i:],
            y, ring.one)
    elif kind == "d":  # Leibniz, signed by the degrees before each key
        keys, pre = (m,) + us + (y,), 0
        for t, k in enumerate(keys):
            inner = 0 < t <= n
            diff = C.diff_key if inner else Mr.diff_key if t == 0 else Ml.diff_key
            for k2, v in diff(k).items():
                new = keys[:t] + (k2,) + keys[t + 1:]
                put(new[0], new[1:-1], new[-1], ring.neg(v) if pre % 2 else v)
            pre += k[2] if inner else k[1]
    elif i == 0:
        for k, v in Mr.act_key(m, us[0]).items():
            put(k, us[1:], y, v)
    elif i == n:
        for k, v in Ml.act_key(us[-1], y).items():
            put(m, us[:-1], k, v)
    else:
        for k, v in C.compose_keys(us[i - 1], us[i]).items():
            put(m, us[:i - 1] + (k,) + us[i + 1:], y, v)
    return out


def _check_against_labels(bar):
    """Every column of every level differential, face and degeneracy of bar
    equals `_image_by_labels`; returns {kind: columns checked}."""
    simp, ring = bar.simplicial, bar.C.ring
    maps = [("d", None, simp.level(n), simp.level(n), simp.level(n).diff, -1)
            for n in range(bar.n_max + 1)]
    maps += [("face", i, simp.level(n), simp.level(n - 1), simp.face(n, i).mats, 0)
             for n in range(1, bar.n_max + 1) for i in range(n + 1)]
    maps += [("degen", i, simp.level(n), simp.level(n + 1), simp.degen(n, i).mats, 0)
             for n in range(bar.n_max) for i in range(n + 1)]
    checked = {}
    for kind, i, src, tgt, mats, shift in maps:
        for d in src.degrees():
            rows = tgt.labels(d + shift)
            cols = mats[d].columns() if d in mats else {}
            for j, label in enumerate(src.labels(d)):
                got = {rows[r]: v for r, v in cols.get(j, {}).items()}
                want = _image_by_labels(bar, kind, i, label)
                assert lc_eq(ring, got, want), (kind, i, label, got, want)
                checked[kind] = checked.get(kind, 0) + 1
    return checked


def _telescope_bar():
    """The hocolim bar of b -> a under 2: d_0 multiplies by 2, and the
    level differentials are the complex's."""
    c = ChainComplex.free(Z, {0: ["a"], 1: ["b"]}, {(1, "b", "a"): 1})
    two = ChainMap(c, c, 0, {0: Mat.from_rows(Z, [[2]]), 1: Mat.from_rows(Z, [[2]])})
    return telescope_vs_hocolim([c, c, c], [two, two], 3).hocolim


def _regular_s3_bar():
    C = group_ring_category(Q, 3, [Perm((2, 1, 3)), Perm((2, 3, 1))])
    regular = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    return two_sided_bar(trivial_right_module(C), C, regular, 3)


def _poset_bar():
    P = poset_category(Z, 2)
    Ml = under_functor_left_module(DgFunctor.identity(P), 2)
    return BarBimoduleComplex(trivial_right_module(P), P, Ml, 3)


@pytest.mark.parametrize("build,row_faces", [
    (lambda: group_bar_complex(Z, 3, [(2, 3, 1)], 5), True),
    (_regular_s3_bar, True),
    (_telescope_bar, False),
    (_poset_bar, True),
], ids=["z3_z", "s3_regular_q", "telescope_z", "poset_z"])
def test_faces_and_degeneracies_match_the_label_formulas(build, row_faces):
    bar = build()
    checked = _check_against_labels(bar)
    assert checked["face"] and checked["degen"] and checked["d"]
    simp, ring = bar.simplicial, bar.C.ring
    faces = [m for f in simp.faces.values() for m in f.mats.values()]
    # a row map has one entry 1 per column; the telescope's d_0 has 2s
    assert all(linalg.column_form(ring, m)[2] is not None for m in faces) == row_faces
    if not row_faces:
        assert any(simp.level(n).diff for n in range(bar.n_max + 1))


@pytest.mark.parametrize("ring,row_face", [(Z, False), (Q, False), (Ring.Fp(2), True)],
                         ids=["z", "q", "f2"])
def test_a_minus_one_hit_is_no_unit_of_the_face_table(ring, row_face, monkeypatch):
    # the hocolim bar of c -> c under -id: d_0 of level 1 pushes m along u0_1
    # to -m, a single hit with coefficient -1, which only over F_2 is one
    made, real = [], barcat.row_map

    def recording(*args):
        made.append(real(*args))
        return made[-1]
    monkeypatch.setattr(barcat, "row_map", recording)
    c = ChainComplex.free(ring, {0: ["a"], 1: ["b"]}, {(1, "b", "a"): 1})
    bar = telescope_vs_hocolim([c, c], [ChainMap.identity(c).neg()], 2).hocolim
    _check_against_labels(bar)
    d0 = bar.simplicial.face(1, 0).mats.values()
    assert d0 and all(any(m is r for r in made) == row_face for m in d0)
    minus_one = {v for m in d0 for v in m.d.values()} - {ring.one}
    assert minus_one == (set() if row_face else {ring.from_int(-1)})


# -- cat_left_kan ---------------------------------------------------------------

def test_cat_left_kan_identity_functor():
    C = poset_category(Z, 1)
    idf = DgFunctor.identity(C)
    R = trivial_right_module(C)
    kan = cat_left_kan(idf, R, 3)
    for c in C.objects:
        bar = kan.bars[c]
        window = [d for d in bar.realized.reliable_degrees if d >= 0]
        # B(R, C, C(-, c)) ~ R(c): homology = Z in degree 0
        assert homology(bar.complex, 0).format() == "Z"
        for d in window:
            if d > 0:
                assert homology(bar.complex, d).is_zero()


def test_cat_left_kan_poset_to_point():
    # p: {0 -> 1} -> point, R given by kappa: C0 -> C1
    A = poset_category(Q, 1)
    P = poset_category(Q, 0)
    p = DgFunctor(A, P, {0: 0, 1: 0},
                  lambda F, k: {(0, 0, 0, "u0_0"): Q.one})
    assert p.validate() is None
    C0 = random_two_term(random.Random(3), Q, tag="c0")
    C1 = random_two_term(random.Random(4), Q, tag="c1")
    # kappa: a quasi-iso built as identity-like on a shared shape
    C1 = C0.relabel(lambda l: ("c1", l))
    kappa = ChainMap.from_label_fn(C0, C1, 0, lambda l: [(("c1", l), 1)])
    R = functor_right_module(
        A, {0: C0, 1: C1},
        {(0, 0, "u0_0"): ChainMap.identity(C0),
         (1, 1, "u1_1"): ChainMap.identity(C1),
         (0, 1, "u0_1"): kappa})
    assert R.validate() is None
    kan = cat_left_kan(p, R, 4)
    bar = kan.bars[0]
    window = [d for d in bar.realized.reliable_degrees
              if min(C0.degrees()) <= d <= 1]
    # quasi-isomorphic to C1 when kappa is a quasi-iso
    inc = ChainMap.from_label_fn(
        C1, bar.complex, 0,
        lambda l: [(("lv", 0, ("bar", (1, C1.degree_of(l), l), (),
                               (1, 0, "u0_0"))), 1)])
    assert is_quasi_iso(inc, window).ok


def test_cat_left_kan_evaluation_functoriality():
    C = poset_category(Z, 2)
    idf = DgFunctor.identity(C)
    R = trivial_right_module(C)
    kan = cat_left_kan(idf, R, 2)
    u01 = (0, 1, 0, "u0_1")
    u12 = (1, 2, 0, "u1_2")
    u02 = (0, 2, 0, "u0_2")
    act01 = kan.action(u01)
    act12 = kan.action(u12)
    act02 = kan.action(u02)
    assert act12.compose(act01).eq(act02)


# -- telescope vs hocolim ----------------------------------------------------------

def test_telescope_constant_sequence():
    c = ChainComplex.single(Z, "a", 0)
    ids = [ChainMap.identity(c), ChainMap.identity(c)]
    rep = telescope_vs_hocolim([c, c, c], ids, 4)
    assert rep.verdict.ok
    assert homology(rep.telescope, 0).format() == "Z"


def test_telescope_times_two_sequence():
    c = ChainComplex.single(Z, "a", 0)
    tw = ChainMap(c, c, 0, {0: Mat.from_rows(Z, [[2]])})
    rep = telescope_vs_hocolim([c, c, c], [tw, tw], 4)
    assert rep.verdict.ok
    assert homology(rep.telescope, 0).format() == "Z"
    assert homology(rep.hocolim.complex, 0).format() == "Z"


def test_telescope_random_sequences():
    rng = random.Random(21)
    for _ in range(6):
        length = rng.randint(1, 3)
        cs = [random_two_term(rng, Z, tag=f"s{t}_") for t in range(length + 1)]
        maps = []
        ok = True
        for t in range(length):
            # random map: compose through a common retract shape; use zero or
            # identity-like maps to guarantee chain-map property
            if cs[t].basis == cs[t + 1].basis and rng.random() < 0.5:
                maps.append(ChainMap.identity(cs[t]))
            else:
                maps.append(ChainMap.zero(cs[t], cs[t + 1]))
        rep = telescope_vs_hocolim(cs, maps, 4)
        assert rep.verdict.ok


# -- Hollender-Vogt ------------------------------------------------------------------

def _point_cat(ring):
    return poset_category(ring, 0)


def test_hv_identity_square():
    C = poset_category(Z, 1)
    idf = DgFunctor.identity(C)
    X = trivial_right_module(C)
    rep = hv_pushout_check(idf, idf, idf, idf, X, 3)
    assert rep.verdict1 and rep.verdict2
    assert rep.implication_holds


def test_hv_point_square():
    # A = b = {*}, C = D: pushout reduces to bar acyclicity
    P = _point_cat(Z)
    C = poset_category(Z, 1)
    inc = DgFunctor(P, C, {0: 0}, lambda F, k: {(0, 0, 0, "u0_0"): Z.one})
    idp = DgFunctor.identity(P)
    idc = DgFunctor.identity(C)
    X = trivial_right_module(P)
    rep = hv_pushout_check(idp, inc, idc, inc, X, 3)
    assert rep.verdict1 and rep.verdict2


def test_hv_planted_failure():
    # D has an extra endomorphism not hit by the pushout
    ring = Z
    P = _point_cat(Z)
    idp = DgFunctor.identity(P)
    Dhom = ChainComplex.free(ring, {0: ["e", "tau"]}, {})
    comp = {("e", "e"): [(1, "e")], ("e", "tau"): [(1, "tau")],
            ("tau", "e"): [(1, "tau")], ("tau", "tau"): [(0, "e")]}
    D = table_category(ring, ["*"], {("*", "*"): {0: ["e", "tau"]}}, {},
                       comp, {"*": "e"}, name="D_extra")
    assert D.validate() is None
    to_d = DgFunctor(P, D, {0: "*"}, lambda F, k: {("*", "*", 0, "e"): ring.one})
    assert to_d.validate() is None
    X = trivial_right_module(P)
    rep = hv_pushout_check(idp, idp, to_d, to_d, X, 3)
    assert not rep.verdict1
    assert rep.implication_holds


def test_hv_square_must_commute():
    P = _point_cat(Z)
    C = poset_category(Z, 1)
    inc0 = DgFunctor(P, C, {0: 0}, lambda F, k: {(0, 0, 0, "u0_0"): Z.one})
    inc1 = DgFunctor(P, C, {0: 1}, lambda F, k: {(1, 1, 0, "u1_1"): Z.one})
    idc = DgFunctor.identity(C)
    X = trivial_right_module(P)
    with pytest.raises(NonCommutingSquare):
        hv_pushout_check(idp := DgFunctor.identity(P), inc0, idc, inc1, X, 2)


# -- completion towers ----------------------------------------------------------------

def test_completion_tower_identity():
    nov = Ring.novikov(Q, 2, 2)
    c = ChainComplex.free(nov, {0: ["y"], 1: ["x"]},
                          {(1, "x", "y"): nov.one})
    idm = ChainMap.identity(c)
    rep = complete_tower(idm, [Fraction(1, 2), 1, 2], range(0, 2))
    assert rep.all_quasi_iso
    assert not rep.flags


def test_completion_tower_needs_a_cutoff():
    nov = Ring.novikov(Q, 2, 2)
    idm = ChainMap.identity(ChainComplex.single(nov, "y"))
    with pytest.raises(ValueError, match="^need at least one cutoff$"):
        complete_tower(idm, [], range(0, 2))
    with pytest.raises(ValueError, match="^need cutoff > 0$"):
        complete_tower(idm, [0, 2], range(0, 2))


def test_completion_tower_unit_deformation():
    nov = Ring.novikov(Q, 2, 1)
    c = ChainComplex.free(nov, {0: ["y"], 1: ["x"]},
                          {(1, "x", "y"): nov.one})
    one_plus_t = nov.add(nov.one, nov.monomial(1, 1))
    f = ChainMap(c, c, 0, {0: Mat(nov, 1, 1, {(0, 0): one_plus_t}),
                           1: Mat(nov, 1, 1, {(0, 0): one_plus_t})})
    rep = complete_tower(f, [1, 2], range(0, 2))
    assert rep.all_quasi_iso


def test_completion_tower_flags_torsion():
    nov = Ring.novikov(Q, 2, 1)
    dx = nov.monomial(1, 1)  # d = T: homology Lambda/T at each level
    c = ChainComplex.free(nov, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): dx})
    idm = ChainMap.identity(c)
    rep = complete_tower(idm, [1, 2], range(0, 2))
    assert rep.flags  # zero-divisor differential entries are flagged
    assert rep.all_quasi_iso  # the identity is still a quasi-iso levelwise


def test_reduce_complex_cutoff():
    nov = Ring.novikov(Q, 2, 1)
    dx = nov.add(nov.one, nov.monomial(1, 1))
    c = ChainComplex.free(nov, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): dx})
    red = reduce_complex(c, 1)
    assert red.ring.cutoff == 1
    assert red.d_mat(1).get(0, 0) == red.ring.one


def _per_entry(mats, ring, fn):
    """The nonzero {d: m} of fn applied to every entry, over ring: the
    per-entry oracle of reduce_complex, reduce_map and residues."""
    out = {d: m.map_ring(ring, fn) for d, m in mats.items()}
    return {d: m for d, m in out.items() if not m.is_zero()}


@pytest.mark.parametrize("name", NOVIKOV_RINGS)
def test_reduce_and_residue_match_the_per_entry_oracles(name):
    nov = NOVIKOV_RINGS[name]
    rng = random.Random(f"tower:{name}")
    C = random_novikov_acyclic(rng, nov)
    g = novikov_conjugate(rng, C)[1]
    u = nov.add(nov.one, random_novikov_element(rng, nov, 1))
    f = ChainMap(C, C, 0, {d: Mat.identity(nov, C.dim(d)).scale(u)
                           for d in C.degrees()})
    q = nov.grid
    # every cutoff on the grid and halfway between, up to the ring's
    cutoffs = [Fraction(k, 2 * q) for k in range(1, int(2 * q * nov.cutoff) + 1)]
    for fmap in (f, g):
        for c in cutoffs:
            new = nov.at_cutoff(c)
            red = reduce_map(fmap, c)
            assert (red.source is red.target) == (fmap is f)
            for got, orig in ((red.source, fmap.source), (red.target, fmap.target),
                              (reduce_complex(fmap.source, c), fmap.source)):
                assert got.ring == new and got.basis == orig.basis
                assert got.diff == _per_entry(orig.diff, new,
                                              lambda v: nov.reduce_cutoff(v, c))
            assert red.mats == _per_entry(fmap.mats, new,
                                          lambda v: nov.reduce_cutoff(v, c))
        res = _sliced(fmap, nov.base)
        assert (res.source is res.target) == (fmap is f)
        for got, orig in ((res.source, fmap.source), (res.target, fmap.target),
                          (_sliced(fmap.source, nov.base), fmap.source)):
            assert got.ring == nov.base and got.basis == orig.basis
            assert got.diff == _per_entry(orig.diff, nov.base, nov.residue)
        assert res.mats == _per_entry(fmap.mats, nov.base, nov.residue)


def test_seeded_tower_verdicts_and_flags():
    """A seeded complex with homology (an acyclic one plus a lone generator):
    (1 + T^(1/2)) id is a quasi-isomorphism at every cutoff and T^(1/2) id at
    none; every differential of source and target is flagged."""
    nov = Ring.novikov(Q, 2, 2)
    C = random_novikov_acyclic(random.Random("seeded tower"), nov)
    C = plus_lone(C, 0)
    cutoffs = [Fraction(1, 2), 1, Fraction(3, 2), 2]
    t = nov.monomial(1, Fraction(1, 2))
    for u, ok in ((nov.add(nov.one, t), True), (t, False)):
        f = ChainMap(C, C, 0, {d: Mat.identity(nov, C.dim(d)).scale(u)
                               for d in C.degrees()})
        rep = complete_tower(f, cutoffs, range(-2, 4))
        assert list(rep.verdicts) == cutoffs
        assert [v.ok for v in rep.verdicts.values()] == [ok] * 4
        assert len(rep.flags) == 2 * len(C.diff) == 4
        if not ok:
            assert {v.witness["degree"] for v in rep.verdicts.values()} == {0}


def _flag_oracle(fmap):
    """The flags of `complete_tower`, from one `Ring.valuation` per entry."""
    ring = fmap.source.ring
    return [f"{side} differential in degree {d} has an entry of positive valuation"
            for side, cpx in (("source", fmap.source), ("target", fmap.target))
            for d, m in cpx.diff.items()
            if any(ring.valuation(v) > 0 for v in m.d.values())]


@pytest.mark.parametrize("name", NOVIKOV_RINGS)
def test_tower_flags_match_the_per_entry_valuation_oracle(name):
    """One flag per differential with an entry of positive valuation, as the
    per-entry oracle finds them: none for a differential of units, one for
    a pure T^(k/q) entry (below the cutoff when there is a grid step k >= 1),
    and the oracle's on seeded complexes with mixed valuations."""
    nov = NOVIKOV_RINGS[name]
    rng = random.Random(f"tower flags:{name}")
    steps = math.ceil(nov.cutoff * nov.grid)
    t = nov.monomial(1, Fraction(steps - 1, nov.grid))  # 1 when steps == 1
    units = ChainComplex.free(nov, {0: ["y0", "y1"], 1: ["x"]},
                              {(1, "x", "y0"): nov.add(nov.one, t),
                               (1, "x", "y1"): nov.from_int(-1)})
    pure = ChainComplex.free(nov, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): t})
    rep = complete_tower(ChainMap.zero(units, pure), [nov.cutoff], range(-1, 3))
    assert [str(x) for x in rep.flags] == (
        ["target differential in degree 1 has an entry of positive valuation"]
        if steps > 1 else [])
    maps = [ChainMap.zero(units, pure)]
    for k in range(4):
        maps.append(random_chain_map(rng, nov, tag=f"m{k}"))
        maps.append(ChainMap.zero(random_novikov_acyclic(rng, nov, tag=f"a{k}"),
                                  random_novikov_acyclic(rng, nov, tag=f"b{k}")))
    seen = set()
    for f in maps:
        want = _flag_oracle(f)
        assert [str(x) for x in complete_tower(f, [nov.cutoff], range(-1, 3)).flags] == want
        seen.add(bool(want))
    assert seen == ({True, False} if steps > 1 else {False})


@pytest.mark.parametrize("unit", [True, False], ids=["one_plus_t", "t"])
def test_tower_decides_once_and_agrees_with_each_cutoff(monkeypatch, unit):
    """`complete_tower` calls `is_quasi_iso` once; its verdict at every
    cutoff is that of `is_quasi_iso` on the map reduced to the cutoff, for
    (1 + T^(1/2)) id and for T^(1/2) id, which is not invertible."""
    nov = Ring.novikov(Q, 2, 2)
    C = random_novikov_acyclic(random.Random("seeded tower"), nov)
    C = plus_lone(C, 0)
    t = nov.monomial(1, Fraction(1, 2))
    u = nov.add(nov.one, t) if unit else t
    f = ChainMap(C, C, 0, {d: Mat.identity(nov, C.dim(d)).scale(u)
                           for d in C.degrees()})
    cutoffs, window = [Fraction(1, 2), 1, Fraction(3, 2), 2], range(-2, 4)
    calls = []
    monkeypatch.setattr(barcat, "is_quasi_iso",
                        lambda *a: calls.append(a) or is_quasi_iso(*a))
    rep = complete_tower(f, cutoffs, window)
    assert len(calls) == 1
    for c in cutoffs:
        want = is_quasi_iso(reduce_map(f, c) if c != 2 else f, window)
        assert want.ok == unit
        assert (rep.verdicts[c].ok, rep.verdicts[c].witness) == (want.ok, want.witness)
    with pytest.raises(ValueError, match="cutoff > 0"):
        complete_tower(f, [0, 2], window)


def _z_triangle():
    """The simplicial 2-simplex over Z: vertices a, b, c, edges x = [a, b],
    y = [b, c], z = [a, c] and the face t, with d t = x + y - z."""
    d1 = Mat.from_rows(Z, [[-1, 0, -1], [1, -1, 0], [0, 1, 1]])
    d2 = Mat.from_rows(Z, [[1], [1], [-1]])
    basis = {0: ["a", "b", "c"], 1: ["x", "y", "z"], 2: ["t"]}
    return ChainComplex(Z, "Z", basis, {1: d1, 2: d2})


def test_free_quotient_z_general_subcomplex():
    # 2x + y - z has boundary b - a, so the span of both is a subcomplex
    # (and acyclic: d maps one onto the other), the quotient is free of
    # ranks 2, 2, 1 and has the homology of the triangle, Z in degree 0
    cpx = _z_triangle()
    quot, proj = _free_quotient(cpx, [{"x": 2, "y": 1, "z": -1},
                                      {"a": -1, "b": 1}])
    assert {d: quot.dim(d) for d in quot.degrees()} == {0: 2, 1: 2, 2: 1}
    assert quot.d_mat(1).mul(quot.d_mat(2)).is_zero()
    proj.validate()
    h0, h1, h2 = (homology(quot, d) for d in (0, 1, 2))
    assert (h0.free_rank, h0.invariant_factors) == (1, [])
    assert h1.is_zero() and h2.is_zero()


def test_free_quotient_z_general_not_subcomplex_raises():
    cpx = _z_triangle()
    with pytest.raises(EngineError, match="not a subcomplex"):
        _free_quotient(cpx, [{"x": 2, "y": 1, "z": -1}])
    with pytest.raises(EngineError, match="not a subcomplex"):
        _free_quotient(cpx, [{"x": 2, "y": 1, "z": -1},
                             {"a": 1, "b": 1, "c": 1}])
