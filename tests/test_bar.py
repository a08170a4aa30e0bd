import functools
import itertools
import math

import pytest

from opbar import bar
from opbar import fixtures as fix
from opbar.bar import KanAlgebraStructure, free_algebra, operadic_kan, \
    simplicial_kan
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, homology
from opbar.errors import EngineError, NonPermutationAction
from opbar.lincomb import add_into, eq as lc_eq, linear
from opbar.multicat import MultiCat
from opbar.simplicial import realize
from opbar.symgrp import Perm, koszul_sign

from .genutil import chain_map_sides, differential_as_map, \
    level_window_columns, realized_degree, window_columns

Z = Ring.Z()
Q = Ring.Q()


def _interval_carriers(ring):
    """C0 the interval (d e = x1 - x0, e of degree 1), C1 a point, and the
    collapse C0 -> C1: level 0 then has odd labels with nonzero boundary."""
    C0 = ChainComplex.free(ring, {0: ["x0", "x1"], 1: ["e"]},
                           {(1, "e", "x1"): 1, (1, "e", "x0"): -1})
    C1 = ChainComplex.single(ring, "c1", 0)
    kappa = ChainMap.from_label_fn(
        C0, C1, 0, lambda l: [] if l == "e" else [("c1", 1)])
    return C0, C1, kappa


def _kappa_setup(ring, operad, n_max, carriers=()):
    M, A, _ = fix.two_object_kappa(ring, *carriers)
    O = operad(ring, 3)
    pi = fix.projection_to_operad(M, O)
    simp = simplicial_kan(pi, A, n_max)
    return simp, realize(simp)


def _odd_points(ring):
    """C0 and C1 one generator each in degree 1, kappa the identity."""
    C0 = ChainComplex.single(ring, "c0", 1)
    C1 = ChainComplex.single(ring, "c1", 1)
    return C0, C1, ChainMap.from_label_fn(C0, C1, 0, lambda l: [("c1", 1)])


def _kan_structure(ring, O, n_max, carriers=()):
    M, A, _ = fix.two_object_kappa(ring, *carriers)
    return operadic_kan(fix.projection_to_operad(M, O), A, n_max)[1]


def _full_matrix_columns(structure, k):
    """The chain-map check as full matrices: d o mu(k) and mu(k) o d on the
    whole tensor_many domain, read off on the columns whose levels sum to at
    most n_max - 1, as {(zs, okey): (d mu x, mu d x)}."""
    mu = structure.mu(k)
    src, tgt = mu.source, mu.target
    dmu = differential_as_map(tgt).compose(mu)
    mud = mu.compose(differential_as_map(src))
    out = {}
    for d in src.degrees():
        rows = tgt.labels(tgt.pred(d))
        for j, (_, parts) in enumerate(src.labels(d)):
            if sum(z[1] for z in parts[:k]) > structure.simp.n_max - 1:
                continue
            out[(parts[:k], parts[k])] = tuple(
                {rows[i]: v for i, v in m.mat(d).column(j).items()}
                for m in (dmu, mud))
    return out


@pytest.mark.parametrize("ring,operad,n_max,interval,nonzero", [
    (Z, fix.sym_assoc_operad, 1, False, False),  # level 0: d mu = 0
    (Q, fix.as_operad, 2, False, True),
    (Z, fix.as_operad, 1, True, True),
])
def test_chain_map_columns_match_full_matrices(ring, operad, n_max, interval,
                                               nonzero):
    carriers = _interval_carriers(ring) if interval else ()
    structure = KanAlgebraStructure(
        *_kappa_setup(ring, operad, n_max, carriers))
    full = _full_matrix_columns(structure, 2)
    window = list(window_columns(structure, 2, n_max - 1))
    assert len(window) == len(set(window))
    assert set(level_window_columns(structure, 2, n_max - 1)) == set(full)
    assert any(lhs for lhs, _ in full.values()) == nonzero
    for col in window:
        lhs, rhs = chain_map_sides(structure, *col)
        assert lhs == full[col][0] and rhs == full[col][1], col
        assert lhs == rhs
    # the columns the arity bound drops are zero on both sides, and mu is
    # zero there
    dropped = set(full) - set(window)
    assert dropped
    for col in dropped:
        assert full[col] == ({}, {}), col
        assert _oracle_mu(structure, *col) == {}, col
    structure.check_chain_map(2)


def test_mu_keeps_full_domain():
    structure = KanAlgebraStructure(*_kappa_setup(Z, fix.sym_assoc_operad, 1))
    mu = structure.mu(2)
    real = structure.real.complex
    okeys = fix.sym_assoc_operad(Z, 3).basis_keys(("*", "*"), "*")
    assert mu.source.total_dim() == real.total_dim() ** 2 * len(okeys)
    for d in mu.source.degrees():
        for label in mu.source.labels(d):
            zs, okey = label[1][:2], label[1][2]
            want = _oracle_mu(structure, zs, okey) \
                if sum(z[1] for z in zs) <= 1 else {}
            assert mu.apply_label(d, label) == want
    # past the level or arity bound mu is zero and not stored
    assert set(structure._mu_memo) == set(structure._window(2, 1))


def test_equivariance_holds_on_odd_pairs():
    M, A, _ = fix.two_object_kappa(Z)
    pi = fix.projection_to_operad(M, fix.as_operad(Z, 3))
    real, structure = operadic_kan(pi, A, 2)
    odd = [zs for zs, _ in window_columns(structure, 2, 2)
           if all(realized_degree(structure, z) % 2 for z in zs)]
    assert odd  # the Koszul sign of the S_2 action is exercised


def _in_labels(structure, ids):
    """The realized labels of ids: the one id -> label helper of these
    tests."""
    return tuple(structure._labels[z] for z in ids)


def _mu_memo_in_labels(structure):
    """The id memo of mu as {(zs, okey): {label: coefficient}}."""
    return {(_in_labels(structure, ids), okey):
            dict(zip(_in_labels(structure, lc), lc.values()))
            for (ids, okey), lc in structure._mu_memo.items()}


class _Negated(KanAlgebraStructure):
    """mu negated on the columns (zs, okey) where bad(zs, okey) holds."""

    def _mu_body(self, ids, okey):
        out = super()._mu_body(ids, okey)
        if self.bad(_in_labels(self, ids), okey):
            out = {l: self.ring.neg(v) for l, v in out.items()}
        return out


def _first_failing(columns, sides):
    for col in columns:
        lhs, rhs = sides(*col)
        if lhs != rhs:
            return (*col, lhs, rhs)
    return None


def test_equivariance_catches_negated_key():
    simp, real = _kappa_setup(Z, fix.sym_assoc_operad, 1)
    KanAlgebraStructure(simp, real).check_equivariance(2)
    bad = _Negated(simp, real)
    bad_key = simp.calc.O.basis_keys(("*", "*"), "*")[0]
    bad.bad = lambda zs, okey: okey == bad_key
    with pytest.raises(EngineError,
                       match="^structure map is not equivariant on column ") \
            as err:
        bad.check_equivariance(2)
    w = err.value.witness
    assert set(w) == {"zs", "okey", "lhs", "rhs"}
    assert repr(w["zs"]) in str(err.value) and repr(w["okey"]) in str(err.value)
    assert not lc_eq(Z, w["lhs"], w["rhs"])
    sigma = Perm((2, 1))

    def sides(zs, okey):
        la, lb = zs
        lhs = linear(Z, lambda o: bad.mu_on_labels((lb, la), o),
                     simp.calc.O.act(sigma, okey))
        rhs = bad.mu_on_labels(zs, okey)
        if realized_degree(bad, la) % 2 and realized_degree(bad, lb) % 2:
            rhs = {l: -v for l, v in rhs.items()}
        return lhs, rhs

    assert (w["zs"], w["okey"], w["lhs"], w["rhs"]) == \
        _first_failing(window_columns(bad, 2, 1), sides)


def test_chain_map_check_names_first_failing_column():
    # mu negated where the levels sum to 1: d mu(x) flips sign while the
    # faces of d x land at level 0, where mu is untouched
    simp, real = _kappa_setup(Q, fix.as_operad, 2)
    bad = _Negated(simp, real)
    bad.bad = lambda zs, okey: sum(z[1] for z in zs) == 1
    with pytest.raises(EngineError,
                       match="^operad structure map is not a chain map on "
                             "column ") as err:
        bad.check_chain_map(2)
    w = err.value.witness
    assert set(w) == {"zs", "okey", "lhs", "rhs"}
    assert sum(z[1] for z in w["zs"]) == 1
    assert (w["zs"], w["okey"], w["lhs"], w["rhs"]) == \
        _first_failing(window_columns(bad, 2, 1),
                       functools.partial(chain_map_sides, bad))


def test_odd_carrier_is_equivariant_and_chain_map():
    # operadic_kan runs both checks
    structure = _kan_structure(Z, fix.as_operad(Z, 3), 1, _odd_points(Z))
    odd = [zs for zs, _ in window_columns(structure, 2, 1)
           if all(structure.calc.deg(z[2]) % 2 for z in zs)]
    assert odd  # the Eilenberg-Zilber sign is exercised


@functools.lru_cache(maxsize=None)
def _interval_kan_as_z():
    M, A, _ = fix.two_object_kappa(Z, *_interval_carriers(Z))
    return operadic_kan(fix.projection_to_operad(M, fix.as_operad(Z, 3)), A, 2)


def test_interval_carrier_passes_both_checks():
    real, structure = _interval_kan_as_z()  # runs both checks
    assert real.reliable_degrees == [-1, 0]
    assert homology(real.complex, -1).as_dict() == \
        {"degree": -1, "rank": 0, "torsion": []}
    assert homology(real.complex, 0).as_dict() == \
        {"degree": 0, "rank": 3, "torsion": []}


def test_interval_symas_memo_is_the_arity_graded_window():
    # symAs on the interval carrier over Z at n_max 2: the memo holds one
    # entry per column of the arity-graded equivariance window, and no key
    # past either bound
    M, A, _ = fix.two_object_kappa(Z, *_interval_carriers(Z))
    O = fix.sym_assoc_operad(Z, 3)
    real, structure = operadic_kan(fix.projection_to_operad(M, O), A, 2)
    memo = structure._mu_memo
    assert len(memo) == len(list(structure._window(2, 2))) == 5502
    for ids, _ in memo:
        assert sum(structure._level[z] for z in ids) <= 2
        assert sum(structure._arity[z] for z in ids) <= O.arity_max
    assert [homology(real.complex, d).as_dict() for d in (-1, 0)] == [
        {"degree": -1, "rank": 0, "torsion": []},
        {"degree": 0, "rank": 3, "torsion": []}]


def test_nullary_multimorphism_is_rejected(monkeypatch):
    # the arity bound of the mu windows is exact only when no face lowers a
    # root's arity, which a nullary multimorphism of M would do
    simp, real = _kappa_setup(Z, fix.as_operad, 1)
    monkeypatch.setitem(simp.calc.M.complexes, ((), 1),
                        ChainComplex.single(Z, "u", 0))
    with pytest.raises(EngineError,
                       match=r"^M has the nullary signature \(\(\), 1\)"):
        KanAlgebraStructure(simp, real)


def test_unit_target_has_no_arity_two():
    # operadic_kan skips the k = 2 checks, and mu(2) itself still raises;
    # the poset 0 -> 1 has the terminal object 1, whose carrier is Z in
    # degree 0
    M, A, _ = fix.two_object_kappa(Z)
    real, structure = operadic_kan(fix.projection_to_unit(M), A, 2)
    assert not structure.has_arity(2) and structure.has_arity(1)
    with pytest.raises(EngineError, match="no arity-2 operations"):
        structure.mu(2)
    assert real.reliable_degrees == [-1, 0]
    assert [homology(real.complex, d).as_dict()
            for d in real.reliable_degrees] == [
        {"degree": -1, "rank": 0, "torsion": []},
        {"degree": 0, "rank": 1, "torsion": []}]


@pytest.mark.parametrize("ring,operad,n_cols", [
    (Z, fix.sym_assoc_operad, 137),
    (Q, fix.as_operad, 62),
])
def test_mu_unit_axiom(ring, operad, n_cols):
    # mu(z; 1) = z on every arity-1 window column
    structure = KanAlgebraStructure(*_kappa_setup(ring, operad, 2))
    O = structure.O
    assert O.basis_keys((O.objects[0],), O.objects[0]) == \
        [O.unit_key(O.objects[0])]
    cols = list(window_columns(structure, 1, 2))
    assert len(cols) == n_cols
    for (z,), unit in cols:
        assert structure.mu_on_labels((z,), unit) == {z: ring.one}, z


def test_free_sym_assoc_algebra_dimension():
    C = ChainComplex.free(Q, {0: ["a", "b"], 1: ["c"]}, {(1, "c", "a"): 1})
    res = free_algebra(fix.sym_assoc_operad(Q, 2), {"*": C})
    n = C.total_dim()
    assert res.complexes["*"].total_dim() == sum(n ** k for k in (1, 2))
    assert res.ordered["*"].total_dim() == res.complexes["*"].total_dim()


def test_free_sym_assoc_algebra_dimension_arity_3():
    # O(3) = R[S_3]: needs the S_3 actions on O(3) and C^(x)3 in full
    C = ChainComplex.free(Q, {0: ["a", "b"], 1: ["c"]}, {(1, "c", "a"): 1})
    res = free_algebra(fix.sym_assoc_operad(Q, 3), {"*": C})
    n = C.total_dim()
    assert res.complexes["*"].total_dim() == sum(n ** k for k in (1, 2, 3))
    assert res.ordered["*"].total_dim() == res.complexes["*"].total_dim()


def test_mu_body_runs_once_per_window_tensor(monkeypatch):
    calls = []
    body = KanAlgebraStructure._mu_body

    def counted(self, ids, okey):
        calls.append((_in_labels(self, ids), okey))
        return body(self, ids, okey)

    monkeypatch.setattr(KanAlgebraStructure, "_mu_body", counted)
    M, A, _ = fix.two_object_kappa(Z)
    O = fix.sym_assoc_operad(Z, 3)
    real, _ = operadic_kan(fix.projection_to_operad(M, O), A, 1)
    labels = [z for d in real.complex.degrees()
              for z in real.complex.labels(d)]
    # the arity-graded window: levels sum to at most 1, root arities to at
    # most O.arity_max
    pairs = [p for p in itertools.product(labels, repeat=2)
             if p[0][1] + p[1][1] <= 1
             and len(p[0][2][2]) + len(p[1][2][2]) <= O.arity_max]
    okeys = O.basis_keys(("*", "*"), "*")
    assert len(calls) == len(set(calls)) == len(pairs) * len(okeys)
    assert set(calls) == set(itertools.product(pairs, okeys))


def _oracle_mu(structure, zs, okey):
    """mu on one basis tensor as first written: per shuffle and degeneracy
    term, the reordering sign and gamma are recomputed, with the
    Eilenberg-Zilber sign (-1)^(sum_{s<t} |z_s| p_t)."""
    ring, calc = structure.ring, structure.calc

    def degen_word(n, word, label):
        cur = {label: ring.one}
        for lvl, i in enumerate(word, start=n):
            cur = linear(ring, lambda l, lv=lvl, ii=i: calc.degen(lv, ii, l),
                         cur)
        return cur

    def product_levelwise(labels):
        pieces = [(l[2], l[1]) for l in labels]
        degs, flat = [], []
        for t, (ws, ok) in enumerate(pieces):
            for wi, w in enumerate(ws):
                flat.append(("w", t, wi))
                degs.append(calc.deg(w))
            flat.append(("o", t))
            degs.append(ok[2])
        order = [flat.index(("w", t, wi))
                 for t, (ws, _) in enumerate(pieces) for wi in range(len(ws))]
        order += [flat.index(("o", t)) for t in range(len(pieces))]
        sign = koszul_sign(Perm([o + 1 for o in order]), degs)
        gam = calc.O.gamma(okey, [{ok: ring.one} for _, ok in pieces])
        children = tuple(w for ws, _ in pieces for w in ws)
        out = {}
        for gk, gv in gam.items():
            for l2, v2 in calc.make_root(gk, children).items():
                add_into(ring, out, l2,
                         ring.mul(ring.from_int(sign), ring.mul(gv, v2)))
        return out

    levels = [z[1] for z in zs]
    total = sum(levels)
    ez = sum(calc.deg(zs[s][2]) * levels[t]
             for t in range(len(zs)) for s in range(t))
    out = {}
    for sign, words in bar._multi_shuffle_words(levels):
        factor_lcs = [degen_word(z[1], word, z[2])
                      for z, word in zip(zs, words)]
        combos = [(sign * (-1) ** ez, [])]
        for lc in factor_lcs:
            combos = [(s * bar._unit_sign(ring, v), labs + [l])
                      for (s, labs) in combos for l, v in lc.items()]
        for s, labs in combos:
            for l3, v3 in product_levelwise(labs).items():
                add_into(ring, out, ("lv", total, l3),
                         ring.mul(ring.from_int(s), v3))
    return out


@pytest.mark.parametrize("case", ["symas_z_n1", "as_q_n2", "interval_as_z_n2",
                                  "odd_bv_z_n1"])
def test_mu_memo_matches_oracle(case):
    if case == "symas_z_n1":
        structure = _kan_structure(Z, fix.sym_assoc_operad(Z, 3), 1)
    elif case == "as_q_n2":
        structure = _kan_structure(Q, fix.as_operad(Q, 3), 2)
    elif case == "interval_as_z_n2":
        structure = _interval_kan_as_z()[1]
    else:
        # the endomorphism operad of the exterior algebra has odd keys, so
        # the graft's reordering sign is exercised; both checks pass
        structure = _kan_structure(Z, fix.bv_operad(Z, 2)[0], 1,
                                   _odd_points(Z))
        assert any(ok[2] % 2 for _, parts in structure._graft_memo
                   for ok, _ in parts)
    n_max = structure.simp.n_max
    memo = _mu_memo_in_labels(structure)
    assert set(memo) == set(window_columns(structure, 2, n_max))
    assert memo == {col: _oracle_mu(structure, *col) for col in memo}
    if case in ("symas_z_n1", "as_q_n2"):
        # the cases of the kan benchmark workload: mu is zero on every column
        # that the arity bound drops from the level window
        dropped = set(level_window_columns(structure, 2, n_max)) - set(memo)
        assert len(dropped) == {"symas_z_n1": 2392, "as_q_n2": 1201}[case]
        for col in dropped:
            assert _oracle_mu(structure, *col) == {}, col


def test_graft_and_shuffle_run_once_per_pattern(monkeypatch):
    simp, real = _kappa_setup(Z, fix.sym_assoc_operad, 1)
    structure = KanAlgebraStructure(simp, real)
    O, calc = structure.O, structure.calc
    gammas, grafts, shuffle_calls = [], [], []
    gamma, graft = O.gamma, structure._graft
    shuffle = bar._multi_shuffle_words

    def counted_gamma(g, fs):
        gammas.append(g)
        return gamma(g, fs)

    def counted_graft(okey, ids):
        grafts.append((okey, tuple((z[2][1], tuple(calc.deg(w) % 2
                                                   for w in z[2][2]))
                                   for z in _in_labels(structure, ids))))
        return graft(okey, ids)

    def counted_shuffle(levels):
        shuffle_calls.append(levels)
        return shuffle(levels)

    monkeypatch.setattr(O, "gamma", counted_gamma)
    monkeypatch.setattr(structure, "_graft", counted_graft)
    monkeypatch.setattr(bar, "_multi_shuffle_words", counted_shuffle)
    structure.check_chain_map(2)
    structure.check_equivariance(2)
    assert len(gammas) == len(set(grafts)) < len(grafts)
    assert len(shuffle_calls) == len(set(shuffle_calls)) == len(
        {tuple(z[1] for z in zs) for zs, _ in _mu_memo_in_labels(structure)})
    assert sorted(shuffle_calls) == [(0, 0), (0, 1), (1, 0)]


def _oracle_orbit(calc, structure, key, children):
    """Node canonicalization as first written: every permutation through
    structure.act and koszul_sign; None when the orbit dies."""
    k = len(children)
    ring = calc.ring
    seen = {}
    for images in itertools.permutations(range(1, k + 1)):
        sigma = Perm(images)
        hit = structure.act(sigma, key)
        if len(hit) != 1:
            raise NonPermutationAction(
                "node canonicalization needs signed permutation actions")
        ((nk, coeff),) = hit.items()
        if ring.eq(coeff, ring.one):
            s = 1
        elif ring.eq(coeff, ring.from_int(-1)):
            s = -1
        else:
            raise NonPermutationAction("non-unit symmetry coefficient")
        nc = tuple(children[sigma(t) - 1] for t in range(1, k + 1))
        s *= koszul_sign(sigma, [calc.deg(c) for c in children])
        cand = (nk, nc)
        if cand in seen and seen[cand] != s:
            return None
        seen.setdefault(cand, s)
    return seen


def _oracle_make_node(calc, kind, key, children):
    structure = calc.M if kind == "wd" else calc.O
    orbit = _oracle_orbit(calc, structure, key, children)
    if orbit is None:
        return {}
    rep = min(orbit, key=repr)
    s = orbit[(key, children)] * orbit[rep]
    return {(kind, rep[0], rep[1]): calc.ring.from_int(s)}


def _assert_canon_matches_oracle(calc):
    assert calc._canon
    for (kind, key, children), got in calc._canon.items():
        want = _oracle_make_node(calc, kind, key, children)
        assert got == want and repr(got) == repr(want), (kind, key, children)


def _free_algebra_calc(monkeypatch, operad, carrier):
    made = []

    class Recording(bar.WordCalculus):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(bar, "WordCalculus", Recording)
    free_algebra(operad, {"*": carrier})
    (calc,) = made
    return calc


@pytest.mark.parametrize("case", ["symas_z_n1", "as_q_n2", "odd_as_z_n1",
                                  "interval_as_z_n1", "free_symas_q2",
                                  "free_as_z3"])
def test_canonical_nodes_match_oracle(case, monkeypatch):
    if case == "symas_z_n1":
        calc = _kan_structure(Z, fix.sym_assoc_operad(Z, 3), 1).calc
    elif case == "as_q_n2":
        calc = _kan_structure(Q, fix.as_operad(Q, 3), 2).calc
    elif case == "odd_as_z_n1":
        calc = _kan_structure(Z, fix.as_operad(Z, 3), 1, _odd_points(Z)).calc
    elif case == "interval_as_z_n1":
        calc = _kan_structure(Z, fix.as_operad(Z, 3), 1,
                              _interval_carriers(Z)).calc
    elif case == "free_symas_q2":
        C = ChainComplex.free(Q, {0: ["a", "b"], 1: ["c"]},
                              {(1, "c", "a"): 1})
        calc = _free_algebra_calc(monkeypatch, fix.sym_assoc_operad(Q, 2), C)
    else:
        # x (x) x with x odd: its S_2-orbit under the symmetric mu2 dies
        C = ChainComplex.free(Z, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): 1})
        calc = _free_algebra_calc(monkeypatch, fix.as_operad(Z, 3), C)
        assert {} in calc._canon.values()
    _assert_canon_matches_oracle(calc)


def _leaf_calc(operad):
    M, A, _ = fix.two_object_kappa(Z, *_odd_points(Z))
    return bar.WordCalculus(fix.projection_to_operad(M, operad), A)


def test_sign_conflict_kills_the_orbit():
    calc = _leaf_calc(fix.as_operad(Z, 3))
    (mu2,) = calc.O.basis_keys(("*", "*"), "*")
    odd, even = ("lf", 0, 1, "c0"), ("lf", 0, 0, "c0")
    assert _oracle_orbit(calc, calc.O, mu2, (odd, odd)) is None
    assert calc.make_root(mu2, (odd, odd)) == {}
    assert calc.make_root(mu2, (even, even)) == {("rt", mu2, (even, even)): 1}
    assert calc.make_root(mu2, (odd, even)) == \
        calc.make_root(mu2, (even, odd)) == {("rt", mu2, (even, odd)): 1}
    _assert_canon_matches_oracle(calc)


def test_one_child_node_repr_keeps_the_trailing_comma():
    calc = _leaf_calc(fix.as_operad(Z, 3))
    unit = calc.M.unit_key(0)
    leaf = ("lf", 0, 1, "c0")
    assert calc._node_repr((unit, (leaf,))) == repr((unit, (leaf,)))
    assert calc._node_repr((unit, ())) == repr((unit, ()))
    assert calc.make_word(unit, (leaf,)) == {("wd", unit, (leaf,)): 1}
    _assert_canon_matches_oracle(calc)


def test_children_with_prefix_reprs_order_as_repr():
    # carrier labels 1, 12 and 123, whose reprs are prefixes of one another,
    # and "a" and "a'", which repr quotes differently
    calc = _leaf_calc(fix.sym_assoc_operad(Z, 3))
    leaves = [("lf", 0, d, l) for d in (0, 1) for l in (1, 12, 123, "a", "a'")]
    okeys = calc.O.basis_keys(("*",) * 3, "*") + \
        calc.O.basis_keys(("*",) * 2, "*")
    for okey in okeys:
        for children in itertools.permutations(leaves, len(okey[0])):
            cand = (okey, children)
            assert calc._node_repr(cand) == repr(cand)
            calc.make_root(okey, children)
    _assert_canon_matches_oracle(calc)


def test_orbit_tables_call_act_once_per_permutation(monkeypatch):
    M, A, _ = fix.two_object_kappa(Z)
    pi = fix.projection_to_operad(M, fix.sym_assoc_operad(Z, 3))
    calls = []
    act = MultiCat.act

    def counted(self, sigma, f):
        calls.append((sigma.images, f))
        return act(self, sigma, f)

    monkeypatch.setattr(MultiCat, "act", counted)
    calc = simplicial_kan(pi, A, 1).calc
    tables = {(calc.M if kind == "wd" else calc.O, key,
               tuple(calc.deg(c) % 2 for c in children))
              for kind, key, children in calc._canon}
    assert any(len(p) > 1 for _, _, p in tables)
    assert len(calls) == sum(math.factorial(len(p)) for _, _, p in tables)
    # a second build on the same WordCalculus reads every node's orbit from
    # the tables
    canon = dict(calc._canon)
    calc._canon.clear()
    calls.clear()
    monkeypatch.setattr(bar, "WordCalculus", lambda pi, A: calc)
    assert simplicial_kan(pi, A, 1).calc is calc
    assert calls == []
    assert calc._canon == canon


def test_graft_reads_no_degrees_for_memoized_labels(monkeypatch):
    structure = _kan_structure(Z, fix.sym_assoc_operad(Z, 3), 1)
    calc = structure.calc
    inside, grafts, deg_calls = [], [], []
    graft, deg = structure._graft, calc.deg

    def traced_graft(okey, ids):
        grafts.append(okey)
        inside.append(okey)
        try:
            return graft(okey, ids)
        finally:
            inside.pop()

    def counted_deg(label):
        if inside:
            deg_calls.append(label)
        return deg(label)

    monkeypatch.setattr(structure, "_graft", traced_graft)
    monkeypatch.setattr(calc, "deg", counted_deg)

    def rerun():
        structure._mu_memo.clear()
        structure._product_memo.clear()
        structure.check_chain_map(2)
        structure.check_equivariance(2)

    rerun()
    assert grafts and deg_calls == []
    # a label without a memoized part reads the degree of each of its words,
    # once
    z = next(z for z, part in enumerate(structure._parts) if part and part[1])
    fresh = _in_labels(structure, (z,))[0][2]
    structure._parts[z] = None
    rerun()
    assert deg_calls == list(fresh[2])


def test_checks_read_mu_on_ids_once_per_column(monkeypatch):
    # symAs over Z at n_max 1: the checks call no label view, run the mu body
    # once per window column and the product body once per distinct
    # (okey, level ids)
    structure = KanAlgebraStructure(*_kappa_setup(Z, fix.sym_assoc_operad, 1))
    views, bodies, products = [], [], []
    view = KanAlgebraStructure.mu_on_labels
    body = KanAlgebraStructure._mu_body
    product = KanAlgebraStructure._product_body

    def counted_view(self, zs, okey):
        views.append((zs, okey))
        return view(self, zs, okey)

    def counted_body(self, ids, okey):
        bodies.append((_in_labels(self, ids), okey))
        return body(self, ids, okey)

    def counted_product(self, okey, ids):
        products.append((okey, ids))
        return product(self, okey, ids)

    monkeypatch.setattr(KanAlgebraStructure, "mu_on_labels", counted_view)
    monkeypatch.setattr(KanAlgebraStructure, "_mu_body", counted_body)
    monkeypatch.setattr(KanAlgebraStructure, "_product_body", counted_product)
    structure.check_chain_map(2)
    structure.check_equivariance(2)
    window = list(window_columns(structure, 2, 1))
    assert views == []
    assert len(bodies) == len(set(bodies)) == len(window)
    assert set(bodies) == set(window)
    assert 0 < len(products) == len(set(products)) == \
        len(structure._product_memo)


def _as_kan_n2(ring):
    M, A, _ = fix.two_object_kappa(ring)
    return operadic_kan(fix.projection_to_operad(M, fix.as_operad(ring, 3)),
                        A, 2)  # runs both checks


def test_kan_over_f3_matches_z():
    real, _ = _as_kan_n2(Ring.Fp(3))
    real_z, _ = _as_kan_n2(Z)
    assert real.reliable_degrees == real_z.reliable_degrees == [-1, 0]
    want = [{"degree": -1, "rank": 0, "torsion": []},
            {"degree": 0, "rank": 3, "torsion": []}]
    assert [homology(real.complex, d).as_dict() for d in (-1, 0)] == want
    assert [homology(real_z.complex, d).as_dict() for d in (-1, 0)] == want


def test_kan_over_novikov_matches_q():
    nov = Ring.novikov(Q, 2, 2)
    real, _ = _as_kan_n2(nov)
    real_q, _ = _as_kan_n2(Q)
    dims = {d: real.complex.dim(d) for d in real.complex.degrees()}
    assert dims == {d: real_q.complex.dim(d) for d in real_q.complex.degrees()}
    assert real.complex.total_dim() == 62
    residue = real.complex.map_coefficients(Q, nov.residue)
    assert homology(residue, 0).as_dict() == \
        {"degree": 0, "rank": 3, "torsion": []}


@pytest.mark.parametrize("operad,axiom", [
    (fix.planted_nonassociative, "eqMultComp1"),
    (fix.planted_asymmetric, "sym-involution"),
])
def test_kan_validates_its_inputs_at_entry(operad, axiom, monkeypatch):
    M, A, _ = fix.two_object_kappa(Z)
    O = operad(Z)
    pi = fix.projection_to_operad(M, O)
    monkeypatch.setattr(bar, "WordCalculus",
                        lambda *args: pytest.fail("levels built"))
    with pytest.raises(EngineError,
                       match=f"^operad O '{O.name}' fails {axiom}: ") as err:
        operadic_kan(pi, A, 2)
    assert err.value.witness == O.validate()
    assert err.value.witness["axiom"] == axiom
