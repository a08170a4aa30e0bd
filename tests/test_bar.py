import functools
import itertools

import pytest

from opbar import bar
from opbar import fixtures as fix
from opbar.bar import KanAlgebraStructure, free_algebra, operadic_kan, \
    simplicial_kan
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, differential_as_map, \
    homology
from opbar.errors import EngineError
from opbar.lincomb import add_into, eq as lc_eq, linear
from opbar.simplicial import realize
from opbar.symgrp import Perm

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
    window = list(structure.window_columns(2, n_max - 1))
    assert len(window) == len(set(window))
    assert set(window) == set(full)
    assert any(lhs for lhs, _ in full.values()) == nonzero
    for col in window:
        lhs, rhs = structure.chain_map_sides(*col)
        assert lhs == full[col][0] and rhs == full[col][1], col
        assert lhs == rhs
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
            want = structure._mu_uncached(zs, okey) \
                if sum(z[1] for z in zs) <= 1 else {}
            assert mu.apply_label(d, label) == want


def test_equivariance_holds_on_odd_pairs():
    M, A, _ = fix.two_object_kappa(Z)
    pi = fix.projection_to_operad(M, fix.as_operad(Z, 3))
    real, structure = operadic_kan(pi, A, 2)
    odd = [zs for zs, _ in structure.window_columns(2, 2)
           if all(structure._deg(z) % 2 for z in zs)]
    assert odd  # the Koszul sign of the S_2 action is exercised


class _Negated(KanAlgebraStructure):
    """mu negated on the columns (zs, okey) where bad(zs, okey) holds."""

    def _mu_uncached(self, zs, okey):
        out = super()._mu_uncached(zs, okey)
        if self.bad(zs, okey):
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
        if bad._deg(la) % 2 and bad._deg(lb) % 2:
            rhs = {l: -v for l, v in rhs.items()}
        return lhs, rhs

    assert (w["zs"], w["okey"], w["lhs"], w["rhs"]) == \
        _first_failing(bad.window_columns(2, 1), sides)


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
        _first_failing(bad.window_columns(2, 1), bad.chain_map_sides)


def test_odd_carrier_is_equivariant_and_chain_map():
    # operadic_kan runs both checks
    structure = _kan_structure(Z, fix.as_operad(Z, 3), 1, _odd_points(Z))
    odd = [zs for zs, _ in structure.window_columns(2, 1)
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


def test_unit_target_has_no_arity_two():
    M, A, _ = fix.two_object_kappa(Z)
    with pytest.raises(EngineError, match="no arity-2 operations"):
        operadic_kan(fix.projection_to_unit(M), A, 2)


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
    body = KanAlgebraStructure._mu_uncached

    def counted(self, zs, okey):
        calls.append((zs, okey))
        return body(self, zs, okey)

    monkeypatch.setattr(KanAlgebraStructure, "_mu_uncached", counted)
    M, A, _ = fix.two_object_kappa(Z)
    O = fix.sym_assoc_operad(Z, 3)
    real, _ = operadic_kan(fix.projection_to_operad(M, O), A, 1)
    labels = [z for d in real.complex.degrees()
              for z in real.complex.labels(d)]
    pairs = [p for p in itertools.product(labels, repeat=2)
             if p[0][1] + p[1][1] <= 1]
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
        sign = bar._reorder_sign_int(degs, order)
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
    assert set(structure._mu_memo) == set(structure.window_columns(2, n_max))
    assert structure._mu_memo == {
        col: _oracle_mu(structure, *col) for col in structure._mu_memo}


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

    def counted_graft(okey, labels):
        grafts.append((okey, tuple((l[1], tuple(calc.deg(w) % 2
                                                for w in l[2]))
                                   for l in labels)))
        return graft(okey, labels)

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
        {tuple(z[1] for z in zs) for zs, _ in structure._mu_memo})
    assert sorted(shuffle_calls) == [(0, 0), (0, 1), (1, 0)]
