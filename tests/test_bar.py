import itertools

import pytest

from opbar import fixtures as fix
from opbar.bar import KanAlgebraStructure, free_algebra, operadic_kan, \
    simplicial_kan
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, differential_as_map
from opbar.errors import EngineError
from opbar.simplicial import realize

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


class _NegatedOnOneKey(KanAlgebraStructure):
    def _mu_uncached(self, zs, okey):
        out = super()._mu_uncached(zs, okey)
        if okey == self.bad_key:
            out = {l: self.ring.neg(v) for l, v in out.items()}
        return out


def test_equivariance_catches_negated_key():
    simp, real = _kappa_setup(Z, fix.sym_assoc_operad, 1)
    KanAlgebraStructure(simp, real).check_equivariance(2)
    bad = _NegatedOnOneKey(simp, real)
    bad.bad_key = simp.calc.O.basis_keys(("*", "*"), "*")[0]
    with pytest.raises(EngineError, match="structure map is not equivariant"):
        bad.check_equivariance(2)


def test_odd_carrier_is_not_equivariant():
    C0 = ChainComplex.single(Z, "c0", 1)
    C1 = ChainComplex.single(Z, "c1", 1)
    kappa = ChainMap.from_label_fn(C0, C1, 0, lambda l: [("c1", 1)])
    M, A, _ = fix.two_object_kappa(Z, C0, C1, kappa)
    pi = fix.projection_to_operad(M, fix.as_operad(Z, 3))
    with pytest.raises(EngineError, match="structure map is not equivariant"):
        operadic_kan(pi, A, 1)


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
