"""The three front ends of `opbar.quotient`, each on seeded complexes and on
one small fixture that pins its representative labels.

Every quotient is checked the same way: the projection is a chain map, it
is surjective, and its kernel is the relation span (over Z: both are
saturated, of the same rank, and the projection kills the span).
"""

import random

import pytest

from opbar.barcat import _free_quotient
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, homology
from opbar.errors import EngineError, UnsupportedRing
from opbar.linalg import Mat, field_rank, snf_diagonal
from opbar.quotient import by_span, by_z_span
from opbar.symgrp import GroupAction, Perm, coinvariants

from .genutil import random_complex

Z, Q, F3 = Ring.Z(), Ring.Q(), Ring.Fp(3)
SEEDS = range(8)


def _boundaries(C):
    out = {}
    for d in C.degrees():
        below = C.labels(C.pred(d))
        cols = C.d_mat(d).columns()
        for j, l in enumerate(C.labels(d)):
            out[l] = {below[i]: v for i, v in cols.get(j, {}).items()}
    return out


def _copies(X, order):
    """X (+) ... (+) X with labels (a, l) for copy a, copies in `order`."""
    bd = _boundaries(X)
    basis = {d: [(a, l) for a in order for l in X.labels(d)]
             for d in X.degrees()}
    return ChainComplex.from_labels(
        X.ring, basis, lambda al: {(al[0], t): v for t, v in bd[al[1]].items()})


def _index_spans(C, relations):
    """Label relations {label: coeff} as per-degree index spans."""
    spans = {}
    for vec in relations:
        (d,) = {C.degree_of(l) for l in vec}
        spans.setdefault(d, []).append({C.index(d, l): v for l, v in vec.items()})
    return spans


def _check(C, spans, quot, proj):
    """proj is a surjective chain map C -> quot whose kernel is the span."""
    ring = C.ring
    proj.validate()
    for d in C.degrees():
        P = proj.mat(d)
        vecs = spans.get(d, [])
        R = Mat(ring, C.dim(d), len(vecs), {(i, j): v for j, vec in enumerate(vecs)
                                            for i, v in vec.items()})
        q, n = quot.dim(d), C.dim(d)
        assert (P.nrows, P.ncols) == (q, n)
        assert P.mul(R).is_zero(), d
        if ring.is_field:
            assert field_rank(P) == q and field_rank(R) == n - q, d
        else:
            assert snf_diagonal(P) == [1] * q, d
            assert snf_diagonal(R) == [1] * (n - q), d


# -- signed classes ---------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_union_find_classes_over_z(seed):
    # copy a is glued to an earlier copy b by x_a = s x_b on every label: a
    # tree of identifications, so no class is killed
    rng = random.Random(seed)
    X = random_complex(rng, Z, tag="x")
    k = rng.randint(2, 4)
    C = _copies(X, range(k))
    relations = []
    for a in range(1, k):
        b, s = rng.randrange(a), rng.choice((1, -1))
        relations += [{(a, l): 1, (b, l): -s} for d in X.degrees()
                      for l in X.labels(d)]
    quot, proj = _free_quotient(C, relations)
    _check(C, _index_spans(C, relations), quot, proj)
    # the root of a class is its least label in repr order: copy 0
    assert quot.basis == {d: [(0, l) for l in X.labels(d)] for d in X.degrees()}


def test_union_find_classes_pin_repr_order():
    C = ChainComplex.free(Z, {0: ["b", "a", "c"]}, {})
    quot, proj = _free_quotient(C, [{"a": 1, "b": 1}])
    assert quot.labels(0) == ["a", "c"]
    assert proj.apply_label(0, "b") == {"a": -1}


@pytest.mark.parametrize("seed", SEEDS)
def test_orbit_classes_over_z(seed):
    # S_2 swaps copy 1 and copy 0 with a sign; copy 1 comes first in the basis
    rng = random.Random(seed)
    X = random_complex(rng, Z, tag="x")
    C = _copies(X, (1, 0))
    s = rng.choice((1, -1))
    swap = ChainMap.from_label_fn(C, C, 0, lambda al: [((1 - al[0], al[1]), s)])
    quot, proj = coinvariants(GroupAction(2, [Perm((2, 1))], C, [swap]))
    relations = [{(a, l): 1, (1 - a, l): -s} for a in (0, 1)
                 for d in X.degrees() for l in X.labels(d)]
    _check(C, _index_spans(C, relations), quot, proj)
    # the representative of an orbit is its least index: copy 1
    assert quot.basis == {d: [(1, l) for l in X.labels(d)] for d in X.degrees()}


def test_sign_conflicting_classes_are_killed():
    # x = y and x = -y: over Z the class spans Z/2, which the free quotient drops
    C = ChainComplex.free(Z, {0: ["x", "y", "z"]}, {})
    quot, proj = _free_quotient(C, [{"x": 1, "y": -1}, {"x": 1, "y": 1}])
    assert quot.basis == {0: ["z"]}
    assert proj.apply_label(0, "x") == {} and proj.apply_label(0, "y") == {}
    # an orbit whose stabilizer acts by -1
    neg = ChainMap.from_label_fn(C, C, 0, lambda l: [(l, -1 if l == "z" else 1)])
    quot, _ = coinvariants(GroupAction(2, [Perm((2, 1))], C, [neg]))
    assert quot.basis == {0: ["x", "y"]}


@pytest.mark.parametrize("first", [True, False], ids=["killed_first", "glued_first"])
def test_a_killed_class_stays_killed_when_glued(first):
    # x = y and x = -y kill the class of x; a = x glues a to it, before or
    # after (a is least in repr order, so it becomes the root)
    C = ChainComplex.free(Z, {0: ["x", "y", "a"]}, {})
    kill, glue = [{"x": 1, "y": -1}, {"x": 1, "y": 1}], [{"a": 1, "x": -1}]
    relations = kill + glue if first else glue + kill
    quot, proj = _free_quotient(C, relations)
    assert quot.basis == {}
    assert proj.is_zero()


def test_classes_that_are_not_a_subcomplex_raise():
    # x1 = x0 in degree 1, but their boundaries y1, y0 stay apart
    C = ChainComplex.free(Z, {0: ["y0", "y1"], 1: ["x0", "x1"]},
                          {(1, "x0", "y0"): 1, (1, "x1", "y1"): 1})
    with pytest.raises(EngineError, match="not a subcomplex"):
        _free_quotient(C, [{"x0": 1, "x1": -1}])


@pytest.mark.parametrize("coeff", [-1, -2], ids=["union_find", "span"])
def test_relation_across_degrees_raises_on_both_paths(coeff):
    # a +-1 pair goes through union-find, a 2 through the span; both name
    # the fault instead of failing a label lookup in the wrong degree
    C = ChainComplex.free(Z, {0: ["a"], 1: ["b"]}, {})
    with pytest.raises(EngineError, match="relation mixes degrees"):
        _free_quotient(C, [{"a": 1, "b": coeff}])


# -- field echelon form -------------------------------------------------------------

def _apply_d(C, d, vec):
    m = C.d_mat(d).mul(Mat(C.ring, C.dim(d), 1, {(j, 0): v for j, v in vec.items()}))
    return {i: v for (i, _), v in m.d.items()}


def _random_subcomplex_span(rng, C):
    """Random vectors v together with their boundaries d v."""
    ring, spans = C.ring, {}
    for d in C.degrees():
        for _ in range(rng.randint(1, 2)):
            vec = {j: ring.from_int(rng.randint(-2, 2)) for j in range(C.dim(d))
                   if rng.random() < 0.6}
            vec = {j: v for j, v in vec.items() if not ring.is_zero(v)}
            if vec:
                spans.setdefault(d, []).append(vec)
                dv = _apply_d(C, d, vec)
                if dv:
                    spans.setdefault(C.pred(d), []).append(dv)
    return spans


@pytest.mark.parametrize("ring", [Q, F3], ids=["Q", "F3"])
@pytest.mark.parametrize("seed", SEEDS)
def test_span_quotient_over_fields(ring, seed):
    rng = random.Random(seed)
    C = random_complex(rng, ring)
    spans = _random_subcomplex_span(rng, C)
    quot, proj = by_span(C, spans)
    _check(C, spans, quot, proj)


@pytest.mark.parametrize("ring,two", [(Q, 2), (F3, -1)], ids=["Q", "F3"])
def test_span_quotient_pins_non_pivot_labels(ring, two):
    C = ChainComplex.free(ring, {0: ["a", "b", "c"]}, {})
    # a + 2b = 0 and b + c = 0: the pivots are a and b, so b = -c, a = 2c
    quot, proj = by_span(C, {0: [{0: ring.from_int(1), 1: ring.from_int(2)},
                                 {1: ring.one, 2: ring.one}]})
    assert quot.labels(0) == ["c"]
    assert proj.apply_label(0, "a") == {"c": ring.from_int(two)}
    assert proj.apply_label(0, "b") == {"c": ring.from_int(-1)}


# -- Smith normal form over Z --------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_z_span_quotient_by_a_chain_map_graph(seed):
    # relations y - f(y) for y in copy 1 and a chain map f = d h + h d into
    # copy 0: a saturated subcomplex whose quotient is copy 0 again
    rng = random.Random(seed)
    X = random_complex(rng, Z, tag="x")
    h = {d: Mat(Z, X.dim(d + 1), X.dim(d),
                {(i, j): rng.randint(-2, 2) for i in range(X.dim(d + 1))
                 for j in range(X.dim(d))})
         for d in range(min(X.degrees()) - 1, max(X.degrees()) + 1)}
    C = _copies(X, (0, 1))
    spans = {}
    for d in X.degrees():
        f = X.d_mat(d + 1).mul(h[d]).add(h[d - 1].mul(X.d_mat(d)))
        n, cols = X.dim(d), f.columns()
        spans[d] = [{n + j: 1, **{i: -v for i, v in cols.get(j, {}).items()}}
                    for j in range(n)]
    quot, proj = by_z_span(C, spans)
    _check(C, spans, quot, proj)
    assert quot.basis == {d: [("q", d, t) for t in range(X.dim(d))]
                          for d in X.degrees()}
    for d in X.degrees():
        assert homology(quot, d) == homology(X, d)


def test_z_span_quotient_pins_q_labels():
    # the 2-simplex with d t = x + y - z, modulo 2x + y - z and b - a
    C = ChainComplex.free(
        Z, {0: ["a", "b", "c"], 1: ["x", "y", "z"], 2: ["t"]},
        {(1, "x", "a"): -1, (1, "x", "b"): 1, (1, "y", "b"): -1,
         (1, "y", "c"): 1, (1, "z", "a"): -1, (1, "z", "c"): 1,
         (2, "t", "x"): 1, (2, "t", "y"): 1, (2, "t", "z"): -1})
    relations = [{"x": 2, "y": 1, "z": -1}, {"a": -1, "b": 1}]
    quot, proj = _free_quotient(C, relations)
    _check(C, _index_spans(C, relations), quot, proj)
    assert quot.basis == {0: [("q", 0, 0), ("q", 0, 1)],
                          1: [("q", 1, 0), ("q", 1, 1)], 2: [("q", 2, 0)]}


def test_z_span_quotient_with_torsion_raises():
    C = ChainComplex.free(Z, {0: ["a", "b"]}, {})
    with pytest.raises(UnsupportedRing, match="torsion"):
        by_z_span(C, {0: [{0: 2}]})
    with pytest.raises(UnsupportedRing, match="torsion"):
        _free_quotient(C, [{"a": 2}])
