"""Block assembly of differentials against the per-label loops it replaced.

The old loops read one column per basis label (`Mat.column`,
`ChainMap.apply_label`), each an O(nnz) scan; they are kept here as oracles
and must give the same matrices as the one-walk assembly.
"""

import random

from opbar.barcat import group_bar_complex, telescope_complex, two_sided_bar
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, cone
from opbar.dgcat import DgFunctor, group_ring_category, trivial_right_module, \
    under_functor_left_module
from opbar.linalg import Mat
from opbar.simplicial import normalized_realization
from opbar.symgrp import Perm

from .genutil import random_complex, random_two_term

Z = Ring.Z()
Q = Ring.Q()
S3_GENS = [Perm((2, 1, 3)), Perm((2, 3, 1))]


def _old_realized_diff(simplicial, C):
    """The realized differential, one label at a time."""
    ring = C.ring
    diff = {}
    for deg in C.degrees():
        pd = deg - 1
        m = Mat.zeros(ring, C.dim(pd), C.dim(deg))
        for j, (_, n, l) in enumerate(C.labels(deg)):
            lv = simplicial.level(n)
            ld = deg - n
            col = lv.d_mat(ld).column(lv.index(ld, l))
            sgn = ring.from_int(-1 if n % 2 else 1)
            for i2, v in col.items():
                tl = ("lv", n, lv.labels(ld - 1)[i2])
                m.add_to(C.index(pd, tl), j, ring.mul(sgn, v))
            for i in range(0, n + 1) if n >= 1 else ():
                s = ring.from_int(-1 if i % 2 else 1)
                for tl2, v in simplicial.face(n, i).apply_label(ld, l).items():
                    m.add_to(C.index(pd, ("lv", n - 1, tl2)), j, ring.mul(s, v))
        if not m.is_zero():
            diff[deg] = m
    return diff


def _old_normalized_diff(simplicial, real, quot):
    """The normalized differential, one label at a time."""
    ring = quot.ring
    degenerate = set()
    for (n, i), s in simplicial.degens.items():
        lv = simplicial.level(n)
        for d in lv.degrees():
            for l in lv.labels(d):
                ((tl, _),) = s.apply_label(d, l).items()
                degenerate.add(("lv", n + 1, tl))
    diff = {}
    for d in quot.degrees():
        pd = quot.pred(d)
        m = Mat.zeros(ring, quot.dim(pd), quot.dim(d))
        for j, l in enumerate(quot.labels(d)):
            col = real.d_mat(d).column(real.index(d, l))
            for i2, v in col.items():
                tl = real.labels(pd)[i2]
                if tl not in degenerate:
                    m.add_to(quot.index(pd, tl), j, v)
        if not m.is_zero():
            diff[d] = m
    return diff


def _old_cone_diff(f, out):
    S, T = f.source, f.target
    ring = S.ring
    diff = {}
    for d in out.degrees():
        pd = out.pred(d)
        m = Mat.zeros(ring, out.dim(pd), out.dim(d))
        for (i, j), v in T.d_mat(d).d.items():
            m.set(out.index(pd, ("c0", T.labels(pd)[i])),
                  out.index(d, ("c0", T.labels(d)[j])), v)
        sd = d - 1
        for l in S.labels(sd):
            jj = out.index(d, ("c1", l))
            for i, v in S.d_mat(sd).column(S.index(sd, l)).items():
                tl = ("c1", S.labels(S.pred(sd))[i])
                m.add_to(out.index(pd, tl), jj, ring.neg(v))
            for i, v in f.mat(sd).column(S.index(sd, l)).items():
                m.add_to(out.index(pd, ("c0", T.labels(sd)[i])), jj, v)
        if not m.is_zero():
            diff[d] = m
    return diff


def _old_tensor_many_diff(factors, out, tag="x"):
    ring = out.ring
    diff = {}
    for d in out.degrees():
        pd = out.pred(d)
        m = Mat.zeros(ring, out.dim(pd), out.dim(d))
        for j, (_, labels) in enumerate(out.labels(d)):
            pre = 0
            for t, l in enumerate(labels):
                c = factors[t]
                ld = c.degree_of(l)
                col = c.d_mat(ld).column(c.index(ld, l))
                s = ring.from_int(-1 if pre % 2 else 1)
                for i2, v in col.items():
                    tl = (tag, labels[:t] + (c.labels(c.pred(ld))[i2],)
                          + labels[t + 1:])
                    m.add_to(out.index(pd, tl), j, ring.mul(s, v))
                pre += ld
        if not m.is_zero():
            diff[d] = m
    return diff


def _old_tensor_diff(A, B, out):
    ring = out.ring
    diff = {}
    for d, ls in out.basis.items():
        pd = out.pred(d)
        m = Mat.zeros(ring, out.dim(pd), out.dim(d))
        for j, (_, la, lb) in enumerate(ls):
            da, db = A.degree_of(la), B.degree_of(lb)
            for i, v in A.d_mat(da).column(A.index(da, la)).items():
                m.add_to(out.index(pd, ("t", A.labels(A.pred(da))[i], lb)), j, v)
            sgn = ring.from_int(-1 if da % 2 else 1)
            for i, v in B.d_mat(db).column(B.index(db, lb)).items():
                m.add_to(out.index(pd, ("t", la, B.labels(B.pred(db))[i])), j,
                         ring.mul(sgn, v))
        if not m.is_zero():
            diff[d] = m
    return diff


def _assert_same_diff(got: ChainComplex, want: dict):
    assert set(got.diff) == set(want)
    for d, m in want.items():
        assert got.diff[d] == m, d


def test_realized_group_bar_matches_label_loop():
    bar = group_bar_complex(Z, 3, S3_GENS, 3)
    assert bar.complex.total_dim() > 200
    _assert_same_diff(bar.complex, _old_realized_diff(bar.simplicial, bar.complex))


def test_normalized_group_bar_matches_label_loop():
    bar = group_bar_complex(Z, 3, S3_GENS, 3)
    quot, _ = normalized_realization(bar.simplicial)
    assert quot.total_dim() < bar.complex.total_dim()
    _assert_same_diff(quot, _old_normalized_diff(bar.simplicial, bar.complex,
                                                 quot))


def test_realized_regular_two_sided_bar_matches_label_loop():
    C = group_ring_category(Q, 3, S3_GENS)
    Mreg = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    bar = two_sided_bar(trivial_right_module(C), C, Mreg, 3)
    _assert_same_diff(bar.complex, _old_realized_diff(bar.simplicial, bar.complex))


def _seeded_map(rng, ring):
    """A chain map f: S -> T with nonzero differentials on both sides:
    S = T = a two-term complex, f = multiplication by a random integer
    plus the null-homotopic d h + h d for a random h."""
    S = random_two_term(rng, ring, 3, 2, tag="s")
    while S.d_mat(1).is_zero():
        S = random_two_term(rng, ring, 3, 2, tag="s")
    h = Mat.zeros(ring, 2, 3)
    for i in range(2):
        for j in range(3):
            h.set(i, j, ring.from_int(rng.randint(-2, 2)))
    d = S.d_mat(1)
    k = ring.from_int(rng.randint(2, 4))
    mats = {0: Mat.identity(ring, 3).scale(k).add(d.mul(h)),
            1: Mat.identity(ring, 2).scale(k).add(h.mul(d))}
    return ChainMap(S, S, 0, mats)


def test_cone_matches_label_loop():
    rng = random.Random(7)
    for ring in (Z, Q):
        for _ in range(5):
            f = _seeded_map(rng, ring)
            assert not f.source.d_mat(1).is_zero()
            out = cone(f)
            _assert_same_diff(out, _old_cone_diff(f, out))
        C = random_complex(rng, ring, tag="r")
        ident = ChainMap.identity(C)
        out = cone(ident)
        _assert_same_diff(out, _old_cone_diff(ident, out))


def test_tensor_many_on_odd_carrier_matches_label_loop():
    # the interval: odd e with d e = x1 - x0, so Koszul signs are exercised
    for ring in (Z, Q):
        C = ChainComplex.free(ring, {0: ["x0", "x1"], 1: ["e"]},
                              {(1, "e", "x1"): 1, (1, "e", "x0"): -1})
        D = ChainComplex.free(ring, {1: ["u"], 2: ["v"]}, {(2, "v", "u"): 3})
        for factors in ([C, C], [C, D, C], [D, C, C]):
            out = ChainComplex.tensor_many(ring, factors)
            assert any(not m.is_zero() for m in out.diff.values())
            _assert_same_diff(out, _old_tensor_many_diff(factors, out))


def test_tensor_matches_label_loop():
    rng = random.Random(11)
    for ring in (Z, Q):
        for k in range(4):
            A = random_complex(rng, ring, tag=f"a{k}")
            B = random_complex(rng, ring, tag=f"b{k}")
            out = A.tensor(B)
            out.validate()
            _assert_same_diff(out, _old_tensor_diff(A, B, out))


def test_telescope_matches_label_loop():
    rng = random.Random(3)
    cs = [random_two_term(rng, Q, 2, 2, tag=f"c{i}") for i in range(3)]
    maps = [ChainMap.from_label_fn(
        cs[i], cs[i + 1], 0,
        lambda l, i=i: [(l.replace(f"c{i}", f"c{i + 1}"), 1)], validate=False)
        for i in range(2)]
    # the identity on labels is a chain map only where the d's agree
    cs[1].diff, cs[2].diff = dict(cs[0].diff), dict(cs[0].diff)
    out = telescope_complex(cs, maps)
    ring = Q
    want = {}
    for d in out.degrees():
        pd = d - 1
        m = Mat.zeros(ring, out.dim(pd), out.dim(d))
        for j, (tag, i, l) in enumerate(out.labels(d)):
            c = cs[i]
            if tag == "t0":
                for i2, v in c.d_mat(d).column(c.index(d, l)).items():
                    m.add_to(out.index(pd, ("t0", i, c.labels(d - 1)[i2])), j, v)
                continue
            for i2, v in c.d_mat(pd).column(c.index(pd, l)).items():
                m.add_to(out.index(pd, ("t1", i, c.labels(pd - 1)[i2])), j,
                         ring.neg(v))
            for tl, v in maps[i].apply_label(pd, l).items():
                m.add_to(out.index(pd, ("t0", i + 1, tl)), j, v)
            m.add_to(out.index(pd, ("t0", i, l)), j, ring.from_int(-1))
        if not m.is_zero():
            want[d] = m
    _assert_same_diff(out, want)
