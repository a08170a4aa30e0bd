"""The exact checks on int column forms against Ring-valued products.

`ChainComplex.validate`, `ChainMap.validate`, `ChainMap.eq` and
`first_difference` decide on `linalg` column forms; here every verdict and
witness is compared with `Mat.mul` (restored Ring values) and `==` on
seeded random sparse matrices over Z, Q, F_3 and Nov(Q, 2, 2).  The
complexes are built so that products often cancel to exactly zero, and
over Q the two sides of a check carry different denominators.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import opbar.barcat as barcat
import opbar.linalg as linalg
import opbar.simplicial as simplicial
from opbar.barcat import two_sided_bar
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, first_difference
from opbar.dgcat import DgFunctor, group_ring_category, trivial_left_module, \
    trivial_right_module, under_functor_left_module
from opbar.errors import DegreeMismatch, EngineError, NotADifferential
from opbar.linalg import Mat
from opbar.simplicial import SimplicialComplexObj
from opbar.symgrp import Perm

from .genutil import ring_block_sum

Z = Ring.Z()
Q = Ring.Q()
F3 = Ring.Fp(3)
NOV = Ring.novikov(Q, 2, 2)
RINGS = [Z, Q, F3, NOV]
S3 = [Perm((2, 1, 3)), Perm((2, 3, 1))]


@st.composite
def entries(draw, ring):
    """A nonzero canonical entry: over Q with denominators 1..4, over
    Novikov one or two terms on the grid below the cutoff."""
    if ring is Q:
        return Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))),
                        draw(st.integers(1, 4)))
    if ring is NOV:
        terms = [(Fraction(draw(st.integers(0, 3)), 2), draw(entries(Q)))
                 for _ in range(draw(st.integers(1, 2)))]
        return ring.canon(terms) or ring.one
    return ring.canon(draw(st.sampled_from((-2, -1, 1, 2))))


@st.composite
def mats(draw, ring, nrows, ncols):
    m = Mat.zeros(ring, nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if draw(st.booleans()):
                m.set(i, j, draw(entries(ring)))
    return m


def _stack(ring, top, bottom):
    """[top; -bottom]: rows of top, then the negated rows of bottom."""
    entries = dict(top.d)
    entries.update(((i + top.nrows, j), ring.neg(v)) for (i, j), v in bottom.d.items())
    return Mat(ring, top.nrows + bottom.nrows, top.ncols, entries)


def _side_by_side(ring, left, right):
    entries = dict(left.d)
    entries.update(((i, j + left.ncols), v) for (i, j), v in right.d.items())
    return Mat(ring, left.nrows, left.ncols + right.ncols, entries)


@st.composite
def perturbed(draw, ring, m):
    """m, or m with one entry changed (set, dropped or negated)."""
    if not draw(st.booleans()) or not (m.nrows and m.ncols):
        return m
    out = m.clone()
    i = draw(st.integers(0, m.nrows - 1))
    j = draw(st.integers(0, m.ncols - 1))
    v = out.d.get((i, j))
    out.set(i, j, draw(st.sampled_from(
        [draw(entries(ring))] + ([ring.zero, ring.neg(v)] if v else []))))
    return out


@st.composite
def three_term(draw, ring):
    """C_2 -> C_1 -> C_0 with d_1 = [M, M] and d_2 = [X; -X], so d_1 d_2
    cancels to exactly 0, then perhaps one entry of either changed; built
    unvalidated, with the matrices the oracle reads."""
    n0, k, n2 = (draw(st.integers(1, 3)) for _ in range(3))
    M = draw(mats(ring, n0, k))
    X = draw(mats(ring, k, n2))
    d1 = draw(perturbed(ring, _side_by_side(ring, M, M)))
    d2 = draw(perturbed(ring, _stack(ring, X, X)))
    basis = {0: [f"y{i}" for i in range(n0)], 1: [f"x{i}" for i in range(2 * k)],
             2: [f"w{i}" for i in range(n2)]}
    return ChainComplex(ring, "Z", basis, {1: d1, 2: d2}, validate=False)


def _columns(m, sign=1):
    ring = m.ring
    return {j: {i: v if sign > 0 else ring.neg(v) for i, v in col.items()}
            for j, col in m.columns().items()}


def _first_nonzero_label(C, d):
    """The oracle's first basis label of degree d with d^2 != 0, or None."""
    comp = C.d_mat(C.pred(d)).mul(C.d_mat(d))
    return C.labels(d)[min(j for _, j in comp.d)] if comp.d else None


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@given(data=st.data())
def test_validate_matches_ring_valued_products(ring, data):
    C = data.draw(three_term(ring))
    bad = [(d, _first_nonzero_label(C, d)) for d in C.degrees()]
    bad = [(d, l) for d, l in bad if l is not None]
    if not bad:
        assert C.validate() is C
        return
    d, label = bad[0]
    with pytest.raises(NotADifferential,
                       match=f"^d\\^2 != 0 on basis element {label!r} in degree {d}"):
        C.validate()


def _oracle_chain_map(f):
    """(degree, label, lhs, rhs) at the first failing source label, from
    `Mat.mul` and `==`, or None for a chain map."""
    S, T = f.source, f.target
    sign = -1 if f.degree % 2 else 1
    for d in S.degrees():
        td = f.target_deg(d)
        lhs = _columns(T.d_mat(td).mul(f.mat(d)))
        rhs = _columns(f.mat(S.pred(d)).mul(S.d_mat(d)), sign)
        if lhs != rhs:
            j = min(j for j in lhs.keys() | rhs.keys() if lhs.get(j) != rhs.get(j))
            rows = T.labels(T.pred(td))
            named = [{rows[i]: v for i, v in side.get(j, {}).items()}
                     for side in (lhs, rhs)]
            return d, S.labels(d)[j], named[0], named[1]
    return None


@st.composite
def chain_maps(draw, ring):
    """A map on a three-term complex C with d^2 = 0: of degree 0,
    d h + h d for h of degree 1, or of degree 1, d h - h d for h: C_0 ->
    C_2; then perhaps one entry of one matrix changed."""
    C = draw(three_term(ring).filter(lambda c: all(
        _first_nonzero_label(c, d) is None for d in c.degrees())))
    d1, d2 = C.d_mat(1), C.d_mat(2)
    n0, n1, n2 = C.dim(0), C.dim(1), C.dim(2)
    if draw(st.booleans()):
        h0, h1 = draw(mats(ring, n1, n0)), draw(mats(ring, n2, n1))
        mats_ = {0: d1.mul(h0), 1: h0.mul(d1).add(d2.mul(h1)), 2: h1.mul(d2)}
        degree = 0
    else:
        h = draw(mats(ring, n2, n0))
        mats_ = {0: d2.mul(h), 1: h.mul(d1).neg()}
        degree = 1
    d = draw(st.sampled_from(sorted(mats_)))
    mats_[d] = draw(perturbed(ring, mats_[d]))
    return ChainMap(C, C, degree, mats_, validate=False)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@given(data=st.data())
def test_chain_map_check_matches_ring_valued_products(ring, data):
    f = data.draw(chain_maps(ring))
    want = _oracle_chain_map(f)
    if want is None:
        assert f.validate() is f
        return
    with pytest.raises(DegreeMismatch,
                       match=f"^not a chain map in degree {want[0]} ") as info:
        f.validate()
    w = info.value.witness
    assert (w["degree"], w["label"], w["lhs"], w["rhs"]) == want


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@given(data=st.data())
def test_eq_and_composites_match_ring_valued_products(ring, data):
    n0, n1, n2 = (data.draw(st.integers(1, 3)) for _ in range(3))
    C0, C1, C2 = (ChainComplex(ring, "Z", {0: [f"{t}{i}" for i in range(n)]}, {})
                  for t, n in (("a", n0), ("b", n1), ("c", n2)))
    f = ChainMap(C0, C1, 0, {0: data.draw(mats(ring, n1, n0))}, validate=False)
    g = ChainMap(C1, C2, 0, {0: data.draw(mats(ring, n2, n1))}, validate=False)
    gf = g.compose(f)
    h = ChainMap(C0, C2, 0, {0: data.draw(perturbed(ring, gf.mat(0)))},
                 validate=False)
    same = gf.mat(0) == h.mat(0)
    assert gf.eq(h) == same
    assert (first_difference((g, f), h) is None) == same
    # g f = h as a composite with a scaled g: (2g)(f/2) has other
    # denominators over Q, and 2 is invertible in every ring here but Z
    if ring is not Z:
        two = ring.from_int(2)
        g2 = ChainMap(C1, C2, 0, {0: g.mat(0).scale(two)}, validate=False)
        f2 = ChainMap(C0, C1, 0, {0: f.mat(0).scale(ring.invert(two))},
                      validate=False)
        assert (first_difference((g2, f2), h) is None) == same
    if not same:
        w = first_difference((g, f), h)
        lhs, rhs = _columns(gf.mat(0)), _columns(h.mat(0))
        j = min(j for j in lhs.keys() | rhs.keys() if lhs.get(j) != rhs.get(j))
        assert w["label"] == f"a{j}"
        assert w["lhs"] == {f"c{i}": v for i, v in lhs.get(j, {}).items()}
        assert w["rhs"] == {f"c{i}": v for i, v in rhs.get(j, {}).items()}


# -- structured witnesses ----------------------------------------------------


def test_chain_map_witness_names_the_first_failing_label():
    # the interval e -> x1 - x0, mapped to a point with x0 -> p but x1 -> 2p:
    # d f (e) = 0 while f d (e) = 2p - p = p
    interval = ChainComplex.free(Q, {0: ["x0", "x1"], 1: ["e"]},
                                 {(1, "e", "x1"): 1, (1, "e", "x0"): -1})
    point = ChainComplex.single(Q, "p", 0)
    with pytest.raises(DegreeMismatch,
                       match=r"^not a chain map in degree 1 \(d f != f d\) "
                             r"at 'e'") as info:
        ChainMap.from_label_fn(interval, point, 0,
                               lambda l: [("p", 1 if l == "x0" else 2)]
                               if l != "e" else None)
    assert info.value.witness == {"degree": 1, "label": "e", "lhs": {},
                                  "rhs": {"p": Fraction(1)}}


def test_face_that_is_no_chain_map_fails_the_simplicial_pass():
    # the constant object on the interval, with d_0 on level 1 replaced by
    # x0 -> x0, x1 -> x1, e -> 0, which is no chain map: the pass that
    # checks the stored maps names it as ChainMap.validate would
    interval = ChainComplex.free(Z, {0: ["x0", "x1"], 1: ["e"]},
                                 {(1, "e", "x1"): 1, (1, "e", "x0"): -1})
    ident = ChainMap.identity(interval)
    bad = ChainMap.from_label_fn(interval, interval, 0,
                                 lambda l: None if l == "e" else (l, 1),
                                 validate=False)
    with pytest.raises(DegreeMismatch,
                       match="^not a chain map in degree 1 ") as info:
        SimplicialComplexObj(1, {0: interval, 1: interval},
                             {(1, 0): bad, (1, 1): ident}, {(0, 0): ident})
    assert info.value.witness == {"degree": 1, "label": "e", "lhs": {},
                                  "rhs": {"x0": -1, "x1": 1}}


def test_scaled_degeneracy_fails_an_identity_with_its_witness():
    # s_0 = 2 id on the constant object is still a chain map, so only the
    # simplicial identity d_i s_0 = id fails: the constructor raises with
    # `check_identities`'s dict as .witness
    interval = ChainComplex.free(Z, {0: ["x0", "x1"], 1: ["e"]},
                                 {(1, "e", "x1"): 1, (1, "e", "x0"): -1})
    ident = ChainMap.identity(interval)
    args = (1, {0: interval, 1: interval}, {(1, 0): ident, (1, 1): ident},
            {(0, 0): ident.scale_int(2)})
    with pytest.raises(EngineError, match="^simplicial identities fail") as info:
        SimplicialComplexObj(*args)
    assert info.value.witness["identity"] == "ds=id"
    assert info.value.witness == \
        SimplicialComplexObj(*args, validate=False).check_identities()


def test_triangle_witness_names_the_first_differing_column(monkeypatch):
    # f doubled on degree 0 is still a chain map (the trivial modules make
    # every level-1 boundary 0), so only the triangle sees it; f is the one
    # map barcat builds into the realized constant object (labels "lv")
    class Doubling(ChainMap):
        __slots__ = ()

        def __init__(self, source, target, degree, mats, validate=True):
            labels = target.labels(0)
            if labels and all(l[0] == "lv" for l in labels) and 0 in mats:
                mats = {**mats, 0: mats[0].scale(Q.from_int(2))}
            super().__init__(source, target, degree, mats, validate)

    C = group_ring_category(Q, 3, S3)
    monkeypatch.setattr(barcat, "ChainMap", Doubling)
    with pytest.raises(EngineError,
                       match="^augmentation triangle does not commute at ") as info:
        two_sided_bar(trivial_right_module(C), C, trivial_left_module(C), 2)
    w = info.value.witness
    ((tensor_label, one),) = w["rhs"].items()
    assert w["degree"] == 0 and w["label"][:2] == ("lv", 0)
    assert one == 1 and w["lhs"] == {tensor_label: Fraction(2)}


# -- count gate ---------------------------------------------------------------


def test_two_sided_bar_forms_each_matrix_once_and_checks_restore_nothing(monkeypatch):
    formed, restored, depth = [], [], [0]
    column_form, restore = linalg.column_form, linalg._restore

    def counting_form(ring, m):
        formed.append(m)  # keeps m alive, so ids stay distinct
        return column_form(ring, m)

    def counting_restore(ring, form):
        if depth[0]:
            restored.append(form)
        return restore(ring, form)

    monkeypatch.setattr(linalg, "column_form", counting_form)
    monkeypatch.setattr(linalg, "_restore", counting_restore)
    checks = Counter()
    for owner in (ChainComplex, ChainMap):
        real = owner.validate

        def inside(self, real=real, owner=owner):
            checks[owner.__name__] += 1
            depth[0] += 1
            try:
                return real(self)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(owner, "validate", inside)

    C = group_ring_category(Q, 3, S3)
    regular = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    bar = two_sided_bar(trivial_right_module(C), C, regular, 3)
    simp = bar.simplicial
    row_maps = {id(m) for f in (*simp.faces.values(), *simp.degens.values())
                for m in f.mats.values()}
    # every face and degeneracy is a row map (2 + 3 + 4 faces and 1 + 2 + 3
    # degeneracies, one matrix each, in degree 0), which carries its form
    # from construction, so none reaches column_form, and neither do the
    # identity maps of the ds = id check, nor the realized differentials
    # (three of the bar, one of the constant object), which `total` builds
    # from their forms, nor f in degrees 0 to 2, summed from the forms of
    # its d_0 chains.  The rest is formed once each: three matrices of the
    # augmentation triangle (the tensor projection, p and q; the level
    # differentials are 0 here); no check restores a value
    assert len(row_maps) == 2 + 3 + 4 + 1 + 2 + 3
    assert sum(id(m) in row_maps for m in formed) == 0
    assert len({id(m) for m in formed}) == len(formed) == 3
    assert checks["ChainComplex"] > 0 and checks["ChainMap"] > 0
    assert restored == []
    # checking again forms nothing: each matrix keeps its form
    simp.check_identities()
    bar.complex.validate()
    assert len(formed) == 3
    # the counters count: a new complex's differentials are formed once, a
    # second validate forms nothing, and a failing check restores its witness
    d1 = Mat.from_rows(Q, [[1, 1]])
    C1 = ChainComplex(Q, "Z", {0: ["y"], 1: ["x0", "x1"], 2: ["w"]},
                      {1: d1, 2: Mat.from_rows(Q, [[1], [-1]])})
    assert len(formed) == 3 + 2
    C1.validate()
    assert len(formed) == 3 + 2 and sum(m is d1 for m in formed) == 1
    with pytest.raises(NotADifferential):
        ChainComplex(Q, "Z", {0: ["y"], 1: ["x"], 2: ["w"]},
                     {1: Mat.from_rows(Q, [[1]]), 2: Mat.from_rows(Q, [[1]])})
    assert restored


def test_total_realizes_the_regular_s3_bar_without_ring_arithmetic(monkeypatch):
    calls, depth = Counter(), [0]

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            if depth[0]:
                calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("add", "neg", "mul"):
        counted(Ring, name)
    counted(linalg, "column_form")
    total = simplicial.total

    def inside(*args):
        calls["total"] += 1
        depth[0] += 1
        try:
            return total(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(simplicial, "total", inside)
    C = group_ring_category(Q, 3, S3)
    regular = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    bar = two_sided_bar(trivial_right_module(C), C, regular, 3)
    # the bar and the augmentation's constant object are realized by total,
    # which sums the blocks' kept forms: no Ring arithmetic, nothing formed
    assert calls == {"total": 2}
    assert bar.complex.total_dim() == 6 + 36 + 216 + 1296
    # the counters count: the Ring-arithmetic oracle, inside, adds and negates
    depth[0] += 1
    m = Mat.from_rows(Q, [[Fraction(1, 2), 1]])
    assert ring_block_sum(Q, 1, 2, [(m, 0, 0, 1), (m, 0, 0, -1)]).is_zero()
    assert linalg.form(m) and calls["add"] == 2 and calls["neg"] == 2
    assert calls["column_form"] == 1
