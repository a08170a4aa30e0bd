"""The two-sided bar's structure maps: the builder on integer coordinates,
the simplicial identity check on column forms, the memoized key
differentials, and the augmentation triangle, each against the construction
it replaced."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import opbar.barcat as barcat
import opbar.linalg as linalg
from opbar.barcat import (
    BarBimoduleComplex,
    group_bar_complex,
    telescope_vs_hocolim,
    two_sided_bar,
)
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap
from opbar.dgcat import (
    DgCategory,
    DgFunctor,
    LeftModule,
    RightModule,
    corepresented_right_module,
    group_ring_category,
    table_category,
    trivial_left_module,
    trivial_right_module,
    under_functor_left_module,
)
from opbar.errors import EngineError
from opbar.lincomb import add_into
from opbar.linalg import Mat
from opbar.simplicial import SimplicialComplexObj, constant_simplicial, realize
from opbar.symgrp import Perm

from .genutil import assert_same_mats, unitriangular_inverse

Z = Ring.Z()
Q = Ring.Q()
F3 = Ring.Fp(3)
F5 = Ring.Fp(5)
NOV = Ring.novikov(Q, 2, 2)
S3 = [Perm((2, 1, 3)), Perm((2, 3, 1))]


def _equal(f, g):
    """Maps compared as restored Ring values (`Mat.__eq__`), not through
    the column forms that `ChainMap.eq` and the identity check share."""
    return f.degree == g.degree and all(
        f.mat(d) == g.mat(d) for d in f.mats.keys() | g.mats.keys())


def _compose_check(simp):
    """The identity check as it was before column forms: one
    `ChainMap.compose` per side of every identity, and a new identity map
    for every d_i s_j = id."""
    for n in range(2, simp.n_max + 1):
        for j in range(0, n + 1):
            for i in range(0, j):
                lhs = simp.face(n - 1, i).compose(simp.face(n, j))
                rhs = simp.face(n - 1, j - 1).compose(simp.face(n, i))
                if not _equal(lhs, rhs):
                    return {"identity": "dd", "n": n, "i": i, "j": j}
    for n in range(0, simp.n_max):
        for j in range(0, n + 1):
            if (n, j) not in simp.degens:
                continue
            s = simp.degen(n, j)
            for i in range(0, n + 2):
                lhs = simp.face(n + 1, i).compose(s)
                if i == j or i == j + 1:
                    if not _equal(lhs, ChainMap.identity(simp.level(n))):
                        return {"identity": "ds=id", "n": n, "i": i, "j": j}
                elif i < j:
                    rhs = simp.degen(n - 1, j - 1).compose(simp.face(n, i))
                    if not _equal(lhs, rhs):
                        return {"identity": "ds", "n": n, "i": i, "j": j}
                else:
                    rhs = simp.degen(n - 1, j).compose(simp.face(n, i - 1))
                    if not _equal(lhs, rhs):
                        return {"identity": "ds", "n": n, "i": i, "j": j}
            if n + 2 <= simp.n_max:
                for i in range(0, j + 1):
                    if (n + 1, i) not in simp.degens or (n, i) not in simp.degens:
                        continue
                    lhs = simp.degen(n + 1, i).compose(simp.degen(n, j))
                    rhs = simp.degen(n + 1, j + 1).compose(simp.degen(n, i))
                    if not _equal(lhs, rhs):
                        return {"identity": "ss", "n": n, "i": i, "j": j}
    return None


def _regular_bar(ring, n_max):
    C = group_ring_category(ring, 3, S3)
    regular = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    return two_sided_bar(trivial_right_module(C), C, regular, n_max)


def _novikov_constant():
    t_half = NOV.canon(((Fraction(1, 2), Fraction(1)),))
    C = ChainComplex(NOV, "Z", {0: ["y0", "y1"], 1: ["x"]},
                     {1: Mat(NOV, 2, 1, {(0, 0): t_half, (1, 0): NOV.one})})
    const = constant_simplicial(C, 3)
    return SimplicialComplexObj(3, const.levels, const.faces, const.degens,
                                validate=True)


def _random_nonzero(rng, ring):
    """A nonzero entry: over Q with denominator 1..4, over Novikov up to two
    terms on the grid below the cutoff, and half the time a T^0 term, so
    that slice 0 of a change of basis is not always the identity."""
    if ring.kind == "Q":
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    if ring.kind == "Fp":
        return rng.randrange(1, ring.p)
    terms = [(Fraction(rng.randrange(4), 2), _random_nonzero(rng, ring.base))
             for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        terms.append((Fraction(0), _random_nonzero(rng, ring.base)))
    return ring.canon(terms) or ring.one


def _conjugated(simp, ring, seed):
    """simp with d_i replaced by U_{n-1} d_i U_n^-1 and s_j by
    U_{n+1} s_j U_n^-1, for a seeded unitriangular U_n per level and degree:
    the identities still hold, but the maps have columns with several
    entries and (over Q) denominators that differ from map to map."""
    rng = random.Random(seed)
    change, inverse = {}, {}
    for n in range(simp.n_max + 1):
        lv = simp.level(n)
        for d in lv.degrees():
            u = Mat.identity(ring, lv.dim(d))
            for i in range(u.nrows):
                for j in range(i + 1, u.ncols):
                    if rng.random() < 0.4:
                        u.set(i, j, _random_nonzero(rng, ring))
            change[(n, d)] = u
            inverse[(n, d)] = unitriangular_inverse(ring, u)

    def conj(f, n, m):
        mats = {d: change[(m, f.target_deg(d))].mul(a).mul(inverse[(n, d)])
                for d, a in f.mats.items()}
        return ChainMap(f.source, f.target, f.degree, mats, validate=False)

    faces = {(n, i): conj(f, n, n - 1) for (n, i), f in simp.faces.items()}
    degens = {(n, i): conj(s, n, n + 1) for (n, i), s in simp.degens.items()}
    return SimplicialComplexObj(simp.n_max, simp.levels, faces, degens,
                                validate=False)


Z3 = [Perm((2, 3, 1))]
SIMPLICIAL = {
    "group_bar_z_s3": lambda: group_bar_complex(Z, 3, S3, 3).simplicial,
    "regular_bar_q_s3": lambda: _regular_bar(Q, 3).simplicial,
    "group_bar_f3_z3": lambda: group_bar_complex(F3, 3, Z3, 3).simplicial,
    "constant_novikov": _novikov_constant,
    "conjugated_q_z3": lambda: _conjugated(
        group_bar_complex(Q, 3, Z3, 3).simplicial, Q, "conj:Q"),
    "conjugated_f5_z3": lambda: _conjugated(
        group_bar_complex(F5, 3, Z3, 3).simplicial, F5, "conj:F5"),
    "conjugated_novikov": lambda: _conjugated(_novikov_constant(), NOV,
                                              "conj:nov"),
}
CONJUGATED = ("conjugated_q_z3", "conjugated_f5_z3", "conjugated_novikov")


def _corrupted(simp, rng, mode):
    """A copy of simp with one entry of one stored face or degeneracy
    negated, dropped or moved to an empty position of its column (of its
    row when the column is full)."""
    stored = [("face", k) for k in simp.faces] + [("degen", k) for k in simp.degens]
    kind, key = rng.choice(sorted(stored))
    maps = dict(simp.faces if kind == "face" else simp.degens)
    f = maps[key]
    d = rng.choice(sorted(f.mats))
    m = f.mats[d]
    ent = dict(m.d)
    pos = rng.choice(sorted(ent))
    i, j = pos
    free = [(r, j) for r in range(m.nrows) if (r, j) not in ent] \
        or [(i, c) for c in range(m.ncols) if (i, c) not in ent]
    if mode == "drop":
        del ent[pos]
    elif mode == "move" and free:
        ent[rng.choice(free)] = ent.pop(pos)
    else:
        ent[pos] = m.ring.neg(ent[pos])
    bad = Mat(m.ring, m.nrows, m.ncols, ent)
    maps[key] = ChainMap(f.source, f.target, f.degree, {**f.mats, d: bad},
                         validate=False)
    faces = maps if kind == "face" else simp.faces
    degens = maps if kind == "degen" else simp.degens
    return SimplicialComplexObj(simp.n_max, simp.levels, faces, degens,
                                validate=False)


@pytest.fixture(scope="module")
def simplicial_objects():
    return {name: build() for name, build in SIMPLICIAL.items()}


@pytest.mark.parametrize("name", sorted(SIMPLICIAL))
def test_identity_check_passes_on_uncorrupted_objects(simplicial_objects, name):
    simp = simplicial_objects[name]
    assert simp.check_identities() is None
    assert _compose_check(simp) is None


def test_identity_check_matches_compose_oracle_on_corruptions(simplicial_objects):
    rng = random.Random(7)
    families = set()
    cases = 0
    for name in sorted(SIMPLICIAL):
        simp = simplicial_objects[name]
        for k in range(12):
            bad = _corrupted(simp, rng, ("negate", "drop", "move")[k % 3])
            got = bad.check_identities()
            assert got == _compose_check(bad), (name, k)
            if got is not None:
                families.add(got["identity"])
            cases += 1
    assert cases >= 40
    assert families == {"dd", "ds=id", "ds", "ss"}


def test_conjugated_objects_reach_the_general_columns(simplicial_objects):
    # every conjugated object has maps with multi-entry columns, and over Q
    # denominators > 1 that differ between maps, which the bar maps lack
    for name in CONJUGATED:
        simp = simplicial_objects[name]
        ring = simp.level(0).ring
        forms = [linalg.column_form(ring, m)
                 for f in (*simp.faces.values(), *simp.degens.values())
                 for m in f.mats.values()]
        if ring.is_novikov:  # checked per slice
            slices = [[s for s in f if s] for f in forms]
            assert any(rows is None for ss in slices for _, _, rows in ss), name
            # a column holds the rows of all its slices
            assert any(len(set().union(*col)) > 1
                       for ss in slices for col in zip(*(s[1] for s in ss))), name
            # and a column of one slice holds several entries, so the
            # base-field column_product accumulates there
            assert any(len(col) > 1 for ss in slices for _, cols, _ in ss
                       for col in cols), name
            continue
        assert any(rows is None for _, _, rows in forms), name
        assert any(len(col) > 1 for _, cols, _ in forms for col in cols), name
        if ring.kind == "Q":
            assert len({den for den, _, _ in forms} - {1}) > 1
    plain = simplicial_objects["group_bar_z_s3"]
    assert all(linalg.column_form(Z, m)[2] is not None
               for f in plain.faces.values() for m in f.mats.values())


@pytest.mark.parametrize("ring", [Z, Q, F3], ids=repr)
def test_identity_check_makes_no_products_and_no_ring_arithmetic(monkeypatch,
                                                                 ring):
    simp = group_bar_complex(ring, 3, S3, 3).simplicial
    calls = {"Mat.mul": 0, "Ring.mul": 0, "Ring.add": 0}

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def wrapped(*args):
            calls[key] += 1
            return real(*args)
        monkeypatch.setattr(owner, attr, wrapped)

    counting(Mat, "mul", "Mat.mul")
    counting(Ring, "mul", "Ring.mul")
    counting(Ring, "add", "Ring.add")
    assert simp.check_identities() is None
    assert calls == dict.fromkeys(calls, 0)
    # the counters count
    a = Mat.from_rows(ring, [[1, 2], [0, 1]])
    a.mul(a)
    ring.mul(ring.one, ring.one)
    ring.add(ring.one, ring.one)
    assert calls == {"Mat.mul": 1, "Ring.mul": 1, "Ring.add": 1}


def test_mat_mul_with_an_empty_operand_is_zero():
    a = Mat.from_rows(Q, [[1, 2], [3, 4]])
    zero = Mat.zeros(Q, 2, 3)
    assert a.mul(zero) == Mat.zeros(Q, 2, 3)
    assert zero.transpose().mul(a) == Mat.zeros(Q, 3, 2)


# -- memoized key differentials ---------------------------------------------


def _column_read(c, d, l, wrap):
    col = c.d_mat(d).column(c.index(d, l))
    pd = c.pred(d)
    return {wrap(pd, c.labels(pd)[i]): v for i, v in col.items()}


def _check_diff_memo(C, modules):
    for a, b, d, l in C.all_keys():
        key = (a, b, d, l)
        want = _column_read(C.hom(a, b), d, l, lambda pd, t: (a, b, pd, t))
        assert C.diff_key(key) == want
    for M in modules:
        for obj in C.objects:
            for key in M.elem_keys(obj):
                want = _column_read(M.complex(obj), key[1], key[2],
                                    lambda pd, t: (obj, pd, t))
                assert M.diff_key(key) == want


def _telescope_bar():
    c = ChainComplex.free(Q, {0: ["y0", "y1"], 1: ["x0", "x1"]},
                          {(1, "x0", "y0"): 1, (1, "x0", "y1"): -1,
                           (1, "x1", "y1"): 2})
    # x1 -> x0 + x1 and its conjugate through d in degree 0: the module
    # action has terms with several entries and fractional coefficients
    half = Fraction(1, 2)
    f = ChainMap(c, c, 0, {
        0: Mat(Q, 2, 2, {(0, 0): 3 * half, (0, 1): half,
                         (1, 0): -half, (1, 1): half}),
        1: Mat(Q, 2, 2, {(0, 0): Q.one, (0, 1): Q.one, (1, 1): Q.one})})
    maps = [f, ChainMap.identity(c).scale_int(-3)]
    return telescope_vs_hocolim([c, c, c], maps, 3).hocolim


def _interval_category():
    """0 -> 1 with C(0, 1) the interval: b, c in degree 0, a in degree 1 and
    d a = b - c."""
    comp = {("e0", "e0"): [(1, "e0")], ("e1", "e1"): [(1, "e1")]}
    for l in ("a", "b", "c"):
        comp[("e0", l)] = comp[(l, "e1")] = [(1, l)]
    return table_category(Z, [0, 1], {(0, 0): {0: ["e0"]}, (1, 1): {0: ["e1"]},
                                      (0, 1): {0: ["b", "c"], 1: ["a"]}},
                          {(0, 1, "a"): [(1, "b"), (-1, "c")]}, comp,
                          {0: "e0", 1: "e1"}, name="I")


def test_diff_key_memo_equals_column_read():
    for ring in (Z, Q):
        C = group_ring_category(ring, 3, S3)
        regular = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
        _check_diff_memo(C, [trivial_right_module(C), trivial_left_module(C),
                             regular])
    tel = _telescope_bar()
    assert any(tel.Mr.complex(a).diff for a in tel.C.objects)
    _check_diff_memo(tel.C, [tel.Mr, tel.Ml])
    # an interval hom complex, d a = b - c, so the category's keys and the
    # corepresented modules' elements have nonzero differentials
    C = _interval_category()
    assert C.validate() is None
    assert C.diff_key((0, 1, 1, "a")) == {(0, 1, 0, "b"): 1, (0, 1, 0, "c"): -1}
    R = corepresented_right_module(C, 0)
    assert R.diff_key((1, 1, "a")) == {(1, 0, "b"): 1, (1, 0, "c"): -1}
    _check_diff_memo(C, [R, under_functor_left_module(DgFunctor.identity(C), 1)])


def test_level_differentials_read_each_column_once(monkeypatch):
    column = Mat.column
    calls = []

    def counting_column(self, j):
        calls.append(j)
        return column(self, j)

    monkeypatch.setattr(Mat, "column", counting_column)
    for ring in (Z, Q):
        C = group_ring_category(ring, 3, S3)
        Mr = trivial_right_module(C)
        for Ml in (trivial_left_module(C),
                   under_functor_left_module(DgFunctor.identity(C), C.objects[0])):
            calls.clear()
            BarBimoduleComplex(Mr, C, Ml, 3)
            distinct = len(C.all_keys()) + sum(
                len(M.elem_keys(a)) for M in (Mr, Ml) for a in C.objects)
            assert 0 < len(calls) <= distinct


# -- the bar on integer coordinates, against the label-based builder --------


def _oracle_level_basis(Mr, C, Ml, n):
    """Labels (m, (u_1..u_n), y) with matching objects, grouped by degree."""
    out = {}
    chains = [(a,) for a in C.objects]
    for _ in range(n):
        chains = [ch + (b,) for ch in chains for b in C.objects
                  if C.hom(ch[-1], b) is not None]
    for ch in chains:
        for m in Mr.elem_keys(ch[0]):
            pools = []
            ok = True
            for t in range(n):
                keys = C.basis_keys(ch[t], ch[t + 1])
                if not keys:
                    ok = False
                    break
                pools.append(keys)
            if not ok:
                continue
            for us in itertools.product(*pools):
                for y in Ml.elem_keys(ch[-1]):
                    deg = m[1] + sum(u[2] for u in us) + y[1]
                    out.setdefault(deg, []).append(("bar", m, us, y))
    return out


def _oracle_level_complex(Mr, C, Ml, n) -> ChainComplex:
    ring = C.ring
    basis = _oracle_level_basis(Mr, C, Ml, n)
    cpx = ChainComplex(ring, "Z", basis, {}, validate=False)
    diff = {}
    for d in cpx.degrees():
        pd = cpx.pred(d)
        m = Mat.zeros(ring, cpx.dim(pd), cpx.dim(d))
        for j, (_, mk, us, yk) in enumerate(cpx.labels(d)):
            pre = 0
            for kk, v in Mr.diff_key(mk).items():
                tl = ("bar", kk, us, yk)
                m.add_to(cpx.index(pd, tl), j, v)
            pre += mk[1]
            for t, u in enumerate(us):
                s = -1 if pre % 2 else 1
                for kk, v in C.diff_key(u).items():
                    tl = ("bar", mk, us[:t] + (kk,) + us[t + 1:], yk)
                    m.add_to(cpx.index(pd, tl), j,
                             ring.mul(ring.from_int(s), v))
                pre += u[2]
            s = -1 if pre % 2 else 1
            for kk, v in Ml.diff_key(yk).items():
                tl = ("bar", mk, us, kk)
                m.add_to(cpx.index(pd, tl), j, ring.mul(ring.from_int(s), v))
        if not m.is_zero():
            diff[d] = m
    cpx.diff = diff
    cpx.validate()
    return cpx


def _oracle_face_fn(Mr, C, Ml, n, i):
    def fn(label):
        _, mk, us, yk = label
        out = []
        if i == 0:
            hit = Mr.act_key(mk, us[0])
            for kk, v in hit.items():
                out.append((("bar", kk, us[1:], yk), v))
        elif i == n:
            hit = Ml.act_key(us[-1], yk)
            for kk, v in hit.items():
                out.append((("bar", mk, us[:-1], kk), v))
        else:
            hit = C.compose_keys(us[i - 1], us[i])
            for kk, v in hit.items():
                out.append((("bar", mk, us[:i - 1] + (kk,) + us[i + 1:], yk), v))
        return out

    return fn


def _oracle_degen_fn(C, n, i):
    def fn(label):
        _, mk, us, yk = label
        if i == 0:
            obj = mk[0]
            new = (C.unit_key(obj),) + us
        else:
            obj = us[i - 1][1]
            new = us[:i] + (C.unit_key(obj),) + us[i:]
        return [(("bar", mk, new, yk), 1)]

    return fn


def _oracle_p(bar):
    """p from labels: the tensor projection on level 0 and 0 above it."""
    tensor, proj = bar.tensor_quotient()

    def p_fn(d, label):
        _, n, lab = label
        return list(proj.apply_label(d, lab).items()) if n == 0 else None

    return ChainMap.from_label_fn2(bar.complex, tensor, 0, p_fn)


def _interval_bar():
    C = _interval_category()
    return two_sided_bar(corepresented_right_module(C, 0), C,
                         under_functor_left_module(DgFunctor.identity(C), 1), 3)


def _composite_interval_category():
    """0 -> 1 -> 2 with C(k - 1, k) the interval (a_k odd, d a_k = b_k - c_k)
    and C(0, 2) = C(0, 1) (x) C(1, 2) with the Koszul differential, so a
    label can hold two odd keys and the second one's differential is signed.
    ("I" has at most one odd key per bar label.)"""
    bases = {(k, k): {0: [f"e{k}"]} for k in range(3)}
    diff, comp = {}, {}
    d_interval = {"a": [(1, "b"), (-1, "c")]}
    for k in (1, 2):
        bases[(k - 1, k)] = {0: [f"b{k}", f"c{k}"], 1: [f"a{k}"]}
        diff[(k - 1, k, f"a{k}")] = [(v, f"{t}{k}") for v, t in d_interval["a"]]
    top = bases[(0, 2)] = {}
    for x in "abc":
        for y in "abc":
            xy = f"{x}1{y}2"
            top.setdefault((x == "a") + (y == "a"), []).append(xy)
            comp[(f"{x}1", f"{y}2")] = [(1, xy)]
            sign = -1 if x == "a" else 1
            terms = [(v, f"{t}1{y}2") for v, t in d_interval.get(x, [])] + \
                [(sign * v, f"{x}1{t}2") for v, t in d_interval.get(y, [])]
            if terms:
                diff[(0, 2, xy)] = terms
    for (i, j), basis in bases.items():
        for ls in basis.values():
            for l in ls:
                comp[(f"e{i}", l)] = comp[(l, f"e{j}")] = [(1, l)]
    return table_category(Z, [0, 1, 2], bases, diff, comp,
                          {k: f"e{k}" for k in range(3)}, name="I2")


def _composite_interval_bar():
    C = _composite_interval_category()
    return two_sided_bar(corepresented_right_module(C, 0), C,
                         under_functor_left_module(DgFunctor.identity(C), 2), 3)


ORACLE_BARS = {
    "z_z3_trivial": lambda: group_bar_complex(Z, 3, Z3, 4),
    "z_s3_trivial": lambda: group_bar_complex(Z, 3, S3, 3),
    "q_s3_regular": lambda: _regular_bar(Q, 3),
    "telescope_cf": _telescope_bar,
    "interval_corepresented": _interval_bar,
    "composite_interval_corepresented": _composite_interval_bar,
}


@pytest.mark.parametrize("name", sorted(ORACLE_BARS))
def test_coordinate_bar_equals_label_oracle(name):
    bar = ORACLE_BARS[name]()
    Mr, C, Ml, simp = bar.Mr, bar.C, bar.Ml, bar.simplicial
    levels = {n: _oracle_level_complex(Mr, C, Ml, n)
              for n in range(bar.n_max + 1)}
    for n, lv in levels.items():
        assert simp.level(n).basis == lv.basis, (name, n)
        assert_same_mats(simp.level(n).diff, lv.diff, (name, "level", n))
    for (n, i), face in simp.faces.items():
        old = ChainMap.from_label_fn(levels[n], levels[n - 1], 0,
                                     _oracle_face_fn(Mr, C, Ml, n, i))
        assert_same_mats(face.mats, old.mats, (name, "face", n, i))
    for (n, i), degen in simp.degens.items():
        old = ChainMap.from_label_fn(levels[n], levels[n + 1], 0,
                                     _oracle_degen_fn(C, n, i))
        assert_same_mats(degen.mats, old.mats, (name, "degen", n, i))
    assert len(simp.faces) == sum(n + 1 for n in range(1, bar.n_max + 1))
    assert len(simp.degens) == sum(n + 1 for n in range(bar.n_max))
    p, f, q, tensor, const = bar.augmentation_maps()
    assert_same_mats(f.mats, _per_label_f(bar).mats, (name, "f"))
    assert_same_mats(p.mats, _oracle_p(bar).mats, (name, "p"))


def test_oracle_bars_reach_signs_and_level_differentials():
    # the fixtures above are not all trivial: a Koszul sign on a nonzero
    # term of a level differential, nonzero level differentials, and
    # non-unit face coefficients
    bar = ORACLE_BARS["composite_interval_corepresented"]()
    assert bar.C.validate() is None

    def signed(label):
        _, m, us, y = label
        pre = 0
        for key_deg, d in [(m[1], bar.Mr.diff_key(m))] + \
                [(u[2], bar.C.diff_key(u)) for u in us] + \
                [(y[1], bar.Ml.diff_key(y))]:
            if d and pre % 2:
                return True
            pre += key_deg
        return False

    assert any(signed(l) for n in range(bar.n_max + 1)
               for d in bar.simplicial.level(n).degrees()
               for l in bar.simplicial.level(n).labels(d))
    tel = ORACLE_BARS["telescope_cf"]()
    assert tel.simplicial.level(1).diff
    face0 = [m for m in tel.simplicial.face(1, 0).mats.values()]
    assert any(v.denominator > 1 for m in face0 for v in m.d.values())
    assert any(len(col) > 1 for m in face0 for col in m.columns().values())


def _counted(monkeypatch, calls, owner, attr):
    real = getattr(owner, attr)

    def wrapped(self, *args):
        calls[(owner.__name__, attr, args)] += 1
        return real(self, *args)
    monkeypatch.setattr(owner, attr, wrapped)


@pytest.mark.parametrize("name", ["z_s3_trivial", "telescope_cf"])
def test_bar_build_reads_each_key_and_pair_once(monkeypatch, name):
    built = ORACLE_BARS[name]()
    Mr, C, Ml, n_max = built.Mr, built.C, built.Ml, built.n_max
    calls = Counter()
    for owner, attr in ((RightModule, "act_key"), (LeftModule, "act_key"),
                        (DgCategory, "compose_keys"), (RightModule, "diff_key"),
                        (DgCategory, "diff_key"), (LeftModule, "diff_key")):
        _counted(monkeypatch, calls, owner, attr)
    from_fn = ChainMap._from_fn
    from_fn_calls = []

    def counting_from_fn(*args):
        from_fn_calls.append(args)
        return from_fn(*args)

    monkeypatch.setattr(ChainMap, "_from_fn", staticmethod(counting_from_fn))
    bar = BarBimoduleComplex(Mr, C, Ml, n_max)
    assert from_fn_calls == []
    assert set(calls.values()) == {1}
    want = set()
    for n in range(1, n_max + 1):
        for d in bar.simplicial.level(n).degrees():
            for _, m, us, y in bar.simplicial.level(n).labels(d):
                want.add(("RightModule", "act_key", (m, us[0])))
                want.add(("LeftModule", "act_key", (us[-1], y)))
                want.update(("DgCategory", "compose_keys", (u, v))
                            for u, v in zip(us, us[1:]))
    keys = {("RightModule", "diff_key", (m,)) for a in C.objects
            for m in Mr.elem_keys(a)}
    keys |= {("LeftModule", "diff_key", (y,)) for a in C.objects
             for y in Ml.elem_keys(a)}
    keys |= {("DgCategory", "diff_key", (u,)) for u in C.all_keys()}
    assert set(calls) == want | keys
    assert any(k[1] == "compose_keys" for k in want)


def test_non_associative_composition_fails_the_identity_check():
    # Z/3 = {e, a, b} with b b = b instead of a: (a b) b = b but a (b b) = e,
    # so d_1 d_2 and d_1 d_1 differ on level 3.  The faces are still chain
    # maps (all keys have degree 0), so only check_identities sees it.
    comp = {}
    for x, i in (("e", 0), ("a", 1), ("b", 2)):
        for y, j in (("e", 0), ("a", 1), ("b", 2)):
            comp[(x, y)] = [(1, "eab"[(i + j) % 3])]
    comp[("b", "b")] = [(1, "b")]
    C = table_category(Z, ["*"], {("*", "*"): {0: ["e", "a", "b"]}}, {}, comp,
                       {"*": "e"}, name="Z/3 tampered")
    assert C.validate()["axiom"] == "eqMultComp1"
    Mr, Ml = trivial_right_module(C), trivial_left_module(C)
    two_sided_bar(Mr, C, Ml, 2)
    with pytest.raises(EngineError, match="'identity': 'dd'"):
        two_sided_bar(Mr, C, Ml, 3)


def test_face_tables_drop_explicit_zero_coefficients():
    # Z[Z/3] whose composition also lists every other group element with an
    # explicit 0: the faces must be the same matrices as without those terms,
    # with no stored zero entry
    clean = group_ring_category(Z, 3, [Perm((2, 3, 1))])
    keys = clean.all_keys()

    def compose_fn(C, ukey, vkey):
        out = dict.fromkeys(keys, 0)
        out.update(clean._compose_fn(C, ukey, vkey))
        return out

    padded = DgCategory(Z, clean.objects, clean.homs, compose_fn, clean.units,
                        name="Z/3 with zeros")
    assert 0 in padded.compose_keys(keys[0], keys[1]).values()
    want, got = (BarBimoduleComplex(trivial_right_module(C), C,
                                    trivial_left_module(C), 3).simplicial
                 for C in (clean, padded))
    assert got.faces.keys() == want.faces.keys()
    for at, face in got.faces.items():
        for d in face.source.degrees():
            assert 0 not in face.mat(d).d.values(), at
            assert face.mat(d).d == want.faces[at].mat(d).d, at


# -- the augmentation triangle ----------------------------------------------


def _per_label_f(bar):
    """f as built before shared prefixes: each label's module element pushed
    along its whole chain u_1..u_n."""
    tensor, proj = bar.tensor_quotient()
    ring = bar.C.ring
    const = realize(constant_simplicial(tensor, bar.n_max))
    images = {}

    def f_fn(d, label):
        _, n, (_, mk, us, yk) = label
        cur = {mk: ring.one}
        for u in us:
            nxt = {}
            for k, v in cur.items():
                for kk, c in bar.Mr.act_key(k, u).items():
                    add_into(ring, nxt, kk, ring.mul(v, c))
            cur = nxt
        out = {}
        for kk, v in cur.items():
            d0 = kk[1] + yk[1]
            if d0 not in images:
                images[d0] = proj.label_images(d0)
            for tl, c in images[d0][("bar", kk, (), yk)].items():
                add_into(ring, out, tl, ring.mul(v, c))
        return [(("lv", n, tl), v) for tl, v in out.items()]

    return ChainMap.from_label_fn2(bar.complex, const.complex, 0, f_fn)


@pytest.mark.parametrize("build", [lambda: _regular_bar(Q, 3), _telescope_bar],
                         ids=["regular_q_s3", "telescope_cf"])
def test_shared_prefix_f_equals_per_label_push(build):
    bar = build()
    p, f, q, tensor, const = bar.augmentation_maps()
    old = _per_label_f(bar)
    assert f.mats.keys() == old.mats.keys()
    for d, m in f.mats.items():
        assert m == old.mats[d], d
    assert q.compose(f).eq(p)
    assert q.compose(old).eq(p)


def test_augmentation_maps_are_built_once(monkeypatch):
    C = group_ring_category(Q, 3, S3)
    bar = two_sided_bar(trivial_right_module(C), C, trivial_left_module(C), 2)
    calls = []
    quotient = type(bar).tensor_quotient

    def counting(self):
        calls.append(self)
        return quotient(self)

    monkeypatch.setattr(type(bar), "tensor_quotient", counting)
    first = bar.augmentation_maps()
    second = bar.augmentation_maps()
    assert calls == []  # two_sided_bar's triangle check built them
    assert len(first) == 5
    assert all(a is b for a, b in zip(first, second))


def test_tampered_f_breaks_the_augmentation_triangle(monkeypatch):
    # f with its one level-0 column in degree 0 negated is still a chain map
    # (the trivial modules make every level-1 boundary 0), so only the
    # triangle can see it; p must not be derived from f for that.  f is the
    # one map barcat builds into the realized constant object (labels "lv").
    class Tampering(ChainMap):
        __slots__ = ()

        def __init__(self, source, target, degree, mats, validate=True):
            labels = [l for d in target.degrees() for l in target.labels(d)]
            if labels and all(l[0] == "lv" for l in labels) and 0 in mats:
                m = mats[0]
                ent = {(i, j): source.ring.neg(v) if source.labels(0)[j][1] == 0
                       else v for (i, j), v in m.d.items()}
                mats = {**mats, 0: Mat(m.ring, m.nrows, m.ncols, ent)}
            super().__init__(source, target, degree, mats, validate)

    C = group_ring_category(Z, 3, S3)
    two_sided_bar(trivial_right_module(C), C, trivial_left_module(C), 2)
    monkeypatch.setattr(barcat, "ChainMap", Tampering)
    with pytest.raises(EngineError, match="augmentation triangle does not commute"):
        two_sided_bar(trivial_right_module(C), C, trivial_left_module(C), 2)
