import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy import GF
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

import opbar.linalg as linalg
import opbar.quotient as quotient
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, cone
from opbar.errors import NonGridExponent
from opbar.linalg import (
    Mat,
    _ZWorker,
    field_rank,
    field_solve_mat,
    snf_diagonal,
)
from opbar.quotient import by_z_span

from .genutil import random_chain_map, random_unitriangular, ring_block_sum, \
    sympy_rref

Z = Ring.Z()
Q = Ring.Q()


def _random_int_mat(rng, m, n, density=0.4, lo=-6, hi=6):
    a = Mat.zeros(Z, m, n)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                a.set(i, j, rng.randint(lo, hi))
    return a


def _sympy_of(a: Mat):
    return sympy.Matrix(a.nrows, a.ncols, lambda i, j: a.get(i, j))


def test_snf_example_2_6():
    # oracle: gcd-of-minors on [[2,4],[4,2]] gives invariant factors (2, 6)
    a = Mat.from_rows(Z, [[2, 4], [4, 2]])
    assert snf_diagonal(a) == [2, 6]


def test_snf_against_sympy_random():
    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_int_mat(rng, m, n)
        ours = snf_diagonal(a)
        sm = smith_normal_form(_sympy_of(a))
        theirs = [abs(sm[i, i]) for i in range(min(m, n)) if sm[i, i] != 0]
        assert ours == sorted(theirs)


def _sympy_invariants(a: Mat):
    if not a.nrows or not a.ncols:
        return []
    sm = smith_normal_form(_sympy_of(a))
    return sorted(abs(sm[i, i]) for i in range(min(a.nrows, a.ncols))
                  if sm[i, i] != 0)


def test_snf_and_rank_against_sympy_on_sparse_small_entries():
    # entries in -3..3 with zero rows and columns, and every fourth matrix
    # without a +-1 entry, so pivots come from the unit phase and the dense
    # loop
    rng = random.Random(31)
    shapes = [(0, 4), (4, 0), (0, 0)] + \
        [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)]
    no_unit = 0
    for t, (m, n) in enumerate(shapes):
        values = (-3, -2, 2, 3) if t % 4 == 0 else (-3, -2, -1, 1, 2, 3)
        a = Mat.zeros(Z, m, n)
        dead_row = rng.randrange(m) if m and rng.random() < 0.5 else None
        dead_col = rng.randrange(n) if n and rng.random() < 0.5 else None
        for i in range(m):
            for j in range(n):
                if i != dead_row and j != dead_col and rng.random() < 0.35:
                    a.set(i, j, rng.choice(values))
        no_unit += bool(a.d) and all(abs(v) != 1 for v in a.d.values())
        want = _sympy_invariants(a)
        assert snf_diagonal(a) == want, a.to_rows()
        assert field_rank(a) == len(want)
    assert no_unit >= 10


def _shuffled(rng, a: Mat) -> Mat:
    rows, cols = list(range(a.nrows)), list(range(a.ncols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return Mat(Z, a.nrows, a.ncols,
               {(rows[i], cols[j]): v for (i, j), v in a.d.items()})


def test_snf_on_group_bar_differentials_against_sympy():
    from opbar.barcat import group_bar_complex
    from opbar.symgrp import Perm
    rng = random.Random(5)
    for gens, n_max in (([Perm((2, 3, 1))], 4),
                        ([Perm((2, 1, 3)), Perm((2, 3, 1))], 3)):
        bar = group_bar_complex(Z, 3, gens, n_max)
        assert bar.complex.diff
        for m in bar.complex.diff.values():
            want = _sympy_invariants(m)
            for a in (m, _shuffled(rng, m)):
                assert snf_diagonal(a) == want
                assert field_rank(a) == len(want)


def _unimodular(rng, n):
    """A random n x n unimodular integer matrix: a unitriangular times a
    transposed unitriangular, so its entries fill in and some stay +-1."""
    return random_unitriangular(rng, Z, n).mul(
        random_unitriangular(rng, Z, n).transpose())


def _mixed_diagonal(rng, m, n, ones, torsion, zero_rows, zero_cols):
    """diag(1, ..., 1, t_1, ..., t_r) as an m x n matrix, mixed by random
    unimodular row and column operations, then spread over
    (m + zero_rows) x (n + zero_cols) so that the added rows and columns at
    random positions are zero."""
    d = Mat(Z, m, n, {(k, k): v for k, v in enumerate([1] * ones + torsion)})
    a = _unimodular(rng, m).mul(d).mul(_unimodular(rng, n))
    rows = sorted(rng.sample(range(m + zero_rows), m))
    cols = sorted(rng.sample(range(n + zero_cols), n))
    return Mat(Z, m + zero_rows, n + zero_cols,
               {(rows[i], cols[j]): v for (i, j), v in a.d.items()})


def test_snf_sweep_with_known_invariant_factors():
    """Invariant factors fixed by construction (Z/2 + Z/2 against Z/4 among
    them), against sympy and against the diagonalization that tracks U,
    through the same chain."""
    rng = random.Random(61)
    torsions = ([], [2, 2], [4], [2, 6], [3], [2, 4, 12], [5, 10], [2, 2, 2])
    # (ones, torsion, m, n, zero rows, zero columns); 0 x n shapes first
    cases = [(0, [], 0, 0, 0, 5), (0, [], 0, 0, 4, 0), (0, [], 0, 0, 0, 0)]
    for t in range(48):
        torsion = torsions[t % len(torsions)]
        ones = rng.randint(0, 4)
        s = ones + len(torsion)
        cases.append((ones, torsion, s + rng.randint(0, 2), s + rng.randint(0, 2),
                      rng.randint(0, 2), rng.randint(0, 2)))
    units_and_fill = 0
    for ones, torsion, m, n, zero_rows, zero_cols in cases:
        a = _mixed_diagonal(rng, m, n, ones, torsion, zero_rows, zero_cols)
        want = [1] * ones + torsion
        tracked = linalg._divisibility_chain(
            _ZWorker(a, track_u=True).diagonalize())
        assert snf_diagonal(a) == want == _sympy_invariants(a) == tracked, \
            a.to_rows()
        units_and_fill += (any(abs(v) == 1 for v in a.d.values())
                           and len(a.d) > len(want))
    assert units_and_fill >= 24


def test_snf_unit_phase_and_dense_loop_counts(monkeypatch):
    """On the bar of Z/3 (n_max 6), the unit phase takes every pivot of the
    torsion-free d_3 and d_5, and the dense loop takes only the Z/3 factor
    of d_2, d_4 and d_6."""
    from opbar.barcat import group_bar_complex
    from opbar.symgrp import Perm
    taken = []
    take_units = _ZWorker._take_units

    def counted(self):
        taken.append(take_units(self))
        return taken[-1]
    monkeypatch.setattr(_ZWorker, "_take_units", counted)
    bar = group_bar_complex(Z, 3, [Perm((2, 3, 1))], 6)
    counts, factors = {}, {}
    for e, m in sorted(bar.complex.diff.items()):
        factors[e] = snf_diagonal(m)
        counts[e] = (taken[-1], len(factors[e]) - taken[-1])
    assert counts == {2: (2, 1), 3: (6, 0), 4: (20, 1), 5: (60, 0),
                      6: (182, 1)}
    assert {e: [f for f in fs if f != 1] for e, fs in factors.items()} == \
        {2: [3], 3: [], 4: [3], 5: [], 6: [3]}


@pytest.mark.parametrize("rows", [[[3, 3], [0, 3]], [[2, 2], [2, 2]], [[-2, 2], [2, 2]]])
def test_snf_on_blocks_with_equal_entries(rows):
    """A 2x2 step on equal entries a, a subtracts the pivot row or column:
    xgcd(a, a) gives the swap x = 0, y = 1, on which the dense loop would
    cycle.  With and without U, against sympy."""
    a = Mat.from_rows(Z, rows)
    assert snf_diagonal(a) == _sympy_invariants(a)
    r, U, Uinv = _worker_transforms(a)
    assert r == len(_sympy_invariants(a))
    assert U.mul(Uinv) == Mat.identity(Z, 2)
    assert all(i < r for i, _ in U.mul(a).d)


def test_stored_zero_is_no_entry():
    """A `Mat` built from entries that hold an explicit 0: the constructor
    drops it, so every kernel reads it as no entry, over each ring."""
    def with_d(ring, m, n, d):
        return Mat(ring, m, n, d)
    z = with_d(Z, 2, 2, {(0, 0): 0, (0, 1): 2, (1, 0): 3})
    assert snf_diagonal(z) == [1, 6]  # looped forever on the pivot 0
    assert field_rank(z) == 2
    assert field_rank(with_d(Z, 1, 1, {(0, 0): 0})) == 0
    assert snf_diagonal(with_d(Z, 1, 1, {(0, 0): 0})) == []
    f3 = Ring.Fp(3)
    assert field_rank(with_d(f3, 2, 2, {(0, 0): 0, (0, 1): 1, (1, 0): 1})) == 2
    assert field_solve_mat(Mat.identity(f3, 1),
                           with_d(f3, 1, 1, {(0, 0): 0})) == Mat(f3, 1, 1)
    q = with_d(Q, 2, 2, {(0, 0): Fraction(0), (0, 1): Fraction(1, 2)})
    assert field_rank(q) == 1
    assert field_solve_mat(q, with_d(Q, 2, 1, {(0, 0): Fraction(1), (1, 0): Fraction(0)})) \
        == Mat(Q, 2, 1, {(1, 0): Fraction(2)})


@pytest.mark.parametrize("ring", [Z, Q, Ring.Fp(3), Ring.novikov(Q, 2, 2)],
                         ids=repr)
def test_no_builder_leaves_a_stored_zero(ring):
    """Every public builder and operation drops its zeros, so `is_zero` and
    `==` agree with the entrywise oracle on `to_rows`."""
    F2 = Ring.Fp(2)
    one, two = ring.one, ring.from_int(2)
    a = Mat.from_rows(ring, [[1, 0, 2], [0, -1, 0]])
    b = Mat.from_rows(ring, [[1], [1], [0]])  # a b: 1 - 0 and 0 - 1, no cancel
    c = Mat.from_rows(ring, [[1, 1]])
    d = Mat.from_rows(ring, [[1], [-1]])  # c d = 1 - 1 cancels
    s = Mat.from_rows(ring, [[1, 0], [0, 1]])
    s.set(0, 0, ring.zero)
    s.set(1, 1, ring.add(one, ring.neg(one)))
    built = {
        "constructor": Mat(ring, 2, 2, {(0, 0): ring.zero, (1, 1): one}),
        "from_rows": Mat.from_rows(ring, [[0, 0], [0, 3]]),
        "set": s,
        "add": a.add(a.neg()),
        "sub": a.sub(a),
        "scale": a.scale(ring.zero),
        "mul": c.mul(d),
        "mul, no cancel": a.mul(b),
        "map_ring": a.map_ring(F2, lambda v: 2),
        "map_ring, odd": a.map_ring(F2, lambda v: 3),
    }
    if ring.p:
        built["scale by p"] = a.scale_int(ring.p)
    for name, m in built.items():
        r = m.ring
        assert not any(r.is_zero(v) for v in m.d.values()), name
        rows = m.to_rows()
        assert m.is_zero() == all(r.is_zero(v) for row in rows for v in row), name
        for other in built.values():
            same = (other.ring, other.nrows, other.ncols) == (r, m.nrows, m.ncols)
            assert (m == other) == (same and other.to_rows() == rows), name
    assert built["constructor"] == Mat.from_rows(ring, [[0, 0], [0, 1]])
    assert built["from_rows"] == Mat(ring, 2, 2, {(1, 1): ring.from_int(3)})
    for name in ("set", "add", "sub", "scale", "mul", "map_ring", "scale by p"):
        assert built.get(name, Mat(ring, 0, 0)).is_zero(), name
    assert built["mul, no cancel"] == Mat.from_rows(ring, [[1], [-1]])
    assert built["map_ring, odd"] == Mat(F2, 2, 3, {(0, 0): 1, (0, 2): 1, (1, 1): 1})
    assert two and built["constructor"] != Mat.from_rows(ring, [[0, 0], [0, 2]])


# -- the row transform of the Smith diagonalization --------------------------


def _worker_transforms(a: Mat):
    """(r, U, U^-1) from one diagonalization of a that tracks U."""
    w = _ZWorker(a, track_u=True)
    r = len(w.diagonalize())
    U = Mat(Z, a.nrows, a.nrows, {(i, k): v for i, row in w.U.items()
                                  for k, v in row.items()})
    Uinv = Mat(Z, a.nrows, a.nrows, {(i, k): v for k, col in w.Uinv.items()
                                     for i, v in col.items()})
    return r, U, Uinv


def _random_z_cases(rng):
    """Seeded integer matrices, every third without a +-1 entry so that the
    2x2 gcd step runs, plus empty shapes."""
    cases = [Mat.zeros(Z, m, n) for m, n in ((0, 3), (3, 0), (2, 2))]
    for t in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        if t % 3:
            cases.append(_random_int_mat(rng, m, n, density=0.5))
        else:
            a = Mat.zeros(Z, m, n)
            for i in range(m):
                for j in range(n):
                    if rng.random() < 0.6:
                        a.set(i, j, rng.choice((-6, -4, -3, -2, 2, 3, 4, 6, 9)))
            cases.append(a)
    return cases


def test_zworker_tracks_u_inverse(monkeypatch):
    mixes = []
    real_mix = linalg._mix

    def counting(*args):
        mixes.append(args)
        return real_mix(*args)
    monkeypatch.setattr(linalg, "_mix", counting)
    for a in _random_z_cases(random.Random(43)):
        _, U, Uinv = _worker_transforms(a)
        one = Mat.identity(Z, a.nrows)
        assert U.mul(Uinv) == one, a.to_rows()
        assert Uinv.mul(U) == one, a.to_rows()
    assert mixes  # the 2x2 gcd step and its inverse ran


def test_zworker_rows_past_the_rank_annihilate_the_input():
    for a in _random_z_cases(random.Random(47)):
        r, U, _ = _worker_transforms(a)
        assert r == len(snf_diagonal(a))
        assert all(i < r for i, _ in U.mul(a).d), a.to_rows()


def _direct_summand_span(rng, n, r, extra):
    """r columns of a random unimodular n x n matrix W, in random order,
    plus `extra` integer combinations of them: a span that is a direct
    summand of Z^n of rank r."""
    w = random_unitriangular(rng, Z, n).mul(
        random_unitriangular(rng, Z, n).transpose())
    perm = list(range(n))
    rng.shuffle(perm)
    cols = w.columns()
    rels = [{perm[i]: v for i, v in cols.get(j, {}).items()}
            for j in rng.sample(range(n), r)]
    for _ in range(extra):
        vec = {}
        for rel in rels[:r]:
            c = rng.randint(-2, 2)
            for i, v in rel.items():
                vec[i] = vec.get(i, 0) + c * v
        vec = {i: v for i, v in vec.items() if v}
        if vec:
            rels.append(vec)
    rng.shuffle(rels)
    return rels


def test_by_z_span_on_direct_summands(monkeypatch):
    sections = []
    real_assemble = quotient._assemble

    def recording(C, basis, proj, section):
        sections.append(section)
        return real_assemble(C, basis, proj, section)
    monkeypatch.setattr(quotient, "_assemble", recording)
    rng = random.Random(53)
    for _ in range(12):
        dims = {d: rng.randint(1, 6) for d in (0, 1)}
        C = ChainComplex.free(Z, {d: [f"e{d}_{i}" for i in range(n)]
                                  for d, n in dims.items()}, {})
        spans, ranks = {}, {}
        for d, n in dims.items():
            ranks[d] = rng.randint(0, n)
            spans[d] = _direct_summand_span(rng, n, ranks[d], rng.randint(0, 2))
        quot, proj = by_z_span(C, spans)
        section = sections.pop()
        for d, n in dims.items():
            q = n - ranks[d]
            assert quot.dim(d) == q
            P, S = proj.mat(d), section[d]
            assert (P.nrows, P.ncols, S.nrows, S.ncols) == (q, n, n, q)
            assert P.mul(S) == Mat.identity(Z, q)
            R = Mat(Z, n, len(spans[d]), {(i, j): v
                                          for j, vec in enumerate(spans[d])
                                          for i, v in vec.items()})
            assert P.mul(R).is_zero()


def test_by_z_span_takes_unit_pivots_while_tracking_u(monkeypatch):
    """Relations with +-1 entries are pivots of the unit phase though U is
    tracked; the one without goes to the dense loop.  P R = 0, P S = 1."""
    taken, sections = [], []
    take_units, real_assemble = _ZWorker._take_units, quotient._assemble

    def counted(self):
        assert self.U is not None
        taken.append(take_units(self))
        return taken[-1]

    def recording(C, basis, proj, section):
        sections.append(section)
        return real_assemble(C, basis, proj, section)
    monkeypatch.setattr(_ZWorker, "_take_units", counted)
    monkeypatch.setattr(quotient, "_assemble", recording)
    C = ChainComplex.free(Z, {0: [f"e{i}" for i in range(5)]}, {})
    rels = [{0: 1, 2: 3}, {1: -1, 2: 2, 4: 5}, {3: 2, 4: 3}]
    quot, proj = by_z_span(C, {0: rels})
    assert taken == [2] and quot.dim(0) == 2
    P, S = proj.mat(0), sections[0][0]
    R = Mat(Z, 5, 3, {(i, j): v for j, vec in enumerate(rels) for i, v in vec.items()})
    assert P.mul(R).is_zero()
    assert P.mul(S) == Mat.identity(Z, 2)


def test_field_rank_against_sympy_random_q():
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_int_mat(rng, m, n).map_ring(Q, Q.canon)
        assert field_rank(a) == _sympy_of(a).rank()


def _sympy_rank(a: Mat) -> int:
    if a.ring.kind != "Fp":
        return _sympy_of(a).rank()
    dom = GF(a.ring.p)
    rows = [[dom(v) for v in row] for row in a.to_rows()]
    return DomainMatrix(rows, (a.nrows, a.ncols), dom).rank()


@pytest.mark.parametrize("ring", [Q, Ring.Fp(2), Ring.Fp(3), Ring.Fp(5)],
                         ids=repr)
def test_field_rank_matches_rref_and_sympy(ring):
    rng = random.Random(f"field_rank:{ring!r}")
    cases = []
    for _ in range(15):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(_random_mat(rng, ring, m, n, rng.choice((0.2, 0.5, 0.8))))
        # rank at most r, with zero rows wherever the left factor has one
        r = rng.randint(1, 3)
        cases.append(_random_mat(rng, ring, m, r).mul(
            _random_mat(rng, ring, r, n)))
    x, y = ring.from_int(2), ring.from_int(3)
    cases.append(Mat.from_rows(ring, [[x, y, 0], [0, 0, 0], [x, y, 0]]))
    cases += [Mat.zeros(ring, m, n) for m, n in ((0, 0), (0, 4), (4, 0), (3, 3))]
    ranks = []
    for a in cases:
        want = len(sympy_rref(ring, a.to_rows(), a.ncols))
        assert field_rank(a) == want == _sympy_rank(a), a.to_rows()
        ranks.append(want < min(a.nrows, a.ncols))
    assert any(ranks) and not all(ranks)
    if ring.kind == "Q":
        assert any(v.denominator > 1 for a in cases for v in a.d.values())


def test_field_rank_over_z_is_the_rational_rank():
    assert field_rank(Mat.from_rows(Z, [[2, 4], [1, 2]])) == 1
    assert field_rank(Mat.from_rows(Z, [[2, 4], [0, 6]])) == 2


def test_field_solve():
    rng = random.Random(19)
    for t in range(20):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), 1 + t % 4
        a = _random_int_mat(rng, m, n, density=0.6).map_ring(Q, Q.canon)
        x = _random_int_mat(rng, n, k, density=0.6).map_ring(Q, Q.canon)
        b = a.mul(x)
        sol = field_solve_mat(a, b)
        assert sol is not None and (sol.nrows, sol.ncols) == (n, k)
        assert a.mul(sol) == b
    # inconsistent systems: one column, and one bad column among good ones
    bad = Mat.from_rows(Q, [[1], [1]])
    assert field_solve_mat(bad, Mat.from_rows(Q, [[1], [2]])) is None
    assert field_solve_mat(bad, Mat.from_rows(Q, [[1, 3, 0], [1, 2, 0]])) is None
    assert field_solve_mat(bad, Mat.from_rows(Q, [[1, 3, 0], [1, 3, 0]])) == \
        Mat.from_rows(Q, [[1, 3, 0]])


def _oracle_field_solve_mat(mat: Mat, rhs: Mat):
    """mat @ X = rhs solved column by column by sympy: the rref of
    [mat | column] is inconsistent when its last column is a pivot, and
    otherwise sets each pivot variable to its row's last entry, the free
    variables to 0."""
    ring, n = mat.ring, mat.ncols
    out = Mat(ring, n, rhs.ncols)
    rows, b = mat.to_rows(), rhs.to_rows()
    for c in range(rhs.ncols):
        R = sympy_rref(ring, [row + [b[i][c]] for i, row in enumerate(rows)], n + 1)
        if n in R:
            return None
        for j, row in R.items():
            if n in row:
                out.set(j, c, row[n])
    return out


@pytest.mark.parametrize("ring", [Q, Ring.Fp(2), Ring.Fp(5)], ids=repr)
def test_field_solve_mat_matches_per_column_oracle(ring):
    rng = random.Random(f"field_solve_mat:{ring!r}")
    outcomes = set()
    for t in range(60):
        shape = ("square", "tall", "wide")[t % 3]
        n = rng.randint(1, 6)
        m = {"square": n, "tall": n + rng.randint(1, 3),
             "wide": max(1, n - rng.randint(1, 3))}[shape]
        a = _random_mat(rng, ring, m, n, rng.choice((0.3, 0.6, 0.9)))
        k = rng.randint(1, 5)
        if rng.random() < 0.7:
            b = a.mul(_random_mat(rng, ring, n, k))   # consistent
        else:
            b = _random_mat(rng, ring, m, k)          # often inconsistent
        want = _oracle_field_solve_mat(a, b)
        got = field_solve_mat(a, b)
        assert got == want, (a.to_rows(), b.to_rows())
        if got is not None:
            assert a.mul(got) == b
        outcomes.add((shape, got is None))
    assert len(outcomes) >= 5


def test_mat_mul_matches_sympy():
    rng = random.Random(23)
    a = _random_int_mat(rng, 4, 5)
    b = _random_int_mat(rng, 5, 3)
    ours = _sympy_of(a.mul(b))
    assert ours == _sympy_of(a) * _sympy_of(b)


# -- the product against the per-entry loop --------------------------------


def _oracle_mul(a: Mat, b: Mat) -> dict:
    """The entries of a * b from one Ring.mul and one Ring.add per scalar
    product: the loop Mat.mul ran before it cleared denominators."""
    ring = a.ring
    by_row = {}
    for (j, k), w in b.d.items():
        by_row.setdefault(j, []).append((k, w))
    acc = {}
    for (i, j), v in a.d.items():
        for k, w in by_row.get(j, ()):
            key = (i, k)
            prod = ring.mul(v, w)
            acc[key] = ring.add(acc[key], prod) if key in acc else prod
    return {key: v for key, v in acc.items() if not ring.is_zero(v)}


def _random_scalar(rng, ring):
    if ring.kind == "Q":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 12))
    if ring.kind == "Fp":
        return rng.randrange(ring.p)
    return rng.randint(-4, 4)


def _random_entry(rng, ring):
    """A random element; over Novikov, up to three terms on the grid below
    the cutoff, so that products also land exactly on and past it."""
    if ring.kind != "nov":
        return ring.canon(_random_scalar(rng, ring))
    steps = -(-ring.cutoff.numerator * ring.grid // ring.cutoff.denominator)
    terms = [(Fraction(rng.randrange(steps), ring.grid),
              _random_scalar(rng, ring.base)) for _ in range(rng.randint(1, 3))]
    return ring.canon(terms)


def _random_mat(rng, ring, m, n, density=0.5):
    a = Mat.zeros(ring, m, n)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                a.set(i, j, _random_entry(rng, ring))
    return a


def _cancelling_pair(rng, ring, m, n):
    """a (m x 2) with equal columns and b (2 x n) with opposite rows: every
    scalar product has a partner that cancels it, so a * b = 0."""
    def nonzero():
        v = _random_entry(rng, ring)
        return v if not ring.is_zero(v) else nonzero()

    a, b = Mat.zeros(ring, m, 2), Mat.zeros(ring, 2, n)
    for i in range(m):
        v = nonzero()
        a.set(i, 0, v)
        a.set(i, 1, v)
    for k in range(n):
        v = nonzero()
        b.set(0, k, v)
        b.set(1, k, ring.neg(v))
    return a, b


PRODUCT_RINGS = [
    Z, Ring.Fp(2), Ring.Fp(3), Ring.Fp(5), Q,
    Ring.novikov(Q, 2, 2),
    Ring.novikov(Q, Fraction(3, 4), 4),
    Ring.novikov(Ring.Fp(3), 1, 3),
    Ring.novikov(Q, Fraction(3, 4), 2),  # c * q = 3/2 is off the grid
]


def _assert_product_as_oracle(a, b):
    got = a.mul(b)
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    _assert_entries(got, _oracle_mul(a, b))
    return got


def _assert_entries(got: Mat, want: dict):
    """got.d is want, value for value and type for type."""
    assert got.d == want
    assert {k: repr(v) for k, v in got.d.items()} == \
        {k: repr(v) for k, v in want.items()}
    ring = got.ring
    for v in got.d.values():
        if ring.kind == "Q":
            assert type(v) is Fraction
        elif ring.kind == "nov":
            assert all(type(e) is Fraction for e, _ in v)
            if ring.base.kind == "Q":
                assert all(type(c) is Fraction for _, c in v)
            else:
                assert all(type(c) is int for _, c in v)
        else:
            assert type(v) is int


def _with_unit_columns(rng, a):
    """a with about half its columns replaced by a unit entry (r, 1)."""
    ent = dict(a.d)
    for j in range(a.ncols):
        if a.nrows and rng.random() < 0.5:
            ent = {k: v for k, v in ent.items() if k[1] != j}
            ent[(rng.randrange(a.nrows), j)] = a.ring.one
    return Mat(a.ring, a.nrows, a.ncols, ent)


def _slice0(ring, f):
    """The form that holds the entries 1 of a column form f: f itself, over
    Novikov its slice 0."""
    return f[0] if ring.kind == "nov" else f


def _unit_column_map(rng, ring, n, k, one):
    """An n x k map whose every column is the single entry one."""
    return Mat(ring, n, k, {(rng.randrange(n), j): one for j in range(k)})


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=repr)
def test_mat_mul_matches_per_entry_loop(ring):
    rng = random.Random(f"mat_mul:{ring!r}")
    for _ in range(12):
        m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        _assert_product_as_oracle(_random_mat(rng, ring, m, n),
                                  _random_mat(rng, ring, n, k, 0.4))
        # the paths column_product shortcuts: unit columns, and maps whose
        # every column is a unit entry, over Q also 1/3 (the int 1 over 3)
        _assert_product_as_oracle(
            _random_mat(rng, ring, m, n),
            _with_unit_columns(rng, _random_mat(rng, ring, n, k, 0.4)))
        ones = [ring.one] + ([Fraction(1, 3)] if ring.kind == "Q" else [])
        for one in ones:
            f = _unit_column_map(rng, ring, n, k, one)
            assert _slice0(ring, linalg.column_form(ring, f))[2] is not None
            _assert_product_as_oracle(_random_mat(rng, ring, m, n), f)
    for m, n, k in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)):
        got = _assert_product_as_oracle(_random_mat(rng, ring, m, n),
                                        _random_mat(rng, ring, n, k))
        assert got.is_zero()
    assert _assert_product_as_oracle(Mat.zeros(ring, 2, 3),
                                     _random_mat(rng, ring, 3, 2)).is_zero()
    a, b = _cancelling_pair(rng, ring, 4, 3)
    assert a.d and b.d
    assert _assert_product_as_oracle(a, b).is_zero()


def test_mat_mul_q_denominators_1_to_12():
    rng = random.Random(12)
    dens = range(1, 13)
    a = Mat.zeros(Q, 12, 12)
    b = Mat.zeros(Q, 12, 12)
    for i in range(12):
        for j in range(12):
            a.set(i, j, Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), dens[j]))
            b.set(i, j, Fraction(rng.randint(-5, 5), dens[i]))
    _assert_product_as_oracle(a, b)
    # a product whose entries cancel to an integer and to zero
    c = Mat.from_rows(Q, [[Fraction(1, 6), Fraction(1, 3)]])
    d = Mat.from_rows(Q, [[Fraction(3), Fraction(-2)], [Fraction(3, 2), 1]])
    assert _assert_product_as_oracle(c, d).d == {(0, 0): Fraction(1)}


def test_mat_mul_novikov_on_the_cutoff():
    nov = Ring.novikov(Q, Fraction(3, 4), 4)
    t = nov.monomial(1, Fraction(1, 4))
    t2 = nov.monomial(Fraction(1, 2), Fraction(1, 2))
    a = Mat.zeros(nov, 1, 2)
    a.set(0, 0, nov.add(nov.one, t2))
    a.set(0, 1, t)
    b = Mat.zeros(nov, 2, 1)
    b.set(0, 0, nov.add(t, t2))
    b.set(1, 0, t2)
    # (1 + T^1/2 / 2)(T^1/4 + T^1/2 / 2) + T^1/4 T^1/2 / 2: the T^3/4 terms
    # land on the cutoff and are dropped
    got = _assert_product_as_oracle(a, b)
    assert got.d == {(0, 0): ((Fraction(1, 4), Fraction(1)),
                              (Fraction(1, 2), Fraction(1, 2)))}


def test_mat_mul_calls_no_ring_arithmetic(monkeypatch):
    rng = random.Random(5)
    pairs = []
    for ring in (Q, Ring.novikov(Q, 2, 2)):
        pairs.append((_random_mat(rng, ring, 6, 6), _random_mat(rng, ring, 6, 6)))
    calls = {"mul": 0, "add": 0}

    def counting(name):
        real = getattr(Ring, name)

        def wrapped(self, x, y):
            calls[name] += 1
            return real(self, x, y)
        return wrapped

    monkeypatch.setattr(Ring, "mul", counting("mul"))
    monkeypatch.setattr(Ring, "add", counting("add"))
    for a, b in pairs:
        assert not a.mul(b).is_zero()
    assert calls == {"mul": 0, "add": 0}
    assert _oracle_mul(*pairs[0]) and calls["mul"] > 0  # the counters count


def _random_blocks(rng, ring, nrows, ncols):
    """Placed blocks (m, row_offset, col_offset, sign) inside nrows x ncols:
    random ones (over Q with denominators 2 and 3), row maps, empty ones,
    and pairs that cancel where they overlap."""
    blocks = []
    for _ in range(rng.randint(0, 6)):
        r, c = rng.randint(0, nrows), rng.randint(0, ncols)
        r0, c0 = rng.randint(0, nrows - r), rng.randint(0, ncols - c)
        kind = rng.randrange(4)
        if kind == 0 and r:
            m = linalg.row_map(ring, r, [rng.randrange(r) for _ in range(c)])
        elif kind == 1:
            m = Mat.zeros(ring, r, c)
        else:
            m = _random_mat(rng, ring, r, c)
            if ring.kind == "Q":
                den = rng.choice((2, 3))
                m = Mat(ring, r, c, {k: Fraction(rng.randint(-6, 6), den)
                                     for k in m.d})
        sign = rng.choice((1, -1))
        blocks.append((m, r0, c0, sign))
        if kind == 3:  # the same block again with the other sign
            blocks.append((m, r0, c0, -sign))
    return blocks


@pytest.mark.parametrize("ring", [Z, Q, Ring.Fp(3), Ring.novikov(Q, 2, 2)],
                         ids=repr)
def test_block_matrix_matches_the_ring_arithmetic_sum(ring):
    rng = random.Random(f"block_matrix:{ring!r}")
    cancelled = 0
    for _ in range(40):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        blocks = _random_blocks(rng, ring, nrows, ncols)
        got = linalg.block_matrix(ring, nrows, ncols, blocks)
        want = ring_block_sum(ring, nrows, ncols, blocks)
        assert (got.nrows, got.ncols) == (nrows, ncols)
        _assert_entries(got, want.d)
        assert got._form is not None  # kept from construction
        assert linalg.columns_equal(ring, linalg.form(got),
                                    linalg.column_form(ring, got))
        cancelled += any(b[0].d and b[3] != a[3] and b[0] is a[0]
                         for a, b in zip(blocks, blocks[1:]))
    assert cancelled  # the sweep reached a cancelling pair


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=repr)
def test_column_product_matches_mat_mul(ring):
    # against the per-entry loop, not Mat.mul, which runs column_product
    rng = random.Random(f"column_product:{ring!r}")
    for trial in range(16):
        m, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        g = _random_mat(rng, ring, m, n)
        f = _random_mat(rng, ring, n, k, 0.4)
        if trial % 2:
            f = _with_unit_columns(rng, f)
        if trial % 4 == 3:
            # every column the int entry 1: the whole-map path, over Q also
            # with a denominator (1/3 is the int 1 over 3)
            one = Fraction(1, 3) if ring.kind == "Q" and trial % 8 == 7 \
                else ring.one
            f = _unit_column_map(rng, ring, n, k, one)
            assert _slice0(ring, linalg.column_form(ring, f))[2] is not None
        got = linalg.column_product(ring, linalg.column_form(ring, g),
                                    linalg.column_form(ring, f))
        want = Mat(ring, m, k, _oracle_mul(g, f))
        assert linalg.columns_equal(ring, got, linalg.column_form(ring, want))
        assert linalg.columns_equal(ring, linalg.column_form(ring, want), got)
        if want.d:
            key = rng.choice(sorted(want.d))
            bad = Mat(ring, m, k, {**want.d, key: ring.add(want.d[key], ring.one)})
            assert not linalg.columns_equal(ring, got,
                                            linalg.column_form(ring, bad))


@pytest.mark.parametrize("ring", [Z, Q, Ring.Fp(3), Ring.novikov(Q, 2, 2)],
                         ids=repr)
def test_row_map_stores_the_form_that_column_form_computes(ring, monkeypatch):
    """A row map (and `Mat.identity`) carries its form (1, None, rows) from
    construction, with no values and no columns until read; any other
    matrix is formed once, on first use, and `set` drops the kept form."""
    rng = random.Random(f"row_map:{ring!r}")
    column_form, formed = linalg.column_form, []
    unit_columns, built = linalg._unit_columns, []

    def counting_form(ring, m):
        formed.append(m)
        return column_form(ring, m)

    def counting_unit_columns(rows):
        built.append(rows)
        return unit_columns(rows)
    monkeypatch.setattr(linalg, "column_form", counting_form)
    monkeypatch.setattr(linalg, "_unit_columns", counting_unit_columns)
    shapes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(12)]
    for nrows, ncols in shapes + [(3, 0), (0, 0)]:
        rows = [rng.randrange(nrows) for _ in range(ncols)]
        want = Mat(ring, nrows, ncols, {(r, j): ring.one for j, r in enumerate(rows)})
        m = linalg.row_map(ring, nrows, rows)
        stored = linalg.form(m)
        assert formed == [] and built == []  # set at construction, not formed
        assert m._d is None  # restored on first read
        # the rows, over Novikov in slice 0, which is None without columns
        assert _slice0(ring, stored) == ((1, None, rows) if ncols or ring.kind != "nov"
                                         else None)
        assert m == want and m.d == want.d
        assert m._d is not None and linalg.form(m) is stored
        assert linalg.form(want) is linalg.form(want) == stored
        assert formed == [want]  # formed once, on first use
        # the columns, built on demand, are the interned unit columns
        unit, again = (linalg._cols(_slice0(ring, f) or (1, None, []))
                       for f in (stored, linalg.form(linalg.row_map(ring, nrows, rows))))
        assert len(unit) == ncols
        assert all(col is again[j] == {rows[j]: 1} for j, col in enumerate(unit))
        ident = Mat.identity(ring, nrows)
        assert linalg.form(ident) == column_form(ring, ident)
        assert formed == [want]  # the identity is a row map
        if ncols:
            m.set(rows[0], 0, ring.zero)
            assert m._form is None
            assert linalg.form(m) == column_form(ring, m)
            assert formed == [want, m]
        formed.clear()
        built.clear()


def test_columns_equal_cross_multiplies_denominators():
    half = Mat.from_rows(Q, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    a = linalg.column_form(Q, half)
    b = (6, [{0: 3}, {1: 2}], None)
    assert a[0] == 6 and linalg.columns_equal(Q, a, b)
    assert linalg.columns_equal(Q, a, (12, [{0: 6}, {1: 4}], None))
    assert not linalg.columns_equal(Q, a, (12, [{0: 6}, {1: 3}], None))
    assert not linalg.columns_equal(Q, a, (12, [{0: 6}, {0: 4}], None))
    assert linalg.columns_equal(Q, linalg.column_form(Q, Mat.identity(Q, 2)),
                                (3, [{0: 3}, {1: 3}], None))
    # row maps compare their rows at one den: 1/3 at each unit entry is no
    # identity, but it is 2/6 there
    third = linalg.column_form(Q, Mat(Q, 2, 2, {(0, 0): Fraction(1, 3),
                                                (1, 1): Fraction(1, 3)}))
    assert third == (3, None, [0, 1])
    assert not linalg.columns_equal(Q, third, linalg.form(Mat.identity(Q, 2)))
    assert not linalg.columns_equal(Q, linalg.form(Mat.identity(Q, 2)), third)
    assert linalg.columns_equal(Q, third, (3, None, [0, 1]))
    assert not linalg.columns_equal(Q, third, (3, None, [1, 0]))
    assert linalg.columns_equal(Q, third, (6, [{0: 2}, {1: 2}], None))
    assert linalg.columns_equal(Q, (1, None, []), (3, None, []))
    nov = Ring.novikov(Q, 2, 2)
    assert linalg.columns_equal(nov, linalg.column_form(nov, Mat.identity(nov, 2)),
                                [(3, [{0: 3}, {1: 3}], None), None, None, None])
    assert not linalg.columns_equal(nov, linalg.column_form(nov, Mat.identity(nov, 2)),
                                    [(3, [{}, {1: 3}], None), (3, [{0: 3}, {}], None),
                                     None, None])


@pytest.mark.parametrize("ring", [Ring.novikov(Q, 2, 2), Ring.novikov(Q, Fraction(3, 4), 4),
                                  Ring.novikov(Ring.Fp(3), 1, 3)], ids=repr)
def test_every_zero_slice_is_none(ring):
    """A Novikov form holds None for every zero slice: of a zero matrix, of
    a row map without columns, and of a product and a block sum whose
    T^(1/q) terms cancel; a row map's form holds the matrix that the
    constructor builds from the same entries."""
    t = ring.monomial(1, Fraction(1, ring.grid))
    one_plus_t, minus_t = ring.add(ring.one, t), ring.neg(t)
    g = Mat(ring, 1, 2, {(0, 0): ring.one, (0, 1): ring.one})
    f = Mat(ring, 2, 1, {(0, 0): one_plus_t, (1, 0): minus_t})
    a, b = Mat(ring, 1, 1, {(0, 0): one_plus_t}), Mat(ring, 1, 1, {(0, 0): minus_t})
    built = {
        "zero": Mat.zeros(ring, 3, 2),
        "row map without columns": linalg.row_map(ring, 3, []),
        "identity without columns": Mat.identity(ring, 0),
        "product": g.mul(f),
        "block sum": linalg.block_matrix(ring, 1, 1, [(a, 0, 0, 1), (b, 0, 0, 1)]),
    }
    for name, m in built.items():
        kept = linalg.form(m)
        assert len(kept) == math.ceil(ring.cutoff * ring.grid), name
        assert all(s is None or any(linalg._cols(s)) for s in kept), name
        assert linalg.columns_equal(ring, kept, linalg.column_form(ring, m)), name
    for name in ("zero", "row map without columns", "identity without columns"):
        assert linalg.form(built[name]) == [None] * len(linalg.form(built[name]))
    for name in ("product", "block sum"):  # slice 1 cancels, slice 0 is 1
        assert built[name].d == {(0, 0): ring.one}, name
        assert linalg.form(built[name])[1] is None, name
    for nrows, rows in ((3, []), (3, [2, 0, 2]), (1, [0])):
        want = Mat(ring, nrows, len(rows), {(r, j): ring.one for j, r in enumerate(rows)})
        kept = linalg.form(linalg.row_map(ring, nrows, rows))
        # slice 0 is the row map's rows, with no columns
        assert kept[0] == ((1, None, rows) if rows else None)
        assert linalg.columns_equal(ring, kept, linalg.column_form(ring, want))


@pytest.mark.parametrize("exponent", [Fraction(1, 3), Fraction(-1, 2)])
def test_mat_mul_off_grid_exponent_raises(exponent):
    nov = Ring.novikov(Q, 2, 2)
    good = Mat.identity(nov, 1)
    bad = Mat(nov, 1, 1, {(0, 0): ((exponent, Fraction(1)),)})
    with pytest.raises(NonGridExponent):
        bad.mul(good)
    with pytest.raises(NonGridExponent):
        good.mul(bad)


# -- values restored on first read ----------------------------------------------

LAZY_RINGS = [Z, Q, Ring.Fp(2), Ring.Fp(3), Ring.novikov(Q, 2, 2),
              Ring.novikov(Ring.Fp(3), 1, 3)]


def _built_from_forms(rng, ring):
    """[(kind, build, eager)]: build() makes a fresh matrix from its form,
    its values not yet restored, and eager holds the same matrix's entries
    computed in Ring arithmetic.  Row maps, products, placed sums and the
    differentials of a cone (a `complexes.total`)."""
    cases = []
    for _ in range(5):
        n, k = rng.randint(1, 5), rng.randint(0, 5)
        rows = [rng.randrange(n) for _ in range(k)]
        cases.append(("row map", lambda n=n, rows=rows: linalg.row_map(ring, n, rows),
                      {(r, j): ring.one for j, r in enumerate(rows)}))
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _random_mat(rng, ring, m, n, 0.7), _random_mat(rng, ring, n, k, 0.7)
        if rng.random() < 0.5:
            b = _with_unit_columns(rng, b)
        if not (a.is_zero() or b.is_zero()):  # else Mat.mul builds 0 without a form
            cases.append(("product", lambda a=a, b=b: a.mul(b), _oracle_mul(a, b)))
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        blocks = _random_blocks(rng, ring, nrows, ncols)
        cases.append(("placed sum", lambda r=nrows, c=ncols, bl=blocks:
                      linalg.block_matrix(ring, r, c, bl),
                      ring_block_sum(ring, nrows, ncols, blocks).d))
    f = random_chain_map(rng, ring)
    S, T = f.source, f.target
    for D, m in cone(f).diff.items():
        blocks = [(T.diff.get(D), 0, 0, 1), (f.mats.get(D - 1), 0, T.dim(D), 1),
                  (S.diff.get(D - 1), T.dim(D - 1), T.dim(D), -1)]
        eager = ring_block_sum(ring, m.nrows, m.ncols, [b for b in blocks if b[0]])
        cases.append(("total", lambda D=D: cone(f).diff[D], eager.d))
    return cases


def _typed(x):
    """x with every value as its repr, so that equal results of different
    types (1 and Fraction(1)) differ; a Mat as its ring, shape and entries."""
    if isinstance(x, Mat):
        return repr(x.ring), x.nrows, x.ncols, _typed(x.d)
    if isinstance(x, dict):
        return sorted((k, _typed(v)) for k, v in x.items())
    if isinstance(x, list):
        return [_typed(v) for v in x]
    return repr(x)


@pytest.mark.parametrize("ring", LAZY_RINGS, ids=repr)
def test_restored_values_equal_the_eager_ones(ring):
    """A matrix built from its form restores on first read the values that
    Ring arithmetic computes, value for value and type for type, and every
    reader gives what it gives on the matrix built from those values."""
    rng = random.Random(f"lazy:{ring!r}")
    double = lambda v: ring.add(v, v)
    readers = {
        "==": lambda x: (x == want, want == x, x == Mat.zeros(ring, x.nrows, x.ncols)),
        "is_zero": Mat.is_zero,
        "clone": Mat.clone,
        "column": lambda x: [x.column(j) for j in range(x.ncols)],
        "columns": Mat.columns,
        "transpose": Mat.transpose,
        "neg": Mat.neg,
        "map_ring": lambda x: x.map_ring(ring, double),
    }
    kinds, nonzero = set(), set()
    for kind, build, eager in _built_from_forms(rng, ring):
        m = build()
        assert m._d is None and m._form is not None, kind
        assert m.is_zero() == (not eager) and m._d is None, kind  # read off the form
        _assert_entries(m, eager)
        assert linalg.columns_equal(ring, m._form, linalg.column_form(ring, m)), kind
        want = Mat(ring, m.nrows, m.ncols, eager)
        for name, read in readers.items():
            x = build()
            assert _typed(read(x)) == _typed(read(want)), (kind, name)
        clone = build().clone()
        assert clone._d is None and _typed(clone) == _typed(want), kind
        kinds.add(kind)
        if eager:
            nonzero.add(kind)
    assert kinds == nonzero == {"row map", "product", "placed sum", "total"}


@pytest.mark.parametrize("ring", LAZY_RINGS, ids=repr)
def test_writes_to_an_unrestored_matrix_keep_every_other_entry(ring):
    """`set`, `add_to` and `add` (a clone, then `add_to`) restore the values
    before they drop the kept form."""
    rng = random.Random(f"lazy writes:{ring!r}")
    for kind, build, eager in _built_from_forms(rng, ring):
        m = build()
        if not m.ncols or not m.nrows:
            continue
        key = (rng.randrange(m.nrows), rng.randrange(m.ncols))
        v = _random_entry(rng, ring)
        for write, value in (("set", v), ("add_to", ring.add(eager.get(key, ring.zero), v))):
            x = build()
            getattr(x, write)(*key, v)
            assert x._form is None, (kind, write)
            want = {k: w for k, w in eager.items() if k != key}
            if not ring.is_zero(value):
                want[key] = value
            _assert_entries(x, want)
            assert linalg.form(x) == linalg.column_form(ring, Mat(ring, m.nrows, m.ncols, want))
        want = Mat(ring, m.nrows, m.ncols, eager)
        x, y = build(), build()
        assert _typed(x.add(y)) == _typed(want.add(want)), kind
        assert _typed(x) == _typed(want), kind  # add leaves its operands
