import random

import sympy
from sympy.matrices.normalforms import smith_normal_form

from opbar.coeff import Ring
from opbar.linalg import (
    Mat,
    field_kernel,
    field_rank,
    field_solve,
    snf_diagonal,
    z_kernel_basis,
    z_rank,
    z_solve,
    z_solve_mat,
)

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


def test_z_kernel_is_kernel_and_full():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = _random_int_mat(rng, m, n)
        ker = z_kernel_basis(a)
        for vec in ker:
            assert a.apply(vec) == {}
        assert len(ker) == n - z_rank(a)
        # saturation: sympy nullspace has the same dimension
        assert len(ker) == len(_sympy_of(a).nullspace())


def test_z_solve_exact():
    rng = random.Random(13)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_int_mat(rng, m, n, density=0.6)
        x = {j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.7}
        b = a.apply(x)
        sol = z_solve(a, b)
        assert sol is not None
        assert a.apply(sol) == b


def test_z_solve_no_solution():
    a = Mat.from_rows(Z, [[2]])
    assert z_solve(a, {0: 1}) is None


def test_z_solve_mat_matches_column_solves():
    rng = random.Random(23)
    for trial in range(20):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        a = _random_int_mat(rng, m, n, density=0.6)
        rhs = Mat.zeros(Z, m, k)
        for j in range(k):
            x = {i: rng.randint(-3, 3) for i in range(n) if rng.random() < 0.7}
            for i, v in a.apply(x).items():
                rhs.set(i, j, v)
        if trial % 4 == 3:
            # every entry of 2a is even, so e_0 is not in its image
            a = a.scale_int(2)
            rhs = rhs.scale_int(2)
            rhs.set(0, rng.randrange(k), 1)
        cols = [z_solve(a, rhs.column(j)) for j in range(k)]
        got = z_solve_mat(a, rhs)
        if trial % 4 == 3:
            assert any(x is None for x in cols) and got is None
            continue
        want = Mat.zeros(Z, n, k)
        for j, x in enumerate(cols):
            for i, v in x.items():
                want.set(i, j, v)
        assert got == want
        assert a.mul(got) == rhs


def test_field_rank_and_kernel():
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_int_mat(rng, m, n).map_ring(Q, Q.canon)
        r = field_rank(a)
        assert r == _sympy_of(a).rank()
        ker = field_kernel(a)
        assert len(ker) == n - r
        for vec in ker:
            assert a.apply(vec) == {}


def test_field_solve():
    rng = random.Random(19)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_int_mat(rng, m, n, density=0.6).map_ring(Q, Q.canon)
        x = {j: Q.from_int(rng.randint(-3, 3)) for j in range(n)}
        x = {j: v for j, v in x.items() if v}
        b = a.apply(x)
        sol = field_solve(a, b)
        assert sol is not None
        assert a.apply(sol) == b
    # inconsistent system
    bad = Mat.from_rows(Q, [[1], [1]])
    assert field_solve(bad, {0: Q.from_int(1), 1: Q.from_int(2)}) is None


def test_mat_mul_matches_sympy():
    rng = random.Random(23)
    a = _random_int_mat(rng, 4, 5)
    b = _random_int_mat(rng, 5, 3)
    ours = _sympy_of(a.mul(b))
    assert ours == _sympy_of(a) * _sympy_of(b)
