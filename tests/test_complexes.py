import random
import re
from fractions import Fraction

import pytest
import sympy

from opbar import complexes
from opbar.coeff import Ring
from opbar.complexes import (
    ChainComplex,
    ChainMap,
    cone,
    homology,
    is_quasi_iso,
    null_homotopy,
)
from opbar.errors import DegreeMismatch, MixedRings, NotAcyclic, NotADifferential, \
    UnsupportedRing
import opbar.linalg as linalg
from opbar.linalg import Mat

from .genutil import NOVIKOV_RINGS, C_dh_plus_hd, full_cone_quasi_iso_oracle, \
    novikov_conjugate, null_homotopy_oracle, random_acyclic, random_chain_map, \
    random_complex, random_novikov_acyclic, random_novikov_element, random_unitriangular, \
    unitriangular_inverse

Z = Ring.Z()
Q = Ring.Q()


def interval(ring):
    """x0, x1 in degree 0; e in degree 1 with de = x1 - x0."""
    return ChainComplex.free(
        ring,
        {0: ["x0", "x1"], 1: ["e"]},
        {(1, "e", "x1"): ring.one, (1, "e", "x0"): ring.from_int(-1)},
    )


def circle(ring):
    return ChainComplex.free(ring, {0: ["v"], 1: ["e"]}, {})


# -- build_complex ----------------------------------------------------------

def test_single_generator():
    c = ChainComplex.single(Z, "pt", 0)
    assert homology(c, 0).format() == "Z"


def test_mod2_complex():
    c = ChainComplex.free(Z, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): 2})
    assert homology(c, 0).format() == "Z/2"
    assert homology(c, 1).format() == "0"


def test_z2_graded_rejects_non_differential():
    m0 = Mat.from_rows(Q, [[1]])  # d(x) = y
    m1 = Mat.from_rows(Q, [[1]])  # d(y) = x
    with pytest.raises(NotADifferential):
        ChainComplex(Q, "Z2", {0: ["y"], 1: ["x"]}, {0: m1, 1: m0})


# -- tensor -----------------------------------------------------------------

def test_tensor_unit_law():
    unit = ChainComplex.single(Q, "1", 0)
    d = interval(Q)
    t = unit.tensor(d)
    assert [t.dim(k) for k in (0, 1)] == [d.dim(0), d.dim(1)]
    for k in (0, 1, 2):
        assert homology(t, k).as_dict() == homology(d, k).as_dict()


def test_tensor_rejects_a_label_held_in_two_degrees():
    # the boundary table is keyed by label, so "a" in degrees 0 and 1 would
    # lose d a = a; raising beats a wrong differential
    Z = Ring.Z()
    a = ChainComplex(Z, "Z", {0: ["a"], 1: ["a"]}, {1: Mat.from_rows(Z, [[1]])})
    b = ChainComplex.single(Z, "b", 0)
    with pytest.raises(ValueError, match="in two degrees"):
        a.tensor(b)
    with pytest.raises(ValueError, match="in two degrees"):
        ChainComplex.tensor_many(Z, [b, a])


def test_tensor_square_homology():
    sq = interval(Q).tensor(interval(Q))
    assert [sq.dim(k) for k in (0, 1, 2)] == [4, 4, 1]
    assert homology(sq, 0).format() == "k^1"
    assert homology(sq, 1).format() == "0"
    assert homology(sq, 2).format() == "0"


def test_tensor_koszul_sign():
    c = interval(Q)
    t = c.tensor(c)
    col = t.d_mat(2).column(t.index(2, ("t", "e", "e")))
    img = {t.labels(1)[i]: v for i, v in col.items()}
    # d(e (x) e) = de (x) e - e (x) de
    assert img[("t", "x1", "e")] == Q.one
    assert img[("t", "x0", "e")] == Q.from_int(-1)
    assert img[("t", "e", "x1")] == Q.from_int(-1)
    assert img[("t", "e", "x0")] == Q.one


def test_tensor_associative_and_unital_up_to_bijection():
    rng = random.Random(3)
    a = random_complex(rng, Z, max_pieces=2, tag="a")
    b = random_complex(rng, Z, max_pieces=2, tag="b")
    c = random_complex(rng, Z, max_pieces=2, tag="c")
    left = a.tensor(b).tensor(c)
    right = a.tensor(b.tensor(c))

    def flip(l):
        _, ab, lc = l
        _, la, lb = ab
        return ("t", la, ("t", lb, lc))

    relabeled = left.relabel(flip)
    for d in relabeled.degrees():
        assert sorted(map(repr, relabeled.labels(d))) == sorted(map(repr, right.labels(d)))
    iso = ChainMap.from_label_fn(relabeled, right, 0, lambda l: [(l, 1)])
    other = ChainMap.from_label_fn(right, relabeled, 0, lambda l: [(l, 1)])
    assert iso.compose(other).eq(ChainMap.identity(right))


def test_degree_of_lowest_degree_and_missing():
    c = ChainComplex(Z, "Z", {2: ["p"], 1: ["r"], 0: ["q", "p"]}, {})
    assert c.degree_of("p") == 0
    assert c.degree_of("r") == 1
    assert c.index(2, "p") == 0
    with pytest.raises(KeyError):
        c.degree_of("s")


def _boundaries(c):
    """{label: {boundary label: coeff}} over every basis element."""
    out = {}
    for d in c.degrees():
        rows = c.labels(c.pred(d))
        for j, l in enumerate(c.labels(d)):
            out[l] = {rows[i]: v for i, v in c.d_mat(d).column(j).items()}
    return out


def test_tensor_many_z2_matches_z_grading_mod_2():
    # Z-graded complexes and their Z/2 reductions: a -> b in C lives in
    # degrees 2 -> 1, so the reduced C has a differential on both slots.
    pieces = [({0: ["a0"], 1: ["b", "b1"], 2: ["a"]},
               {(1, "b", "a0"): 1, (2, "a", "b1"): 3}),
              ({0: ["x", "y"], 1: ["z"]}, {(1, "z", "x"): 1, (1, "z", "y"): -1})]
    zs, z2s = [], []
    for basis, entries in pieces:
        zs.append(ChainComplex.free(Z, basis, entries))
        slots = {0: [], 1: []}
        for d, ls in basis.items():
            slots[d % 2] += ls
        z2s.append(ChainComplex.free(
            Z, slots, {(d % 2, s, t): v for (d, s, t), v in entries.items()},
            grading="Z2"))
    assert not z2s[0].d_mat(0).is_zero()
    t = ChainComplex.tensor_many(Z, zs)
    t2 = ChainComplex.tensor_many(Z, z2s, grading="Z2")
    t2.validate()
    assert [t2.dim(s) for s in (0, 1)] == [
        sum(t.dim(d) for d in t.degrees() if d % 2 == s) for s in (0, 1)]
    assert _boundaries(t2) == _boundaries(t)


# -- shift and cone ----------------------------------------------------------

def test_cone_of_identity_acyclic():
    c = interval(Q)
    cn = cone(ChainMap.identity(c))
    for d in range(-1, 4):
        assert homology(cn, d).is_zero()


def test_cone_of_zero_map_splits():
    c = circle(Z)
    d = ChainComplex.free(Z, {0: ["w"]}, {})
    cn = cone(ChainMap.zero(c, d))
    for k in range(0, 3):
        hc = homology(c, k - 1)
        hd = homology(d, k)
        want_rank = hd.free_rank + hc.free_rank
        got = homology(cn, k)
        assert got.free_rank == want_rank
        assert got.invariant_factors == hd.invariant_factors + hc.invariant_factors


def test_cone_of_times_two():
    c = ChainComplex.single(Z, "a", 0)
    f = ChainMap(c, c, 0, {0: Mat.from_rows(Z, [[2]])})
    cn = cone(f)
    assert homology(cn, 0).format() == "Z/2"
    assert homology(cn, 1).format() == "0"


def test_shift_sign():
    c = interval(Q)
    s = c.shift(1)
    assert s.dim(1) == 2 and s.dim(2) == 1
    # d was e -> x1 - x0; the odd shift negates it
    assert s.d_mat(2).get(0, 0) == Q.one
    assert s.d_mat(2).get(1, 0) == Q.from_int(-1)
    s.validate()


# -- homology ----------------------------------------------------------------

def test_circle_homology():
    c = circle(Z)
    assert homology(c, 0).format() == "Z"
    assert homology(c, 1).format() == "Z"


def test_invariant_factors_2_6():
    c = ChainComplex.free(
        Z,
        {0: ["y0", "y1"], 1: ["x0", "x1"]},
        {(1, "x0", "y0"): 2, (1, "x0", "y1"): 4,
         (1, "x1", "y0"): 4, (1, "x1", "y1"): 2},
    )
    h = homology(c, 0)
    assert h.free_rank == 0 and h.invariant_factors == [2, 6]


def test_homology_names_d_squared_witness():
    # d(x) = y, d(y) = z, so d^2(x) = z; built without validation
    basis = {0: ["z"], 1: ["y"], 2: ["x"]}
    diff = {1: Mat.from_rows(Z, [[1]]), 2: Mat.from_rows(Z, [[1]])}
    c = ChainComplex(Z, "Z", basis, diff, validate=False)
    witness = re.escape("d^2 != 0 on basis element 'x' in degree 2: {'z': '1'}")
    with pytest.raises(NotADifferential, match=witness):
        homology(c, 1)
    with pytest.raises(NotADifferential, match=witness):
        c.validate()


def _random_unimodular(rng, n):
    """(M, M^-1) for M = permutation . lower . upper unitriangular over Z."""
    upper = random_unitriangular(rng, Z, n)
    lower = random_unitriangular(rng, Z, n).transpose()
    order = list(range(n))
    rng.shuffle(order)
    perm = Mat(Z, n, n, {(order[j], j): 1 for j in range(n)})
    m = perm.mul(lower).mul(upper)
    lower_inv = unitriangular_inverse(Z, lower.transpose()).transpose()
    inv = unitriangular_inverse(Z, upper).mul(lower_inv).mul(perm.transpose())
    assert m.mul(inv) == Mat.identity(Z, n)
    return m, inv


def _invariant_factors(orders):
    """Invariant factors (ascending) of the sum of Z/m over orders, all m > 1."""
    powers = {}
    for m in orders:
        for p, e in sympy.factorint(m).items():
            powers.setdefault(p, []).append(p ** e)
    out = [1] * max((len(v) for v in powers.values()), default=0)
    for v in powers.values():
        for i, q in enumerate(sorted(v, reverse=True)):
            out[i] *= q
    return sorted(out)


def test_z_homology_random_elementary_sums():
    """Sums of Z in degree d and Z --(x m)--> Z from degree d+1 to d, in a
    scrambled basis: H_d has one Z per free piece and Z/m per m != 1 piece,
    and over F_p each Z/m with p | m adds one dimension in degrees d and d+1."""
    rng = random.Random(2210)
    for _ in range(12):
        # one free and one torsion piece share degree 1 in every draw
        pieces = [("free", 1), ("tors", 1, rng.choice([2, 4, 6]))]
        for _ in range(rng.randint(2, 7)):
            d = rng.randint(0, 3)
            if rng.random() < 0.3:
                pieces.append(("free", d))
            else:
                pieces.append(("tors", d, rng.randint(1, 6)))
        basis = {}
        entries = []
        for k, piece in enumerate(pieces):
            d = piece[1]
            basis.setdefault(d, []).append(("b", k))
            if piece[0] == "tors":
                basis.setdefault(d + 1, []).append(("a", k))
                entries.append((d + 1, ("a", k), ("b", k), piece[2]))
        changes = {d: _random_unimodular(rng, len(ls)) for d, ls in basis.items()}
        diff = {}
        for d, src, tgt, m in entries:
            mat = diff.setdefault(d, Mat.zeros(Z, len(basis[d - 1]), len(basis[d])))
            mat.set(basis[d - 1].index(tgt), basis[d].index(src), m)
        diff = {d: changes[d - 1][1].mul(mat).mul(changes[d][0])
                for d, mat in diff.items()}
        c = ChainComplex(Z, "Z", basis, diff)
        for d in range(-1, 6):
            free = sum(1 for p in pieces if p == ("free", d))
            orders = [p[2] for p in pieces if p[0] == "tors" and p[1] == d and p[2] != 1]
            h = homology(c, d)
            assert (h.free_rank, h.invariant_factors) == (free, _invariant_factors(orders))
            below = [p[2] for p in pieces if p[0] == "tors" and p[1] == d - 1]
            for prime in (2, 3):
                fp = Ring.Fp(prime)
                hp = homology(c.map_coefficients(fp, fp.canon), d)
                assert hp.dimension == free + sum(1 for m in orders + below
                                                  if m % prime == 0)


def test_z_homology_diagonalizes_once(monkeypatch):
    """Over Z, rank(d_out) comes from `field_rank`; the one Smith
    diagonalization is that of d_in, for the torsion."""
    calls = []
    diagonalize = linalg._ZWorker.diagonalize

    def counted(self):
        calls.append((self.m, self.n))
        return diagonalize(self)

    monkeypatch.setattr(linalg._ZWorker, "diagonalize", counted)
    c = ChainComplex.free(Z, {0: ["y"], 1: ["x", "e"], 2: ["z"]},
                          {(1, "x", "y"): 2, (2, "z", "e"): 3})
    h = homology(c, 1)
    assert (h.free_rank, h.invariant_factors) == (0, [3])
    assert calls == [(2, 1)]


def test_homology_unsupported_over_novikov():
    nov = Ring.novikov(Q, 1, 2)
    c = ChainComplex.single(nov, "a", 0)
    with pytest.raises(UnsupportedRing):
        homology(c, 0)


def test_euler_characteristic_matches_homology():
    rng = random.Random(5)
    for _ in range(10):
        c = random_complex(rng, Q)
        chi = c.euler_characteristic()
        hchi = sum(
            (-1) ** (d % 2) * homology(c, d).dimension
            for d in range(min(c.degrees()) - 1, max(c.degrees()) + 2)
        )
        assert chi == hchi


# -- is_quasi_iso -------------------------------------------------------------

def test_quasi_iso_identity():
    c = interval(Q)
    assert is_quasi_iso(ChainMap.identity(c), range(0, 2)).ok


def test_quasi_iso_zero_between_acyclic():
    rng = random.Random(9)
    a = random_acyclic(rng, Q, tag="a")
    b = random_acyclic(rng, Q, tag="b")
    assert is_quasi_iso(ChainMap.zero(a, b), range(-2, 4)).ok


def test_quasi_iso_times_two_fails():
    c = ChainComplex.single(Z, "a", 0)
    f = ChainMap(c, c, 0, {0: Mat.from_rows(Z, [[2]])})
    res = is_quasi_iso(f, range(0, 1))
    assert not res.ok
    assert res.witness["degree"] == 0
    assert res.witness["cone_homology"] == "Z/2"


@pytest.mark.parametrize("ring", [Z, Q, Ring.Fp(3), NOVIKOV_RINGS["q_2_2"]],
                         ids=["z", "q", "f3", "nov_q_2_2"])
def test_quasi_iso_matches_the_full_cone_oracle(ring):
    """The windowed cone gives the verdict and witness of the full cone on
    seeded maps, with windows that cut source and target at either end and
    windows with gaps; the sweep holds quasi-isomorphisms and maps that are
    not."""
    rng = random.Random(f"quasi-iso:{ring!r}")
    seen = set()
    for k in range(40):
        f = random_chain_map(rng, ring, tag=f"m{k}")
        degs = sorted(set(f.source.degrees()) | set(f.target.degrees()))
        lo, hi = degs[0], degs[-1]
        for _ in range(3):
            a = rng.randint(lo - 1, hi + 1)
            b = rng.randint(a, hi + 1)
            window = [d for d in range(a, b + 1)
                      if d in (a, b) or rng.random() < 0.7]
            got = is_quasi_iso(f, window)
            assert (got.ok, got.witness) == full_cone_quasi_iso_oracle(f, window)
            seen |= {got.ok, ("cut below", a > lo), ("cut above", b < hi)}
    assert seen >= {True, False, ("cut below", True), ("cut above", True)}


@pytest.mark.parametrize("ring", [Q, Ring.Fp(3), NOVIKOV_RINGS["q_2_2"]],
                         ids=["q", "f3", "nov_q_2_2"])
def test_quasi_iso_z2_matches_the_full_cone_oracle(ring):
    """Z/2-graded: two copies of x -> y, one from each slot; c id for
    seeded c, which is a quasi-isomorphism iff c is a unit (on the
    residue)."""
    rng = random.Random(f"quasi-iso z2:{ring!r}")
    verdicts = set()
    for _ in range(12):
        u, v, c = (random_novikov_element(rng, ring, 0) if ring.is_novikov
                   else ring.from_int(rng.randint(0, 2)) for _ in range(3))
        C = ChainComplex(ring, "Z2", {0: ["a", "b"], 1: ["c", "e"]},
                         {1: Mat(ring, 2, 2, {(0, 0): u}), 0: Mat(ring, 2, 2, {(1, 1): v})})
        f = ChainMap(C, C, 0, {d: Mat.identity(ring, 2).scale(c) for d in (0, 1)})
        for window in ([0], [1], [0, 1], [3]):
            got = is_quasi_iso(f, window)
            assert (got.ok, got.witness) == full_cone_quasi_iso_oracle(f, window)
            verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_quasi_iso_checks_the_map_outside_the_window():
    """f fails d f = f d only at e in degree 4, past the cone degrees that
    the window [0, 1] builds: the entry check still names e."""
    c = ChainComplex.free(Z, {0: ["a"], 1: ["b"], 3: ["c"], 4: ["e"]},
                          {(1, "b", "a"): 2, (4, "e", "c"): 1})
    f = ChainMap(c, c, 0, {d: Mat.identity(Z, 1) for d in (0, 1, 3)},
                 validate=False)
    with pytest.raises(DegreeMismatch, match="'e'") as err:
        is_quasi_iso(f, range(0, 2))
    assert (err.value.witness["degree"], err.value.witness["label"]) == (4, "e")
    assert is_quasi_iso(ChainMap.identity(c), range(0, 2)).ok


def test_windowed_cone_keeps_the_window_and_its_differentials():
    rng = random.Random(11)
    for k in range(10):
        f = random_chain_map(rng, Q, tag=f"w{k}")
        full = cone(f)
        for window in (range(-1, 2), range(0, 4), range(2, 3)):
            cut = cone(f, window)
            assert cut.basis == {d: ls for d, ls in full.basis.items() if d in window}
            assert cut.diff == {d: m for d, m in full.diff.items()
                                if d in window and d - 1 in window}


# -- null_homotopy -------------------------------------------------------------

def test_null_homotopy_cone_identity():
    c = interval(Q)
    cn = cone(ChainMap.identity(c))
    h = null_homotopy(cn)
    assert C_dh_plus_hd(cn, h).eq(ChainMap.identity(cn))


def test_null_homotopy_not_acyclic_over_novikov():
    nov = Ring.novikov(Q, 2, 1)
    dx = nov.monomial(1, 1)  # d(x) = T y, cokernel Lambda/T
    c = ChainComplex.free(nov, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): dx})
    with pytest.raises(NotAcyclic):
        null_homotopy(c)


def test_null_homotopy_geometric_series():
    nov = Ring.novikov(Q, 2, 1)
    dx = nov.add(nov.one, nov.monomial(1, 1))  # d(x) = (1+T) y
    c = ChainComplex.free(nov, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): dx})
    h = null_homotopy(c)
    img = h.apply_label(0, "y")
    want = nov.add(nov.one, nov.neg(nov.monomial(1, 1)))  # (1-T) x
    assert img == {"x": want}
    assert C_dh_plus_hd(c, h).eq(ChainMap.identity(c))


def test_null_homotopy_literal_spec_ring():
    # over NovikovTrunc(Q, 1, 1) the cutoff kills T, so (1+T) = 1 and (1-T)x = x
    nov = Ring.novikov(Q, 1, 1)
    dx = nov.add(nov.one, nov.monomial(1, 1))
    c = ChainComplex.free(nov, {0: ["y"], 1: ["x"]}, {(1, "x", "y"): dx})
    h = null_homotopy(c)
    assert h.apply_label(0, "y") == {"x": nov.one}


def test_null_homotopy_random_acyclic_novikov():
    rng = random.Random(31)
    nov = Ring.novikov(Q, 1, 2)
    half = Fraction(1, 2)
    for _ in range(5):
        base = random_acyclic(rng, Q, tag="n")
        # deform into Novikov: add random positive-valuation entries to d, keeping d^2=0
        c = base.map_coefficients(nov, lambda v: ((Fraction(0), v),) if v else ())
        # conjugate by an invertible map with T-terms: g = 1 + T^{1/2} N
        diff = {}
        for d in c.degrees():
            m = c.d_mat(d)
            if not m.is_zero():
                diff[d] = m
        g_mats = {}
        for d in c.degrees():
            n = c.dim(d)
            g = Mat.identity(nov, n)
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.3:
                        g.set(i, j, nov.monomial(rng.randint(-2, 2), half))
            g_mats[d] = g
        new_diff = {}
        for d in c.degrees():
            m = c.d_mat(d)
            if m.is_zero():
                continue
            # g^{-1} d g via geometric-series inverse of unit matrices: here
            # use solve-free algebra: invert g degreewise by Neumann series
            gm = g_mats[d]
            gpred_inv = _invert_unit_matrix(nov, g_mats[c.pred(d)])
            new_diff[d] = gpred_inv.mul(m).mul(gm)
        c2 = ChainComplex(nov, "Z", c.basis, new_diff)
        h = null_homotopy(c2)
        assert C_dh_plus_hd(c2, h).eq(ChainMap.identity(c2))


@pytest.mark.parametrize("name", NOVIKOV_RINGS)
def test_null_homotopy_matches_the_order_by_order_oracle(name):
    nov = NOVIKOV_RINGS[name]
    rng = random.Random(f"lift:{name}")
    lifted = 0
    for t in range(8):
        C = random_novikov_acyclic(rng, nov, tag=f"t{t}")
        h, want = null_homotopy(C), null_homotopy_oracle(C)
        assert h.degree == want.degree == 1
        assert h.mats == want.mats
        lifted += any(e > 0 for m in h.mats.values() for v in m.d.values()
                      for e, _ in v)
    # h has T-terms unless the grid has one step below the cutoff
    assert (lifted > 0) == (nov.cutoff * nov.grid > 1)


@pytest.mark.parametrize("name", ["q_2_2", "f3_1_3"])
def test_null_homotopy_z2_matches_the_oracle(name):
    """Z/2-graded: two copies of x -> y with unit differentials, one from
    each degree slot, conjugated; d h + h d runs through both slots."""
    nov = NOVIKOV_RINGS[name]
    rng = random.Random(f"z2:{name}")
    for _ in range(4):
        u, v = (nov.add(nov.from_int(n), random_novikov_element(rng, nov, 1))
                for n in (1, 2))
        C = ChainComplex(nov, "Z2", {0: ["a", "b"], 1: ["c", "e"]},
                         {1: Mat(nov, 2, 2, {(0, 0): u}), 0: Mat(nov, 2, 2, {(1, 1): v})})
        C = novikov_conjugate(rng, C)[0]
        assert null_homotopy(C).mats == null_homotopy_oracle(C).mats


@pytest.mark.parametrize("name", NOVIKOV_RINGS)
def test_null_homotopy_not_acyclic_raises_as_the_oracle(name):
    nov = NOVIKOV_RINGS[name]
    C = random_novikov_acyclic(random.Random(f"homology:{name}"), nov)
    C = C.direct_sum(ChainComplex.single(nov, "lone", 0))[0]
    messages = []
    for fn in (null_homotopy, null_homotopy_oracle):
        with pytest.raises(NotAcyclic) as err:
            fn(C)
        messages.append(str(err.value))
    assert messages == ["residue complex has homology, so C is not acyclic"] * 2


@pytest.mark.parametrize("field", [True, False], ids=["q", "nov_q_2_2"])
def test_null_homotopy_checks_the_contraction(monkeypatch, field):
    """A splitting scaled by 2 fails d h + h d = id on slice 0: NotAcyclic,
    with the message of the check the splitting used to run itself."""
    splitting = complexes._splitting_homotopy
    monkeypatch.setattr(complexes, "_splitting_homotopy",
                        lambda C: splitting(C).scale_int(2))
    rng = random.Random(5)
    if field:
        C, message = random_acyclic(rng, Q), "no contraction exists: complex has homology"
    else:
        C = random_novikov_acyclic(rng, NOVIKOV_RINGS["q_2_2"])
        message = "residue complex has homology, so C is not acyclic"
    with pytest.raises(NotAcyclic, match=f"^{message}$"):
        null_homotopy(C)


def _invert_unit_matrix(nov, g):
    """Inverse of 1 + N with N of positive valuation (Neumann series)."""
    n = g.nrows
    eye = Mat.identity(nov, n)
    N = g.sub(eye)
    acc = eye
    power = eye
    for _ in range(2 * nov.grid * int(nov.cutoff) + 2):
        power = power.mul(N).neg()
        if power.is_zero():
            break
        acc = acc.add(power)
    assert acc.mul(g) == eye
    return acc


def test_chain_map_validation():
    c = interval(Q)
    with pytest.raises(DegreeMismatch):
        ChainMap(c, c, 0, {1: Mat.from_rows(Q, [[2]])})


def test_from_label_fn_sums_repeated_hits():
    # repeated targets add up, hits that cancel leave no entry, a single
    # (label, coeff) tuple is one hit, and coefficients are canonicalized
    src = ChainComplex.free(Q, {0: ["a", "b", "c"]}, {})
    tgt = ChainComplex.free(Q, {0: ["u", "v"]}, {})
    hits = {"a": [("u", 1), ("v", Fraction(1, 2)), ("u", Fraction(1, 3))],
            "b": [("v", 2), ("u", 1), ("v", -2)],
            "c": ("v", 3)}
    f = ChainMap.from_label_fn(src, tgt, 0, hits.get)
    assert f.mat(0).d == {(0, 0): Fraction(4, 3), (1, 0): Fraction(1, 2),
                          (0, 1): Fraction(1), (1, 2): Fraction(3)}
    assert all(type(v) is Fraction for v in f.mat(0).d.values())
    nov = Ring.novikov(Q, 1, 2)
    t = nov.monomial(1, Fraction(1, 2))
    g = ChainMap.from_label_fn(
        ChainComplex.free(nov, {0: ["a"]}, {}),
        ChainComplex.free(nov, {0: ["u"]}, {}), 0,
        lambda l: [("u", t), ("u", nov.one), ("u", nov.neg(t))])
    assert g.mat(0).d == {(0, 0): nov.one}


def test_from_labels_builds_the_free_complex():
    basis = {0: ["y0", "y1"], 1: ["x"], 2: ["t"]}
    bd = {"x": {"y0": Q.from_int(2), "y1": Q.from_int(-1)}}
    c = ChainComplex.from_labels(Q, basis, lambda l: bd.get(l, {}))
    assert c.diff == {1: Mat.from_rows(Q, [[2], [-1]])}
    assert c.diff == ChainComplex.free(Q, basis, {(1, "x", "y0"): 2,
                                                  (1, "x", "y1"): -1}).diff


def test_from_labels_rejects_a_label_outside_the_basis():
    basis = {0: ["y"], 1: ["x", "w"]}
    with pytest.raises(ValueError, match="'z', which is not a basis label"):
        ChainComplex.from_labels(Z, basis, lambda l: {"z": 1} if l == "x" else {})
    # w is a basis label, but of degree 1, not 0
    with pytest.raises(ValueError, match="'w', which is not a basis label"):
        ChainComplex.from_labels(Z, basis, lambda l: {"w": 1} if l == "x" else {})
    with pytest.raises(ValueError, match="not a basis label"):
        ChainComplex.free(Z, basis, {(1, "x", "v"): 1})


def test_from_labels_checks_d_squared_unless_told_not_to():
    basis = {0: ["y"], 1: ["x"], 2: ["t"]}
    bd = {"t": {"x": 1}, "x": {"y": 1}}
    with pytest.raises(NotADifferential):
        ChainComplex.from_labels(Z, basis, lambda l: bd.get(l, {}))
    c = ChainComplex.from_labels(Z, basis, lambda l: bd.get(l, {}), validate=False)
    assert c.d_mat(1).mul(c.d_mat(2)) == Mat.from_rows(Z, [[1]])


def test_constructor_rejects_a_wrong_shape_and_ring():
    basis = {0: ["y"], 1: ["x"]}
    with pytest.raises(ValueError, match="shape"):
        ChainComplex(Z, "Z", basis, {1: Mat.from_rows(Z, [[1], [1]])})
    with pytest.raises(MixedRings):
        ChainComplex(Z, "Z", basis, {1: Mat.from_rows(Q, [[1]])})
