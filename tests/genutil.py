"""Deterministic random generators and oracles shared by the test suite."""

import math
from fractions import Fraction

from opbar import complexes
from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, cone
from opbar.errors import NoLift, NotAcyclic
from opbar.linalg import Mat


def random_two_term(rng, ring, n0=None, n1=None, lo=-3, hi=3, tag=""):
    """A random complex concentrated in degrees {0, 1} (d^2 = 0 for free)."""
    n0 = rng.randint(1, 3) if n0 is None else n0
    n1 = rng.randint(1, 3) if n1 is None else n1
    basis = {0: [f"{tag}y{i}" for i in range(n0)], 1: [f"{tag}x{i}" for i in range(n1)]}
    m = Mat.zeros(ring, n0, n1)
    for i in range(n0):
        for j in range(n1):
            if rng.random() < 0.55:
                m.set(i, j, ring.from_int(rng.randint(lo, hi)))
    return ChainComplex(ring, "Z", basis, {1: m})


def random_complex(rng, ring, max_pieces=3, tag=""):
    """Direct sum of shifted two-term complexes and lone generators."""
    out = None
    for k in range(rng.randint(1, max_pieces)):
        if rng.random() < 0.3:
            piece = ChainComplex.single(ring, f"{tag}p{k}", rng.randint(-1, 2))
        else:
            piece = random_two_term(rng, ring, tag=f"{tag}q{k}_").shift(rng.randint(-1, 1))
        out = piece if out is None else out.direct_sum(piece, f"a{k}", f"b{k}")[0]
    return out


def random_unitriangular(rng, ring, n, lo=-2, hi=2):
    m = Mat.identity(ring, n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                m.set(i, j, ring.from_int(rng.randint(lo, hi)))
    return m


def unitriangular_inverse(ring, m):
    """Invert a unitriangular matrix by back substitution (exact over any ring)."""
    n = m.nrows
    inv = Mat.identity(ring, n)
    # Solve m @ inv = I column by column, top-down since m is upper unitriangular.
    for col in range(n):
        x = {}
        for i in range(n - 1, -1, -1):
            b = ring.one if i == col else ring.zero
            acc = b
            for j in range(i + 1, n):
                mij = m.get(i, j)
                xj = x.get(j)
                if xj is not None and not ring.is_zero(mij):
                    acc = ring.sub(acc, ring.mul(mij, xj))
            if not ring.is_zero(acc):
                x[i] = acc
        for i, v in x.items():
            inv.set(i, col, v)
    return inv


def scramble_basis(rng, C):
    """Conjugate the differential by random unitriangular base changes."""
    ring = C.ring
    changes = {d: random_unitriangular(rng, ring, C.dim(d)) for d in C.degrees()}
    inverses = {d: unitriangular_inverse(ring, m) for d, m in changes.items()}
    diff = {}
    for d in C.degrees():
        m = C.d_mat(d)
        if m.is_zero():
            continue
        pd = C.pred(d)
        diff[d] = inverses[pd].mul(m).mul(changes[d])
    return ChainComplex(C.ring, C.grading, C.basis, diff)


def random_acyclic(rng, ring, tag=""):
    """A random acyclic degreewise-free complex: a scrambled cone of identity."""
    base = random_complex(rng, ring, tag=tag)
    return scramble_basis(rng, cone(ChainMap.identity(base)))


def cyclic_group_homology_oracle(m: int, degree: int):
    """Group homology of Z/m with integer coefficients, from the standard
    periodic resolution ... -> Z[G] -(g-1)-> Z[G] -(norm)-> Z[G] -> Z.

    Tensoring over Z[G] with Z gives ... -> Z -0-> Z -m-> Z -0-> Z, so
    H_0 = Z, H_odd = Z/m, H_{even>0} = 0.  Independent of the bar machinery.
    """
    if degree == 0:
        return ("Z", [])
    if degree % 2 == 1:
        return ("0", [m])
    return ("0", [])


# truncated Novikov rings for the slice tests: c * q = 3/2 is no integer
# for Nov(Q, 3/4, 2), whose grid steps are k < 2 (T^1 is past the cutoff);
# Nov(Q, 1, 1) has one step
NOVIKOV_RINGS = {
    "q_2_2": Ring.novikov(Ring.Q(), 2, 2),
    "q_3/4_4": Ring.novikov(Ring.Q(), Fraction(3, 4), 4),
    "q_3/4_2": Ring.novikov(Ring.Q(), Fraction(3, 4), 2),
    "f3_1_3": Ring.novikov(Ring.Fp(3), 1, 3),
    "q_1_1": Ring.novikov(Ring.Q(), 1, 1),
}


def random_novikov_element(rng, nov, k_min):
    """A seeded element of a truncated Novikov ring with terms on grid steps
    k >= k_min; over Q the coefficients have denominators 1..3."""
    base = nov.base
    terms = []
    for k in range(k_min, math.ceil(nov.cutoff * nov.grid)):
        if rng.random() < 0.6:
            c = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if base.kind == "Q"
                 else rng.randint(0, base.p - 1))
            terms.append((Fraction(k, nov.grid), c))
    return nov.canon(terms)


def random_novikov_acyclic(rng, nov, tag=""):
    """A seeded acyclic complex over a truncated Novikov ring: the cone of the
    identity of a shifted two-term complex whose differential has terms on
    every grid step, conjugated by `novikov_conjugate`."""
    n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
    m = Mat.zeros(nov, n0, n1)
    for i in range(n0):
        for j in range(n1):
            m.set(i, j, random_novikov_element(rng, nov, 0))
    B = ChainComplex(nov, "Z", {0: [f"{tag}y{i}" for i in range(n0)],
                                1: [f"{tag}x{i}" for i in range(n1)]}, {1: m})
    return novikov_conjugate(rng, cone(ChainMap.identity(B.shift(rng.randint(-1, 1)))))[0]


def novikov_conjugate(rng, C):
    """(C', g): C' is C conjugated by seeded unitriangular changes of basis g
    with positive-valuation entries, d' = g^-1 d g, and g: C' -> C is a chain
    isomorphism."""
    nov = C.ring
    changes = {}
    for d in C.degrees():
        g = Mat.identity(nov, C.dim(d))
        for i in range(g.nrows):
            for j in range(i + 1, g.ncols):
                g.set(i, j, random_novikov_element(rng, nov, 1))
        changes[d] = g
    diff = {d: unitriangular_inverse(nov, changes[C.pred(d)]).mul(m).mul(changes[d])
            for d, m in C.diff.items()}
    conjugate = ChainComplex(nov, C.grading, C.basis, diff)
    return conjugate, ChainMap(conjugate, C, 0, changes)


def C_dh_plus_hd(C: ChainComplex, h: ChainMap) -> ChainMap:
    dC = differential_as_map(C)
    return dC.compose(h).add(h.compose(dC))


def differential_as_map(C: ChainComplex) -> ChainMap:
    return ChainMap(C, C, -1, dict(C.diff), validate=False)


def _residue_complex_oracle(C):
    ring = C.ring
    return C.map_coefficients(ring.base, ring.residue)


def null_homotopy_oracle(C: ChainComplex) -> ChainMap:
    """The order-by-order Novikov lift in Ring arithmetic: the contraction is
    solved over the residue field and lifted one grid exponent at a time; the
    correction at each step is F o h for the current error term F, which
    works because F commutes with d exactly."""
    ring = C.ring
    Cbar = _residue_complex_oracle(C)
    try:
        hbar = complexes._splitting_homotopy(Cbar)
    except NotAcyclic:
        raise NotAcyclic("residue complex has homology, so C is not acyclic")
    inject = lambda v: ((Fraction(0), v),) if not ring.base.is_zero(v) else ()
    h = hbar.map_coefficients(ring, inject, C, C)
    idm = ChainMap.identity(C)
    grid_exps = []
    e = Fraction(1, ring.grid)
    while e < ring.cutoff:
        grid_exps.append(e)
        e += Fraction(1, ring.grid)
    for lam in grid_exps:
        err = C_dh_plus_hd(C, h).sub(idm)
        if err.is_zero():
            break
        # extract the T^lam coefficient of the error, as residue-field matrices
        coeff = lambda v: dict(v).get(lam, ring.base.zero)
        err_lam = err.map_coefficients(ring.base, coeff, Cbar, Cbar)
        if err_lam.is_zero():
            continue
        delta = err_lam.compose(hbar).neg()
        lift = lambda v: ((lam, v),) if not ring.base.is_zero(v) else ()
        h = h.add(delta.map_coefficients(ring, lift, C, C))
    final = C_dh_plus_hd(C, h)
    if not final.eq(idm):
        raise NoLift("order-by-order lift failed on a degreewise-free complex")
    return h
