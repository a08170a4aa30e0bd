"""Deterministic random generators and oracles shared by the test suite."""

import itertools
import math
from fractions import Fraction

import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, cone, homology, total
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
        out = piece if out is None else total(
            ring, [((f"a{k}",), out, 0), ((f"b{k}",), piece, 0)], [])
    return out


def plus_lone(C, degree):
    """C (+) one generator "lone" in degree, which C's homology gains; the
    labels are ("s0", l) and ("s1", "lone")."""
    lone = ChainComplex.single(C.ring, "lone", degree)
    return total(C.ring, [(("s0",), C, 0), (("s1",), lone, 0)], [])


def ring_block_sum(ring, nrows, ncols, blocks):
    """Oracle for `linalg.block_matrix`: the sum of placed blocks (m,
    row_offset, col_offset, sign) in Ring arithmetic, entry by entry, each
    distinct value object negated once; entries that cancel are dropped."""
    acc, neg = {}, {}
    for m, r0, c0, sign in blocks:
        for (i, j), v in m.d.items():
            if sign < 0:
                v = neg.get(id(v)) or neg.setdefault(id(v), ring.neg(v))
            key = (i + r0, j + c0)
            w = acc.get(key)
            acc[key] = v if w is None else ring.add(w, v)
    return Mat(ring, nrows, ncols, acc)


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


def sympy_rref(ring, rows, ncols) -> dict:
    """{pivot column: {col: value}}, the reduced row echelon form of the
    dense rows over Q or F_p, computed by sympy (`Matrix.rref` over QQ,
    `DomainMatrix.rref` over GF(p)): an oracle that shares no code with
    `opbar.linalg`."""
    if ring.kind == "Q":
        R, pivots = sympy.Matrix(len(rows), ncols, lambda i, j: rows[i][j]).rref()
        R = R.tolist()

        def value(x):
            return Fraction(int(x.p), int(x.q))
    else:
        dom = GF(ring.p)
        R, pivots = DomainMatrix([[dom(int(v)) for v in row] for row in rows],
                                 (len(rows), ncols), dom).rref()
        R = R.to_list()

        def value(x):
            return int(x) % ring.p
    return {j: {k: value(x) for k, x in enumerate(R[t]) if x}
            for t, j in enumerate(pivots)}


def splitting_oracle(C: ChainComplex) -> ChainMap:
    """The contraction `null_homotopy` splits off over a field, by sympy:
    in each degree the pivot columns of the rref of d are the columns
    independent of the columns before them (W); with B the images of the
    W one degree up, [B | the unit vectors of W] is inverted (the rref of
    [it | I]), and h sends d w to w and W to 0.  NotAcyclic when that
    matrix is not square and invertible."""
    ring = C.ring
    W = {d: list(sympy_rref(ring, C.d_mat(d).to_rows(), C.dim(d)))
         for d in C.degrees()}
    mats = {}
    for d in C.degrees():
        n, up = C.dim(d), C.succ(d)
        cols = [C.d_mat(up).column(w) for w in W.get(up, ())]
        cols += [{w: ring.one} for w in W[d]]
        if len(cols) != n:
            raise NotAcyclic(f"complex is not acyclic in degree {d}")
        rows = [[col.get(i, ring.zero) for col in cols] +
                [ring.one if k == i else ring.zero for k in range(n)] for i in range(n)]
        R = sympy_rref(ring, rows, 2 * n)
        if list(R) != list(range(n)):
            raise NotAcyclic(f"complex is not acyclic in degree {d}")
        mats[d] = Mat(ring, C.dim(up), n, {(w, k - n): v for t, w in enumerate(W.get(up, ()))
                                           for k, v in R[t].items() if k >= n})
    return ChainMap(C, C, 1, mats, validate=False)


def null_homotopy_oracle(C: ChainComplex) -> ChainMap:
    """The order-by-order Novikov lift in Ring arithmetic: the contraction is
    solved over the residue field (`splitting_oracle`) and lifted one grid
    exponent at a time; the correction at each step is F o h for the current
    error term F, which works because F commutes with d exactly."""
    ring = C.ring
    Cbar = _residue_complex_oracle(C)
    try:
        hbar = splitting_oracle(Cbar)
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


def full_cone_quasi_iso_oracle(f: ChainMap, degrees):
    """(ok, witness) of `is_quasi_iso` by the full-cone route: the whole
    cone(f), then `homology` in every tested degree, H_a .. H_{b+1} for the
    window [a, b]; over a Novikov ring on the residue, taken entry by
    entry."""
    ring = f.source.ring
    if ring.is_novikov:
        S, T = (_residue_complex_oracle(C) for C in (f.source, f.target))
        f = f.map_coefficients(ring.base, ring.residue, S, T)
    degrees = sorted(set(degrees))
    if not degrees:
        return True, None
    cn = cone(f)
    for d in range(degrees[0], degrees[-1] + 2):
        h = homology(cn, d)
        if not h.is_zero():
            wd = d if d in degrees else max(degrees[0], d - 1)
            return False, {"degree": wd, "cone_homology": h.format(),
                           "source": homology(f.source, wd).format(),
                           "target": homology(f.target, wd).format()}
    return True, None


def random_element(rng, ring):
    """A seeded small element: an int in -3..3 over Z, Q and F_p, a
    `random_novikov_element` over a Novikov ring."""
    if ring.is_novikov:
        return random_novikov_element(rng, ring, 0)
    return ring.from_int(rng.randint(-3, 3))


def random_chain_map(rng, ring, tag=""):
    """A seeded degree-0 chain map g + d h + h d, which may or may not be a
    quasi-isomorphism.  g is one of: a scaled identity of a random complex
    S; the inclusion of S into S (+) S' or the projection of S (+) S' onto
    S, with S' random or acyclic; the zero map to a random complex.  h is a
    random degree-1 map, so d h + h d is null-homotopic."""
    S = random_complex(rng, ring, tag=f"{tag}s")
    kind = rng.choice(["scale", "include", "project", "zero"])
    if kind == "scale":
        c = random_element(rng, ring)
        g = ChainMap(S, S, 0, {d: Mat.identity(ring, S.dim(d)).scale(c)
                               for d in S.degrees()})
    elif kind == "zero":
        g = ChainMap.zero(S, random_complex(rng, ring, tag=f"{tag}t"))
    else:
        other = (random_acyclic(rng, ring, tag=f"{tag}a") if rng.random() < 0.5
                 else random_complex(rng, ring, tag=f"{tag}o"))
        both = total(ring, [(("s0",), S, 0), (("s1",), other, 0)], [])
        if kind == "include":
            g = ChainMap.from_label_fn(S, both, 0, lambda l: (("s0", l), 1))
        else:
            g = ChainMap.from_label_fn(
                both, S, 0, lambda l: (l[1], 1) if l[0] == "s0" else None)
    S, T = g.source, g.target
    h = {d: Mat.zeros(ring, T.dim(d + 1), S.dim(d)) for d in S.degrees()}
    for d, m in h.items():
        for i in range(m.nrows):
            for j in range(m.ncols):
                if rng.random() < 0.3:
                    m.set(i, j, random_element(rng, ring))
    zero = lambda d: Mat.zeros(ring, T.dim(d), S.dim(d - 1))
    mats = {d: g.mat(d).add(T.d_mat(d + 1).mul(h[d])).add(
        h.get(d - 1, zero(d)).mul(S.d_mat(d))) for d in S.degrees()}
    return ChainMap(S, T, 0, mats)


def window_columns(structure, k, top):
    """`_window` in labels: the basis tensors (zs, okey)."""
    labels = structure._labels
    for ids, okey in structure._window(k, top):
        yield tuple(labels[z] for z in ids), okey


def realized_degree(structure, z):
    """The degree of the realized label z = ("lv", n, word): the word's
    degree plus its level n."""
    return structure.calc.deg(z[2]) + z[1]


def chain_map_sides(structure, zs, okey):
    """(d mu(x), mu(d x)) for the basis tensor x = z_1 (x) ... (x) okey,
    in labels."""
    lhs, rhs = structure._sides(tuple(structure._ids[z] for z in zs), okey,
                                structure.O.diff_key(okey))
    return structure._as_labels(lhs), structure._as_labels(rhs)


def level_window_columns(structure, k, top):
    """The basis tensors (zs, okey) of (realized)^(x k) (x) O(k) whose
    levels sum to at most top, whatever the roots' arities: the window
    before the arity bound."""
    okeys = structure._okeys(k)
    for zs in itertools.product(structure._labels, repeat=k):
        if sum(z[1] for z in zs) <= top:
            for okey in okeys:
                yield zs, okey
