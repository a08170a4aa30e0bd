"""Deterministic random generators shared by the test suite."""

from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, cone
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
