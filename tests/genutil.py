"""Deterministic random generators and oracles shared by the test suite."""

import itertools
import math
from fractions import Fraction

import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap, cone, homology, total
from opbar.errors import EngineError, NoLift, NonPermutationAction, NotAcyclic
from opbar.linalg import Mat
from opbar.lincomb import add_into, bilinear, eq as lc_eq, linear, scaled_int
from opbar.symgrp import Perm, koszul_sign


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


def assert_same_mats(got, want, where):
    """Equal nonzero degrees, shapes and entries, each entry with the same
    type and repr as the oracle's."""
    assert got.keys() == {d for d, m in want.items() if not m.is_zero()}, where
    for d, m in got.items():
        o = want[d]
        assert (m.nrows, m.ncols) == (o.nrows, o.ncols), (where, d)
        assert m.d == o.d, (where, d)
        assert {k: (type(v), repr(v)) for k, v in m.d.items()} == \
            {k: (type(v), repr(v)) for k, v in o.d.items()}, (where, d)


def orbit_members(ring, structure, key, children, degree):
    """[((image key, children), sign)] of the node (key, children) under
    every sigma in S_k, in the order of `itertools.permutations`, through
    structure.act and koszul_sign; the sign a ring element (over F_2 +1
    and -1 are one sign)."""
    k = len(children)
    out = []
    for images in itertools.permutations(range(1, k + 1)):
        sigma = Perm(images)
        hit = structure.act(sigma, key)
        if len(hit) != 1:
            raise NonPermutationAction(
                "node canonicalization needs signed permutation actions")
        ((nk, coeff),) = hit.items()
        if ring.eq(coeff, ring.one):
            s = 1
        elif ring.eq(coeff, ring.from_int(-1)):
            s = -1
        else:
            raise NonPermutationAction("non-unit symmetry coefficient")
        nc = tuple(children[sigma(t) - 1] for t in range(1, k + 1))
        out.append(((nk, nc), ring.from_int(
            s * koszul_sign(sigma, [degree(c) for c in children]))))
    return out


def oracle_orbit(calc, structure, key, children):
    """Node canonicalization as first written: the signed orbit, None when
    a member is reached with two signs."""
    seen = {}
    for cand, s in orbit_members(calc.ring, structure, key, children, calc.deg):
        if cand in seen and not calc.ring.eq(seen[cand], s):
            return None
        seen.setdefault(cand, s)
    return seen


def oracle_make_node(calc, kind, key, children):
    """The class of a node: the repr-least member of its orbit, {} when the
    orbit dies."""
    structure = calc.M if kind == "wd" else calc.O
    orbit = oracle_orbit(calc, structure, key, children)
    if orbit is None:
        return {}
    rep = min(orbit, key=repr)
    return {(kind, rep[0], rep[1]): calc.ring.mul(orbit[(key, children)],
                                                  orbit[rep])}


class LabelKan:
    """The simplicial Kan object of pi and A built label by label, as
    `bar.WordCalculus` first built it: each node made canonical by
    `oracle_make_node`, the level differentials read from a recursive
    `diff_label` through `ChainComplex.from_labels`, and every face and
    degeneracy mapped per label (`node_lc`, `_collapse`) and assembled by
    `ChainMap.from_label_fn`.  ``levels``, ``faces`` and ``degens`` are
    those of `simplicial_kan(pi, A, n_max)`."""

    def __init__(self, pi, A, n_max):
        self.pi, self.M, self.O, self.A = pi, pi.source, pi.target, A
        self.ring = self.M.ring
        self._canon, self._images = {}, {}
        self._words = self._words_by_depth(n_max)
        self.levels = {n: self._level(n) for n in range(n_max + 1)}
        self.faces = {(n, i): self._map(n, n - 1, lambda l, n=n, i=i:
                                        self.face(n, i, l))
                      for n in range(1, n_max + 1) for i in range(n + 1)}
        self.degens = {(n, i): self._map(n, n + 1, lambda l, n=n, i=i:
                                         self._map_root(l, self._word_images("s", n, i)))
                       for n in range(n_max) for i in range(n + 1)}

    def deg(self, label):
        if label[0] == "lf":
            return label[2]
        return label[1][2] + sum(self.deg(c) for c in label[2])

    def make_node(self, kind, key, children):
        ck = (kind, key, children)
        if ck not in self._canon:
            self._canon[ck] = oracle_make_node(self, kind, key, children)
        return self._canon[ck]

    def node_lc(self, kind, key_lc, child_lcs):
        ring = self.ring
        acc = {(): ring.one}
        for lc in child_lcs:
            new = {}
            for combo, cv in acc.items():
                for l, v in lc.items():
                    add_into(ring, new, combo + (l,), ring.mul(cv, v))
            acc = new
        out = {}
        for key, kv in key_lc.items():
            for combo, cv in acc.items():
                for l, v in self.make_node(kind, key, combo).items():
                    add_into(ring, out, l, ring.mul(kv, ring.mul(cv, v)))
        return out

    def diff_label(self, label):
        ring = self.ring
        if label[0] == "lf":
            _, x, d, l = label
            return {("lf", x, dd, ll): v
                    for (dd, ll), v in self.A.diff_carrier(x, (d, l)).items()}
        kind, key, children = label
        structure = self.M if kind == "wd" else self.O
        out, pre = {}, 0
        for t, c in enumerate(children):
            s = ring.from_int(-1 if pre % 2 else 1)
            for cl, v in self.diff_label(c).items():
                for l2, v2 in self.make_node(
                        kind, key, children[:t] + (cl,) + children[t + 1:]).items():
                    add_into(ring, out, l2, ring.mul(s, ring.mul(v, v2)))
            pre += self.deg(c)
        s = ring.from_int(-1 if pre % 2 else 1)
        for k2, v in structure.diff_key(key).items():
            for l2, v2 in self.make_node(kind, k2, children).items():
                add_into(ring, out, l2, ring.mul(s, ring.mul(v, v2)))
        return out

    def _words_by_depth(self, depth):
        objects, cur = self.M.objects, {}
        for x in objects:
            c = self.A.carrier(x)
            cur[x] = [("lf", x, d, l) for d in c.degrees() for l in c.labels(d)]
        words = [[l for x in objects for l in cur[x]]]
        for _ in range(depth):
            prev, cur, seen = cur, {x: [] for x in objects}, set()
            for mkey in self.M.all_keys():
                for combo in itertools.product(*(prev[x] for x in mkey[0])):
                    for l in self.make_node("wd", mkey, combo):
                        if l not in seen:
                            seen.add(l)
                            cur[mkey[1]].append(l)
            words.append([l for x in objects for l in cur[x]])
        return words

    def _level(self, n):
        star, roots = self.O.objects[0], {}
        for k in range(1, self.O.arity_max + 1):
            for combo in itertools.product(self._words[n], repeat=k):
                for okey in self.O.basis_keys((star,) * k, star):
                    for l in self.make_node("rt", okey, combo):
                        roots.setdefault(l)
        basis = {}
        for l in roots:
            basis.setdefault(self.deg(l), []).append(l)
        return ChainComplex.from_labels(self.ring, basis, self.diff_label)

    def _map(self, n, m, fn):
        return ChainMap.from_label_fn(self.levels[n], self.levels[m], 0,
                                      lambda l: list(fn(l).items()))

    def _collapse(self, pieces, gam, kind):
        """sum over gam of the node (key, all children), for pieces
        [(children, key)], with the Koszul sign of moving the tensor factors
        (c_1, m_1, c_2, m_2, ...) to (c_1, ..., c_k, m_1, ..., m_k)."""
        ring = self.ring
        degs, c_pos, m_pos = [], [], []
        for cs, mk in pieces:
            for c in cs:
                c_pos.append(len(degs))
                degs.append(self.deg(c))
            m_pos.append(len(degs))
            degs.append(mk[2])
        sign = ring.from_int(
            koszul_sign(Perm([o + 1 for o in c_pos + m_pos]), degs))
        children = tuple(c for cs, _ in pieces for c in cs)
        out = {}
        for gk, gv in gam.items():
            for l2, v2 in self.make_node(kind, gk, children).items():
                add_into(ring, out, l2, ring.mul(sign, ring.mul(gv, v2)))
        return out

    def face(self, n, i, label):
        if i > 0:
            return self._map_root(label, self._word_images("d", n, i))
        pieces = [(w[2], w[1]) for w in label[2]]
        gam = self.O.gamma(label[1], [self.pi.on_key(mk) for _, mk in pieces])
        return self._collapse(pieces, gam, "rt")

    def _map_root(self, label, images):
        return self.node_lc("rt", {label[1]: self.ring.one},
                            [images[c] for c in label[2]])

    def _word_images(self, kind, n, i):
        """{depth-n word: its image} under the map that d_i (i > 0) or s_i
        of level n applies to a root's children."""
        key = (kind, n, i)
        if key not in self._images:
            ring, M, out = self.ring, self.M, {}
            for w in self._words[n]:
                if kind == "s" and i == 0:
                    y = w[1] if w[0] == "lf" else w[1][1]
                    out[w] = self.make_node("wd", M.unit_key(y), (w,))
                elif kind == "d" and i == 1 and n == 1:
                    mkey, children = w[1], w[2]
                    s = -1 if mkey[2] % 2 and sum(map(self.deg, children)) % 2 else 1
                    out[w] = {}
                    for (dd, ll), v in self.A.apply_key(
                            mkey, tuple(c[2:] for c in children)).items():
                        add_into(ring, out[w], ("lf", mkey[1], dd, ll),
                                 ring.mul(ring.from_int(s), v))
                elif kind == "d" and i == 1:
                    pieces = [(c[2], c[1]) for c in w[2]]
                    gam = {} if sum(len(cs) for cs, _ in pieces) > M.arity_max \
                        else M.gamma(w[1], [{mk: ring.one} for _, mk in pieces])
                    out[w] = self._collapse(pieces, gam, "wd")
                else:
                    inner = self._word_images(kind, n - 1, i - 1)
                    out[w] = self.node_lc("wd", {w[1]: ring.one},
                                          [inner[c] for c in w[2]])
            self._images[key] = out
        return self._images[key]


# -- Ring-arithmetic oracles of MultiAlgebra.validate and MultiFunctor.validate


def acts_by_one_oracle(cat):
    """The Ring-arithmetic check that acting by 1 on every basis morphism
    of cat is a module: EngineError naming the first basis morphism of
    nonzero degree, or the first pair u, v whose composite u then v is not
    one basis morphism with coefficient `ring.one`."""
    keys = cat.all_keys()
    for u in (u for u in keys if u[2]):
        raise EngineError(f"trivial module: basis morphism {u!r} has degree {u[2]}")
    for u, v in ((u, v) for u in keys for v in keys if v[0] == u[1]):
        w = {k: c for k, c in cat.compose_keys(u, v).items() if not cat.ring.is_zero(c)}
        if list(w.values()) != [cat.ring.one]:
            raise EngineError(f"trivial module: {u!r} then {v!r} is {w}, "
                              "not one basis morphism with coefficient 1")


def slots(M, f, g):
    """The slots of g that take f's output."""
    return [i for i in range(1, M.arity(g) + 1) if g[0][i - 1] == f[1]]


def arg_tuples(A, xs):
    """Every tuple of carrier basis elements (degree, label) on inputs xs."""
    pools = []
    for x in xs:
        c = A.carrier(x)
        pools.append([(d, l) for d in c.degrees() for l in c.labels(d)])
    return itertools.product(*pools)


def algebra_validate_oracle(A):
    """The unit, chain-map, composition and symmetry checks of an algebra,
    in Ring arithmetic over every key and every tuple of arguments."""
    ring = A.ring
    M = A.M
    for x in M.objects:
        uk = M.unit_key(x)
        c = A.carrier(x)
        for d in c.degrees():
            for l in c.labels(d):
                got = A.apply_key(uk, ((d, l),))
                if not lc_eq(ring, got, {(d, l): ring.one}):
                    return {"axiom": "algebra-unit", "object": x, "label": l}
    for fkey in M.all_keys():
        xs, y, fd, _ = fkey
        for args in arg_tuples(A, xs):
            lhs = _diff_out(A, y, A.apply_key(fkey, args))
            rhs = {}
            for k, v in M.diff_key(fkey).items():
                for kk, vv in A.apply_key(k, args).items():
                    add_into(ring, rhs, kk, ring.mul(v, vv))
            pre = 0
            for t in range(len(args)):
                s = (-1 if fd % 2 else 1) * (-1 if pre % 2 else 1)
                for (dd, ll), v in A.diff_carrier(xs[t], args[t]).items():
                    new_args = args[:t] + ((dd, ll),) + args[t + 1:]
                    for kk, vv in A.apply_key(fkey, new_args).items():
                        add_into(ring, rhs, kk,
                                 ring.mul(ring.from_int(s), ring.mul(v, vv)))
                pre += args[t][0]
            if not lc_eq(ring, lhs, rhs):
                return {"axiom": "algebra-chain-map", "f": fkey, "args": args}
    w = _algebra_composition_oracle(A)
    if w is not None:
        return w
    return _algebra_symmetry_oracle(A)


def _diff_out(A, y, lc) -> dict:
    ring = A.ring
    out = {}
    for (d, l), v in lc.items():
        for kk, vv in A.diff_carrier(y, (d, l)).items():
            add_into(ring, out, kk, ring.mul(v, vv))
    return out


def _algebra_composition_oracle(A):
    ring = A.ring
    M = A.M
    for f in M.all_keys():
        for g in M.all_keys():
            if M.arity(f) + M.arity(g) - 1 > M.arity_max:
                continue  # composite lies beyond the truncation bound
            for i in slots(M, f, g):
                comp = M.compose_keys(f, i, g)
                fxs, gxs = f[0], g[0]
                new_xs = gxs[:i - 1] + fxs + gxs[i:]
                for args in arg_tuples(A, new_xs):
                    lhs = {}
                    for k, v in comp.items():
                        for kk, vv in A.apply_key(k, args).items():
                            add_into(ring, lhs, kk, ring.mul(v, vv))
                    before = args[:i - 1]
                    mid = args[i - 1:i - 1 + len(fxs)]
                    after = args[i - 1 + len(fxs):]
                    pre_deg = sum(d for d, _ in before)
                    sign = -1 if (f[2] * (g[2] + pre_deg)) % 2 else 1
                    rhs = {}
                    for (dd, ll), v in A.apply_key(f, mid).items():
                        outer = before + ((dd, ll),) + after
                        for kk, vv in A.apply_key(g, outer).items():
                            add_into(ring, rhs, kk,
                                     ring.mul(ring.from_int(sign),
                                              ring.mul(v, vv)))
                    if not lc_eq(ring, lhs, rhs):
                        return {"axiom": "algebra-composition", "f": f,
                                "g": g, "i": i, "args": args}
    return None


def _algebra_symmetry_oracle(A):
    ring = A.ring
    M = A.M
    for f in M.all_keys():
        n = M.arity(f)
        xs = f[0]
        for t in range(1, n):
            sigma = Perm.transposition(n, t, t + 1)
            af = M.act(sigma, f)
            new_xs = tuple(xs[sigma(k) - 1] for k in range(1, n + 1))
            for args in arg_tuples(A, new_xs):
                lhs = {}
                for k, v in af.items():
                    for kk, vv in A.apply_key(k, args).items():
                        add_into(ring, lhs, kk, ring.mul(v, vv))
                inv = sigma.inverse()
                back = tuple(args[inv(j) - 1] for j in range(1, n + 1))
                ks = koszul_sign(sigma, [d for d, _ in args])
                rhs = scaled_int(ring, A.apply_key(f, back), ks)
                if not lc_eq(ring, lhs, rhs):
                    return {"axiom": "eqSymAc-algebra", "f": f, "t": t,
                            "args": args}
    return None


def functor_validate_oracle(F):
    """The unit, chain-map, symmetry and composition checks of a
    multifunctor, in Ring arithmetic over every key."""
    ring = F.source.ring
    S, T = F.source, F.target

    def on_lc(lc):
        return linear(ring, F.on_key, lc)

    for x in S.objects:
        if not lc_eq(ring, F.on_key(S.unit_key(x)),
                     {T.unit_key(F.on_obj(x)): ring.one}):
            return {"axiom": "functor-unit", "object": x}
    for f in S.all_keys():
        if not lc_eq(ring, on_lc(S.diff_key(f)),
                     linear(ring, T.diff_key, F.on_key(f))):
            return {"axiom": "functor-chain-map", "f": f}
        for t in range(1, S.arity(f)):
            lhs = on_lc(S.act_transposition(t, f))
            rhs = linear(ring, lambda k, tt=t: T.act_transposition(tt, k),
                         F.on_key(f))
            if not lc_eq(ring, lhs, rhs):
                return {"axiom": "functor-symmetry", "f": f, "t": t}
    for f in S.all_keys():
        for g in S.all_keys():
            for i in slots(S, f, g):
                lhs = on_lc(S.compose_keys(f, i, g))
                rhs = bilinear(ring,
                               lambda a, b, s=i: T.compose_keys(a, s, b),
                               F.on_key(f), F.on_key(g))
                if not lc_eq(ring, lhs, rhs):
                    return {"axiom": "functor-composition", "f": f,
                            "g": g, "i": i}
    return None
