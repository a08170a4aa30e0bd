"""Truncated simplicial objects in chain complexes and their realizations.

The realization is semisimplicial: the direct sum of the n-th level shifted
by n, with total differential

    d  =  (-1)^n d_int  +  sum_{i=0..n} (-1)^i d_i      (on the level-n part)

(the internal twist makes the cross terms cancel; d^2 = 0 is asserted).  A
normalized variant quotients by the degeneracy images, which in this engine
are always basis labels, so the quotient stays free and exact over any ring;
it is built by `quotient.by_classes`, the one place quotients are assembled.

Homology of a truncated realization is only meaningful in low degrees: the
degree-d differential sees levels <= d + 1 only, so with internal degrees
bounded below by d_min, degrees d <= n_max + d_min - 2 are reliable.
"""

from __future__ import annotations

from .complexes import ChainComplex, ChainMap, homology
from .errors import DegreeMismatch, EngineError, TruncationTooSmall
from .linalg import block_matrix, column_form, column_product, \
    columns_equal, unit_columns
from .quotient import by_classes


class SimplicialComplexObj:
    """Levels (chain complexes) with faces d_i and degeneracies s_i."""

    def __init__(self, n_max, levels, faces, degens, validate=True):
        if n_max < 1:
            raise TruncationTooSmall("need at least one simplicial level")
        self.n_max = n_max
        self.levels = dict(levels)
        self.faces = dict(faces)
        self.degens = dict(degens)
        if validate:
            w = self.check_identities()
            if w is not None:
                raise EngineError(f"simplicial identities fail: {w}")

    def level(self, n) -> ChainComplex:
        return self.levels[n]

    def face(self, n, i) -> ChainMap:
        return self.faces[(n, i)]

    def degen(self, n, i) -> ChainMap:
        return self.degens[(n, i)]

    def check_identities(self):
        """Check every simplicial identity among the stored maps:
        d_i d_j = d_{j-1} d_i (i < j), d_i s_j = id (i = j, j + 1),
        d_i s_j = s_{j-1} d_i (i < j), d_i s_j = s_j d_{i-1} (i > j + 1) and
        s_i s_j = s_{j+1} s_i (i <= j).

        Returns None, or the first failing identity as {"identity": "dd",
        "ds=id", "ds" or "ss", "n", "i", "j"}.  Each stored face and
        degeneracy is written once per degree in column form
        (`linalg.column_form`: one {row: int} dict per column), and a
        composite is a degree and {source degree: `linalg.column_product`}.  Faces and
        degeneracies mostly send a label to one label with coefficient 1, and
        then a composite's column is the outer map's column itself.  Two
        composites agree when their degrees, their nonzero source degrees and
        their columns (`linalg.columns_equal`) agree; d_i s_j = id compares
        with the unit columns of the level, built once per level."""
        ring = self.level(0).ring
        forms = {}  # stored map -> (map, {degree: column form})

        def operand(f):
            got = forms.get(f)
            if got is None:
                got = forms[f] = (f, {d: column_form(ring, m)
                                      for d, m in f.mats.items()})
            return got

        def compose(outer, inner):
            g, g_cols = outer
            f, f_cols = inner
            if f.target is not g.source and f.target.basis != g.source.basis:
                raise DegreeMismatch("composition mismatch")
            out = {}
            for d, a in f_cols.items():
                b = g_cols.get(f.target_deg(d))
                if b is not None:
                    m = column_product(ring, b, a)
                    if any(m[1]):
                        out[d] = m
            return g.degree + f.degree, out

        def same(lhs, rhs):
            return lhs[0] == rhs[0] and lhs[1].keys() == rhs[1].keys() and \
                all(columns_equal(ring, m, rhs[1][d]) for d, m in lhs[1].items())

        def face(n, i):
            return operand(self.faces[(n, i)])

        def degen(n, i):
            return operand(self.degens[(n, i)])

        for n in range(2, self.n_max + 1):
            for j in range(0, n + 1):
                for i in range(0, j):
                    if not same(compose(face(n - 1, i), face(n, j)),
                                compose(face(n - 1, j - 1), face(n, i))):
                        return {"identity": "dd", "n": n, "i": i, "j": j}
        for n in range(0, self.n_max):
            lv = self.level(n)
            unit = (0, {d: unit_columns(ring, lv.dim(d))
                        for d in lv.degrees() if lv.dim(d)})
            for j in range(0, n + 1):
                if (n, j) not in self.degens:
                    continue
                s = degen(n, j)
                for i in range(0, n + 2):
                    lhs = compose(face(n + 1, i), s)
                    if i == j or i == j + 1:
                        if not same(lhs, unit):
                            return {"identity": "ds=id", "n": n, "i": i, "j": j}
                    elif i < j:
                        if not same(lhs, compose(degen(n - 1, j - 1),
                                                 face(n, i))):
                            return {"identity": "ds", "n": n, "i": i, "j": j}
                    elif not same(lhs, compose(degen(n - 1, j),
                                               face(n, i - 1))):
                        return {"identity": "ds", "n": n, "i": i, "j": j}
                if n + 2 <= self.n_max:
                    for i in range(0, j + 1):
                        if (n + 1, i) not in self.degens or (n, i) not in self.degens:
                            continue
                        if not same(compose(degen(n + 1, i), s),
                                    compose(degen(n + 1, j + 1), degen(n, i))):
                            return {"identity": "ss", "n": n, "i": i, "j": j}
        return None


class RealizedComplex:
    """The realization, with provenance back to (level, label)."""

    def __init__(self, simplicial: SimplicialComplexObj):
        self.simplicial = simplicial
        ring = simplicial.level(0).ring
        grading = simplicial.level(0).grading
        basis = {}
        for n in range(0, simplicial.n_max + 1):
            lv = simplicial.level(n)
            for d in lv.degrees():
                basis.setdefault(d + n, []).extend(
                    ("lv", n, l) for l in lv.labels(d))
        levels = [simplicial.level(n) for n in range(simplicial.n_max + 1)]

        def offsets(deg):
            # where level n's labels start in the basis of realized degree deg
            out, pos = [], 0
            for n, lv in enumerate(levels):
                out.append(pos)
                pos += lv.dim(deg - n)
            return out

        diff = {}
        for deg, ls in basis.items():
            pd = deg - 1
            rows, cols = offsets(pd), offsets(deg)
            blocks = []
            for n, lv in enumerate(levels):
                ld = deg - n
                dm = lv.diff.get(ld)
                if dm is not None:
                    blocks.append((dm, rows[n], cols[n], -1 if n % 2 else 1))
                for i in range(0, n + 1) if n >= 1 else ():
                    fm = simplicial.face(n, i).mats.get(ld)
                    if fm is not None:
                        blocks.append((fm, rows[n - 1], cols[n],
                                       -1 if i % 2 else 1))
            diff[deg] = block_matrix(ring, len(basis.get(pd, ())), len(ls),
                                     blocks)
        self.complex = ChainComplex(ring, grading, basis, diff)  # d^2 = 0
        dmins = [min(simplicial.level(n).degrees(), default=0)
                 for n in range(0, simplicial.n_max + 1)]
        self.d_min = min(dmins) if dmins else 0

    @property
    def reliable_degrees(self):
        top = self.simplicial.n_max + self.d_min - 2
        lo = self.d_min - 1
        return list(range(lo, top + 1))

    def homology(self, degree):
        return homology(self.complex, degree)


def realize(simplicial: SimplicialComplexObj) -> RealizedComplex:
    return RealizedComplex(simplicial)


def normalized_realization(simplicial: SimplicialComplexObj):
    """Quotient by degeneracy images; returns (complex, projection from the
    semisimplicial realization).

    Requires every degeneracy to send basis labels to basis labels (true for
    all constructions in this engine); the quotient is then free on the
    non-degenerate labels.
    """
    C = realize(simplicial).complex
    ring = C.ring
    degenerate = set()
    for (n, i), s in simplicial.degens.items():
        for d in simplicial.level(n).degrees():
            cols = s.mat(d).columns()
            for j in range(s.source.dim(d)):
                img = cols.get(j, {})
                if len(img) != 1:
                    raise EngineError("degeneracy is not label-to-label")
                ((i, c),) = img.items()
                if not ring.eq(c, ring.one):
                    raise EngineError("degeneracy has a non-unit coefficient")
                degenerate.add(("lv", n + 1, s.target.labels(d)[i]))
    return by_classes(C, {d: [None if l in degenerate else (j, 1)
                              for j, l in enumerate(C.labels(d))]
                          for d in C.degrees()})


# ---------------------------------------------------------------------------
# Eilenberg-Zilber shuffles
# ---------------------------------------------------------------------------


def shuffles(p, q):
    """(p,q)-shuffles as (sign, x_degeneracy_word, y_degeneracy_word).

    The words list simplicial degeneracy indices in increasing order (applied
    first-to-last); x receives the complementary positions of y and vice
    versa, following the standard shuffle formula for the EZ map
    X_p (x) Y_q -> (X x Y)_{p+q}.
    """
    import itertools as it
    out = []
    total = p + q
    for mu in it.combinations(range(total), p):
        nu = tuple(k for k in range(total) if k not in mu)
        # sign: parity of the shuffle permutation (mu, nu)
        seq = list(mu) + list(nu)
        inv = sum(1 for a in range(total) for b in range(a + 1, total)
                  if seq[a] > seq[b])
        sign = -1 if inv % 2 else 1
        out.append((sign, nu, mu))
    return out


def constant_simplicial(C: ChainComplex, n_max) -> SimplicialComplexObj:
    """The constant simplicial object on C (all faces/degeneracies identity)."""
    levels = {n: C for n in range(0, n_max + 1)}
    faces = {}
    degens = {}
    for n in range(1, n_max + 1):
        for i in range(0, n + 1):
            faces[(n, i)] = ChainMap.identity(C)
    for n in range(0, n_max):
        for i in range(0, n + 1):
            degens[(n, i)] = ChainMap.identity(C)
    return SimplicialComplexObj(n_max, levels, faces, degens, validate=False)
