"""Free graded chain complexes with labeled bases, over exact rings.

Conventions, used engine-wide:

* homological grading, differentials lower degree by one;
* cohomological input is stored by negating degrees;
* Koszul sign rule: d(a (x) b) = da (x) b + (-1)^{|a|} a (x) db;
* a chain map of degree k satisfies  d f = (-1)^k f d;
* shift C[n] places C_d in degree d+n and twists d by (-1)^n;
* cone(f) = target (+) source[1] with d(t, s) = (d t + f s, -d s).

Z/2-graded complexes use the two degree slots {0, 1}; the differential maps
each slot to the other.
"""

from __future__ import annotations

import itertools

from . import linalg
from .coeff import Ring
from .errors import (
    DegreeMismatch,
    MixedRings,
    NoLift,
    NotAcyclic,
    NotADifferential,
    UnsupportedRing,
)
from .linalg import Mat
from .lincomb import add_into


class ChainComplex:
    """A degreewise-free complex with an ordered labeled basis per degree."""

    __slots__ = ("ring", "grading", "basis", "diff", "_index")

    def __init__(self, ring: Ring, grading: str, basis: dict, diff: dict,
                 validate: bool = True):
        if grading not in ("Z", "Z2"):
            raise ValueError("grading must be 'Z' or 'Z2'")
        self.ring = ring
        self.grading = grading
        self.basis = {d: list(ls) for d, ls in sorted(basis.items()) if ls}
        if grading == "Z2" and any(d not in (0, 1) for d in self.basis):
            raise ValueError("Z2-graded complexes use degree slots {0, 1}")
        self.diff = {}
        self._index = None
        for d in self.basis:
            m = diff.get(d)
            if m is None or m.is_zero():
                continue
            want = (self.dim(self.pred(d)), self.dim(d))
            if (m.nrows, m.ncols) != want:
                raise ValueError(f"diff at degree {d}: shape {m.nrows, m.ncols}, want {want}")
            if m.ring != ring:
                raise MixedRings("differential over the wrong ring")
            self.diff[d] = m
        if validate:
            self.validate()

    # -- degree bookkeeping ------------------------------------------------

    def pred(self, d: int) -> int:
        return (d - 1) % 2 if self.grading == "Z2" else d - 1

    def succ(self, d: int) -> int:
        return (d + 1) % 2 if self.grading == "Z2" else d + 1

    def shift_deg(self, d: int, n: int) -> int:
        return (d + n) % 2 if self.grading == "Z2" else d + n

    def degrees(self):
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def labels(self, d: int):
        return self.basis.get(d, [])

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def _label_index(self) -> dict:
        """{degree: {label: position}}, built on first use, ascending degrees."""
        if self._index is None:
            self._index = {dd: {l: i for i, l in enumerate(ls)}
                           for dd, ls in self.basis.items()}
        return self._index

    def index(self, d: int, label) -> int:
        return self._label_index()[d][label]

    def has_label(self, d: int, label) -> bool:
        return label in self._label_index().get(d, {})

    def d_mat(self, d: int) -> Mat:
        m = self.diff.get(d)
        if m is not None:
            return m
        return Mat.zeros(self.ring, self.dim(self.pred(d)), self.dim(d))

    def degree_of(self, label):
        """The lowest degree whose basis holds label; KeyError if none does."""
        for d, idx in self._label_index().items():
            if label in idx:
                return d
        raise KeyError(label)

    # -- validation ---------------------------------------------------------

    def validate(self):
        for d in self.degrees():
            self.check_d_squared(d)
        return self

    def check_d_squared(self, d: int):
        """Raise NotADifferential unless d_{d-1} d_d = 0, naming the first
        basis element of degree d whose image under d^2 is nonzero."""
        m = self.diff.get(d)
        if m is None:
            return
        dd = self.pred(d)
        m2 = self.diff.get(dd)
        if m2 is None:
            return
        comp = m2.mul(m)
        if not comp.is_zero():
            j = min(j for (_, j) in comp.d)
            label = self.basis[d][j]
            col = comp.column(j)
            target = self.basis[self.pred(dd)]
            image = {target[i]: self.ring.show(v) for i, v in sorted(col.items())}
            raise NotADifferential(
                f"d^2 != 0 on basis element {label!r} in degree {d}: {image}"
            )

    # -- constructions -------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "ChainComplex":
        return ChainComplex(ring, "Z", {}, {})

    @staticmethod
    def single(ring: Ring, label, degree: int = 0) -> "ChainComplex":
        return ChainComplex(ring, "Z", {degree: [label]}, {})

    @staticmethod
    def from_labels(ring: Ring, basis: dict, d_fn, grading: str = "Z",
                    validate: bool = True) -> "ChainComplex":
        """Build from {deg: [labels]} and d_fn(label) -> {target_label: coeff},
        the boundary of a basis label, with coefficients in ring.  Raises
        ValueError when d_fn names a label that is not in the basis one
        degree below."""
        diff = {}
        for d, ls in basis.items():
            below = basis.get((d - 1) % 2 if grading == "Z2" else d - 1, ())
            rows = {l: i for i, l in enumerate(below)}
            m = diff[d] = Mat.zeros(ring, len(below), len(ls))
            for j, l in enumerate(ls):
                for tl, c in d_fn(l).items():
                    i = rows.get(tl)
                    if i is None:
                        raise ValueError(f"d({l!r}) names {tl!r}, which is not "
                                         f"a basis label of degree {d} - 1")
                    m.add_to(i, j, c)
        return ChainComplex(ring, grading, basis, diff, validate)

    @staticmethod
    def free(ring: Ring, basis: dict, entries: dict, grading: str = "Z") -> "ChainComplex":
        """Build from {deg: [labels]} and {(deg, src_label, tgt_label): coeff};
        a label named as a source is a basis label of one degree only."""
        bd = {}
        for (_, src, tgt), c in entries.items():
            bd.setdefault(src, {})[tgt] = ring.canon(c)
        return ChainComplex.from_labels(ring, basis, lambda l: bd.get(l, {}),
                                        grading)

    def relabel(self, fn) -> "ChainComplex":
        basis = {d: [fn(l) for l in ls] for d, ls in self.basis.items()}
        return ChainComplex(self.ring, self.grading, basis, self.diff, validate=False)

    def shift(self, n: int) -> "ChainComplex":
        basis = {self.shift_deg(d, n): ls for d, ls in self.basis.items()}
        sign = 1 if n % 2 == 0 else -1
        diff = {}
        for d, m in self.diff.items():
            diff[self.shift_deg(d, n)] = m if sign == 1 else m.neg()
        return ChainComplex(self.ring, self.grading, basis, diff, validate=False)

    def direct_sum(self, other: "ChainComplex", tag0="s0", tag1="s1"):
        """Returns (sum complex, inclusion0, inclusion1); labels get tagged."""
        if self.ring != other.ring or self.grading != other.grading:
            raise MixedRings("direct sum needs matching ring and grading")
        basis, diff = {}, {}
        for d in sorted(set(self.degrees()) | set(other.degrees())):
            basis[d] = [(tag0, l) for l in self.labels(d)] + \
                       [(tag1, l) for l in other.labels(d)]
        for d, ls in basis.items():
            pd = self.pred(d)
            diff[d] = linalg.block_matrix(
                self.ring, len(basis.get(pd, ())), len(ls), [
                    (self.d_mat(d), 0, 0, 1),
                    (other.d_mat(d), self.dim(pd), self.dim(d), 1)])
        out = ChainComplex(self.ring, self.grading, basis, diff, validate=False)
        inc0 = ChainMap.from_label_fn(self, out, 0, lambda l: ((tag0, l), 1))
        inc1 = ChainMap.from_label_fn(other, out, 0, lambda l: ((tag1, l), 1))
        return out, inc0, inc1

    def tensor(self, other: "ChainComplex") -> "ChainComplex":
        """self (x) other with labels ("t", la, lb): `tensor_many` of the two
        factors, relabelled."""
        if self.ring != other.ring or self.grading != other.grading:
            raise MixedRings("tensor needs matching ring and grading")
        return ChainComplex.tensor_many(
            self.ring, [self, other], tag="t", grading=self.grading
        ).relabel(lambda l: ("t",) + l[1])

    def map_coefficients(self, new_ring: Ring, fn) -> "ChainComplex":
        diff = {d: m.map_ring(new_ring, fn) for d, m in self.diff.items()}
        return ChainComplex(new_ring, self.grading, self.basis, diff, validate=False)

    @staticmethod
    def tensor_many(ring, factors, tag="x", grading="Z") -> "ChainComplex":
        """Flat tensor product: labels (tag, (l_1, ..., l_k)), Koszul signs.

        With grading="Z2" the factors are Z/2-graded and degrees add mod 2."""
        pools = []
        for c in factors:
            pools.append([(d, l) for d in c.degrees() for l in c.labels(d)])
        basis = {}
        for combo in itertools.product(*pools):
            deg = sum(d for d, _ in combo)
            if grading == "Z2":
                deg %= 2
            basis.setdefault(deg, []).append((tag, tuple(l for _, l in combo)))
        # per factor: label -> (degree, [(boundary label, coeff)]); d_fn sees
        # labels only, so a label held in two degrees would read one boundary
        tables = []
        for c in factors:
            table = {}
            for ld in c.degrees():
                cols = c.d_mat(ld).columns()
                below = c.labels(c.pred(ld))
                for j, l in enumerate(c.labels(ld)):
                    if l in table:
                        raise ValueError(f"tensor factor holds {l!r} in two degrees")
                    table[l] = (ld, [(below[i], v) for i, v in
                                     cols.get(j, {}).items()])
            tables.append(table)

        def d_fn(label):
            labels, out, pre = label[1], {}, 0
            for t, l in enumerate(labels):
                ld, bd = tables[t][l]
                for bl, v in bd:
                    add_into(ring, out, (tag, labels[:t] + (bl,) + labels[t + 1:]),
                             ring.neg(v) if pre % 2 else v)
                pre += ld
            return out

        return ChainComplex.from_labels(ring, basis, d_fn, grading,
                                        validate=False)

    def euler_characteristic(self) -> int:
        if self.grading == "Z2":
            return self.dim(0) - self.dim(1)
        return sum((-1) ** (d % 2) * self.dim(d) for d in self.degrees())

    def __repr__(self):
        dims = ", ".join(f"{d}:{self.dim(d)}" for d in self.degrees())
        return f"ChainComplex({self.ring!r}, {self.grading}, dims {{{dims}}})"


class ChainMap:
    """A degree-k map of chain complexes, stored as per-degree matrices."""

    __slots__ = ("source", "target", "degree", "mats")

    def __init__(self, source, target, degree, mats, validate=True):
        if source.ring != target.ring:
            raise MixedRings("chain map between different rings")
        if source.grading != target.grading:
            raise DegreeMismatch("chain map between different gradings")
        self.source = source
        self.target = target
        self.degree = degree
        self.mats = {}
        for d, m in mats.items():
            if m is None or m.is_zero():
                continue
            td = target.shift_deg(d, degree) if target.grading == "Z2" else d + degree
            want = (target.dim(td), source.dim(d))
            if (m.nrows, m.ncols) != want:
                raise ValueError(f"map at degree {d}: shape {(m.nrows, m.ncols)}, want {want}")
            self.mats[d] = m
        if validate:
            self.validate()

    def target_deg(self, d):
        return self.target.shift_deg(d, self.degree)

    def mat(self, d) -> Mat:
        m = self.mats.get(d)
        if m is not None:
            return m
        return Mat.zeros(self.source.ring, self.target.dim(self.target_deg(d)),
                         self.source.dim(d))

    def validate(self):
        ring = self.source.ring
        sign = -1 if self.degree % 2 else 1
        for d in self.source.degrees():
            lhs = self.target.d_mat(self.target_deg(d)).mul(self.mat(d))
            rhs = self.mat(self.source.pred(d)).mul(self.source.d_mat(d))
            if sign == -1:
                rhs = rhs.neg()
            if lhs != rhs:
                raise DegreeMismatch(
                    f"not a chain map in degree {d} (d f != {'-' if sign < 0 else ''}f d)"
                )
        return self

    @staticmethod
    def from_label_fn(source, target, degree, fn, validate=True):
        """Build from a function label -> list of (target_label, coeff), a
        single such pair, or None; `from_label_fn2` passes (degree, label)
        to fn instead."""
        return ChainMap._from_fn(source, target, degree,
                                 lambda d, l: fn(l), validate)

    @staticmethod
    def from_label_fn2(source, target, degree, fn, validate=True):
        """Like from_label_fn, but fn receives (source_degree, label)."""
        return ChainMap._from_fn(source, target, degree, fn, validate)

    @staticmethod
    def _from_fn(source, target, degree, fn, validate):
        mats = {}
        ring = source.ring
        for d in source.degrees():
            td = target.shift_deg(d, degree)
            row_of = target._label_index().get(td, {})
            acc = {}
            for j, l in enumerate(source.labels(d)):
                hits = fn(d, l)
                if not hits:
                    continue
                if isinstance(hits, tuple):
                    hits = [hits]
                for tl, c in hits:
                    key = (row_of[tl], j)
                    c = ring.canon(c)
                    w = acc.get(key)
                    acc[key] = c if w is None else ring.add(w, c)
            m = Mat.zeros(ring, target.dim(td), source.dim(d))
            m.d = {k: v for k, v in acc.items() if not ring.is_zero(v)}
            mats[d] = m
        return ChainMap(source, target, degree, mats, validate=validate)

    @staticmethod
    def identity(c: ChainComplex) -> "ChainMap":
        mats = {d: Mat.identity(c.ring, c.dim(d)) for d in c.degrees()}
        return ChainMap(c, c, 0, mats, validate=False)

    @staticmethod
    def zero(source, target) -> "ChainMap":
        return ChainMap(source, target, 0, {}, validate=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other (self o other)."""
        if other.target is not self.source and other.target.basis != self.source.basis:
            raise DegreeMismatch("composition mismatch")
        mats = {}
        for d in other.source.degrees():
            mid = other.target_deg(d)
            m = self.mat(mid).mul(other.mat(d))
            if not m.is_zero():
                mats[d] = m
        return ChainMap(other.source, self.target, self.degree + other.degree,
                        mats, validate=False)

    def add(self, other: "ChainMap") -> "ChainMap":
        if self.degree != other.degree:
            raise DegreeMismatch("sum of maps of different degrees")
        mats = {}
        for d in set(self.mats) | set(other.mats):
            mats[d] = self.mat(d).add(other.mat(d))
        return ChainMap(self.source, self.target, self.degree, mats, validate=False)

    def neg(self) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree,
                        {d: m.neg() for d, m in self.mats.items()}, validate=False)

    def sub(self, other):
        return self.add(other.neg())

    def scale_int(self, n: int) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree,
                        {d: m.scale_int(n) for d, m in self.mats.items()},
                        validate=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def eq(self, other: "ChainMap") -> bool:
        if self.degree != other.degree:
            return False
        for d in set(self.mats) | set(other.mats):
            if self.mat(d) != other.mat(d):
                return False
        return True

    def apply_label(self, d, label) -> dict:
        """Image of a basis element, as {target_label: coeff}."""
        j = self.source.index(d, label)
        col = self.mat(d).column(j)
        td = self.target_deg(d)
        return {self.target.labels(td)[i]: v for i, v in col.items()}

    def label_images(self, d) -> dict:
        """{label: image} for every basis element of degree d, from one walk
        over the matrix (apply_label costs that walk per label)."""
        cols = self.mat(d).columns()
        tgt = self.target.labels(self.target_deg(d))
        return {l: {tgt[i]: v for i, v in cols.get(j, {}).items()}
                for j, l in enumerate(self.source.labels(d))}

    def map_coefficients(self, new_ring, fn, new_source, new_target) -> "ChainMap":
        mats = {d: m.map_ring(new_ring, fn) for d, m in self.mats.items()}
        return ChainMap(new_source, new_target, self.degree, mats, validate=False)

    def __repr__(self):
        return f"ChainMap(degree {self.degree}, {len(self.mats)} nonzero degrees)"


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone target (+) source[1]."""
    if f.degree != 0:
        raise DegreeMismatch("cone needs a degree-0 map")
    S, T = f.source, f.target
    ring = S.ring
    basis = {}
    for d in sorted(set(T.degrees()) | {S.shift_deg(d, 1) for d in S.degrees()}):
        ls = [("c0", l) for l in T.labels(d)]
        sd = S.shift_deg(d, -1)
        ls += [("c1", l) for l in S.labels(sd)]
        if ls:
            basis[d] = ls
    diff = {}
    for d, ls in basis.items():
        pd = S.pred(d)
        sd = S.shift_deg(d, -1)
        # the c1 labels follow the c0 labels in every degree
        diff[d] = linalg.block_matrix(ring, len(basis.get(pd, ())), len(ls), [
            (T.d_mat(d), 0, 0, 1),
            (S.d_mat(sd), T.dim(pd), T.dim(d), -1),
            (f.mat(sd), 0, T.dim(d), 1)])
    return ChainComplex(ring, S.grading, basis, diff)


class HomologyReport:
    """Homology in one degree: dimension over a field, rank + torsion over Z."""

    __slots__ = ("degree", "field", "dimension", "free_rank", "invariant_factors")

    def __init__(self, degree, field, dimension=None, free_rank=None,
                 invariant_factors=None):
        self.degree = degree
        self.field = field
        self.dimension = dimension
        self.free_rank = free_rank
        self.invariant_factors = list(invariant_factors or [])

    def is_zero(self) -> bool:
        if self.field:
            return self.dimension == 0
        return self.free_rank == 0 and not self.invariant_factors

    def format(self) -> str:
        if self.field:
            return "0" if self.dimension == 0 else f"k^{self.dimension}"
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts += [f"Z/{n}" for n in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        if self.field:
            return {"degree": self.degree, "rank": self.dimension, "torsion": []}
        return {"degree": self.degree, "rank": self.free_rank,
                "torsion": list(self.invariant_factors)}

    def __eq__(self, other):
        return isinstance(other, HomologyReport) and self.as_dict() == other.as_dict()

    def __repr__(self):
        return f"H_{self.degree} = {self.format()}"


def homology(C: ChainComplex, degree: int) -> HomologyReport:
    """H_degree(C): a dimension over a field, free rank and torsion over Z.

    C is degreewise free of finite rank, so with d_out = d_degree and
    d_in = d_{degree+1},

        dim / free rank = dim C_degree - rank(d_out) - rank(d_in),

    with rank(d_out) from `field_rank` (over Z the rank over Q, which is
    the same).  Over Z the torsion is Z/e for each entry e != 1 of the Smith
    diagonal of d_in, whose length is rank(d_in): one Smith diagonalization
    per call.  Over Z, d_out d_in = 0 is checked before it and
    NotADifferential names a witness otherwise.
    """
    ring = C.ring
    if ring.is_novikov:
        raise UnsupportedRing(
            "homology over a truncated Novikov ring is undefined here; "
            "use is_quasi_iso (residue reduction) instead"
        )
    if C.grading == "Z2" and not ring.is_field:
        raise UnsupportedRing("Z2-graded homology needs field coefficients")
    if not ring.is_field and ring.kind != "Z":
        raise UnsupportedRing(f"homology not implemented over {ring!r}")
    ker = C.dim(degree) - linalg.field_rank(C.d_mat(degree))
    d_in = C.d_mat(C.succ(degree))
    if ring.is_field:
        return HomologyReport(degree, True,
                              dimension=ker - linalg.field_rank(d_in))
    C.check_d_squared(C.succ(degree))
    factors = linalg.snf_diagonal(d_in)
    free_rank = ker - len(factors)
    return HomologyReport(degree, False, free_rank=free_rank,
                          invariant_factors=[f for f in factors if f != 1])


class QuasiIsoResult:
    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"QuasiIsoResult({self.ok}, witness={self.witness})"


def _residue_complex(C: ChainComplex) -> ChainComplex:
    ring = C.ring
    return C.map_coefficients(ring.base, ring.residue)


def _residue_map(f: ChainMap) -> ChainMap:
    ring = f.source.ring
    return f.map_coefficients(ring.base, ring.residue,
                              _residue_complex(f.source), _residue_complex(f.target))


def is_quasi_iso(f: ChainMap, degrees) -> QuasiIsoResult:
    """True iff f induces isomorphisms on homology in every tested degree.

    Decided through the mapping cone; over a truncated Novikov ring the
    question is reduced to the residue field (valid for degreewise-free
    complexes because the maximal ideal of the truncation is nilpotent).
    """
    if f.degree != 0:
        raise DegreeMismatch("quasi-isomorphism test needs a degree-0 map")
    ring = f.source.ring
    if ring.is_novikov:
        return is_quasi_iso(_residue_map(f), degrees)
    degrees = sorted(set(degrees))
    if not degrees:
        return QuasiIsoResult(True)
    cn = cone(f)
    if f.source.grading == "Z2":
        test = sorted({d % 2 for d in degrees} | {(d + 1) % 2 for d in degrees})
    else:
        test = list(range(degrees[0], degrees[-1] + 2))
    for d in test:
        h = homology(cn, d)
        if not h.is_zero():
            wd = d if d in degrees else max(degrees[0], d - 1)
            witness = {
                "degree": wd,
                "cone_homology": h.format(),
                "source": homology(f.source, wd).format(),
                "target": homology(f.target, wd).format(),
            }
            return QuasiIsoResult(False, witness)
    return QuasiIsoResult(True)


def _splitting_homotopy(C: ChainComplex) -> ChainMap:
    """Contraction of an acyclic complex over a field, via an exact splitting."""
    ring = C.ring
    degs = C.degrees()
    selected = {}
    image_basis = {}
    for d in degs:
        pivots = {}
        chosen = []
        img_vecs = []
        for j, col in sorted(C.d_mat(d).columns().items()):
            before = len(pivots)
            linalg._rref_insert(ring, col, pivots)
            if len(pivots) > before:
                chosen.append(j)
                img_vecs.append(col)
        selected[d] = chosen
        image_basis[C.pred(d)] = img_vecs
    mats = {}
    for d in degs:
        n = C.dim(d)
        img = image_basis.get(d, [])
        w_cols = selected.get(d, [])
        sd = C.succ(d)
        wn = selected.get(sd, [])
        big = Mat.zeros(ring, n, len(img) + len(w_cols))
        for j, vec in enumerate(img):
            for i, v in vec.items():
                big.set(i, j, v)
        for j, cidx in enumerate(w_cols):
            big.set(cidx, len(img) + j, ring.one)
        sol = linalg.field_solve_mat(big, Mat.identity(ring, n))
        if sol is None:
            raise NotAcyclic(f"complex is not acyclic in degree {d}")
        h = Mat.zeros(ring, C.dim(sd), n)
        h.d = {(wn[i], col): v for (i, col), v in sol.d.items()
               if i < len(img)}
        mats[d] = h
    hmap = ChainMap(C, C, 1, mats, validate=False)
    check = C_dh_plus_hd(C, hmap)
    idm = ChainMap.identity(C)
    if not check.eq(idm):
        raise NotAcyclic("no contraction exists: complex has homology")
    return hmap


def C_dh_plus_hd(C: ChainComplex, h: ChainMap) -> ChainMap:
    dC = differential_as_map(C)
    return dC.compose(h).add(h.compose(dC))


def differential_as_map(C: ChainComplex) -> ChainMap:
    return ChainMap(C, C, -1, dict(C.diff), validate=False)


def null_homotopy(C: ChainComplex) -> ChainMap:
    """h of degree +1 with d h + h d = id, for acyclic degreewise-free C.

    Over a field this is an exact linear splitting.  Over a truncated Novikov
    ring the contraction is solved over the residue field and lifted one grid
    exponent at a time; the correction at each step is F o h for the current
    error term F, which works because F commutes with d exactly.
    """
    ring = C.ring
    if ring.is_field:
        return _splitting_homotopy(C)
    if not ring.is_novikov or not ring.base.is_field:
        raise UnsupportedRing("null_homotopy needs a field or Novikov-over-field ring")
    Cbar = _residue_complex(C)
    try:
        hbar = _splitting_homotopy(Cbar)
    except NotAcyclic:
        raise NotAcyclic("residue complex has homology, so C is not acyclic")
    from fractions import Fraction
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
