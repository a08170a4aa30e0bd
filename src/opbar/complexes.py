"""Free graded chain complexes with labeled bases, over exact rings.

Conventions, used engine-wide:

* Z-graded, homological: differentials lower degree by one;
* cohomological input is stored by negating degrees;
* Koszul sign rule: d(a (x) b) = da (x) b + (-1)^{|a|} a (x) db;
* a chain map of degree k satisfies  d f = (-1)^k f d;
* shift C[n] places C_d in degree d+n and twists d by (-1)^n;
* cone(f) = target (+) source[1] with d(t, s) = (d t + f s, -d s).

Every sum of shifted complexes is laid out by `total`, the one caller of
`linalg.block_matrix`: the cone, the mapping telescope, the realization of
a simplicial object and the ordered form of the Kan object.  Part C[n]
holds the labels prefix + (l,) with the shift sign on d, the parts follow
each other in every degree, and signed degree-0 maps between parts add the
cross terms.  Each differential is summed from its blocks' int forms.

The exact checks (d^2 = 0, chain maps, `first_difference` of two maps)
decide on the int column forms of `linalg`, which each matrix keeps, so a
matrix that several checks read is formed once, and a total's never.
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
    """A degreewise-free complex with an ordered labeled basis per degree.
    Every complex is Z-graded: the grading argument must be "Z"."""

    __slots__ = ("ring", "basis", "diff", "_index")
    grading = "Z"

    def __init__(self, ring: Ring, grading: str, basis: dict, diff: dict,
                 validate: bool = True):
        if grading != "Z":
            raise ValueError(f"grading must be 'Z', not {grading!r}")
        self.ring = ring
        self.basis = {d: list(ls) for d, ls in sorted(basis.items()) if ls}
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
        return d - 1

    def succ(self, d: int) -> int:
        return d + 1

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
        """d^2 = 0 in every degree, on the differentials' kept forms."""
        for d in self.degrees():
            self.check_d_squared(d)
        return self

    def check_d_squared(self, d: int):
        """Raise NotADifferential unless d_{d-1} d_d = 0, naming the first
        basis element of degree d whose image under d^2 is nonzero."""
        w = _witness(self.ring, self, d, self.labels(self.pred(self.pred(d))),
                     _product(self.diff.get(self.pred(d)), self.diff.get(d)), None)
        if w is not None:
            image = {l: self.ring.show(v) for l, v in w["lhs"].items()}
            raise NotADifferential(f"d^2 != 0 on basis element {w['label']!r} "
                                   f"in degree {d}: {image}")

    # -- constructions -------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "ChainComplex":
        return ChainComplex(ring, "Z", {}, {})

    @staticmethod
    def single(ring: Ring, label, degree: int = 0) -> "ChainComplex":
        return ChainComplex(ring, "Z", {degree: [label]}, {})

    @staticmethod
    def from_labels(ring: Ring, basis: dict, d_fn, validate: bool = True) -> "ChainComplex":
        """Build from {deg: [labels]} and d_fn(label) -> {target_label: coeff},
        the boundary of a basis label, with coefficients in ring.  Raises
        ValueError when d_fn names a label that is not in the basis one
        degree below."""
        diff = {}
        for d, ls in basis.items():
            below = basis.get(d - 1, ())
            rows = {l: i for i, l in enumerate(below)}
            acc = {}
            for j, l in enumerate(ls):
                for tl, c in d_fn(l).items():
                    i = rows.get(tl)
                    if i is None:
                        raise ValueError(f"d({l!r}) names {tl!r}, which is not "
                                         f"a basis label of degree {d} - 1")
                    acc[(i, j)] = ring.add(acc.get((i, j), ring.zero), c)
            diff[d] = Mat(ring, len(below), len(ls), acc)
        return ChainComplex(ring, "Z", basis, diff, validate)

    @staticmethod
    def free(ring: Ring, basis: dict, entries: dict) -> "ChainComplex":
        """Build from {deg: [labels]} and {(deg, src_label, tgt_label): coeff};
        a label named as a source is a basis label of one degree only."""
        bd = {}
        for (_, src, tgt), c in entries.items():
            bd.setdefault(src, {})[tgt] = ring.canon(c)
        return ChainComplex.from_labels(ring, basis, lambda l: bd.get(l, {}))

    def relabel(self, fn) -> "ChainComplex":
        basis = {d: [fn(l) for l in ls] for d, ls in self.basis.items()}
        return ChainComplex(self.ring, "Z", basis, self.diff, validate=False)

    def shift(self, n: int) -> "ChainComplex":
        basis = {d + n: ls for d, ls in self.basis.items()}
        sign = 1 if n % 2 == 0 else -1
        diff = {}
        for d, m in self.diff.items():
            diff[d + n] = m if sign == 1 else m.neg()
        return ChainComplex(self.ring, "Z", basis, diff, validate=False)

    def tensor(self, other: "ChainComplex") -> "ChainComplex":
        """self (x) other with labels ("t", la, lb): `tensor_many` of the two
        factors, relabelled."""
        if self.ring != other.ring:
            raise MixedRings("tensor needs matching rings")
        return ChainComplex.tensor_many(self.ring, [self, other], tag="t") \
            .relabel(lambda l: ("t",) + l[1])

    def map_coefficients(self, new_ring: Ring, fn) -> "ChainComplex":
        diff = {d: m.map_ring(new_ring, fn) for d, m in self.diff.items()}
        return ChainComplex(new_ring, "Z", self.basis, diff, validate=False)

    @staticmethod
    def tensor_many(ring, factors, tag="x") -> "ChainComplex":
        """Flat tensor product: labels (tag, (l_1, ..., l_k)) in the degree
        sum of the factors' degrees, Koszul signs."""
        pools = []
        for c in factors:
            pools.append([(d, l) for d in c.degrees() for l in c.labels(d)])
        basis = {}
        for combo in itertools.product(*pools):
            basis.setdefault(sum(d for d, _ in combo), []).append(
                (tag, tuple(l for _, l in combo)))
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

        return ChainComplex.from_labels(ring, basis, d_fn, validate=False)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (d % 2) * self.dim(d) for d in self.degrees())

    def __repr__(self):
        dims = ", ".join(f"{d}:{self.dim(d)}" for d in self.degrees())
        return f"ChainComplex({self.ring!r}, Z, dims {{{dims}}})"


class ChainMap:
    """A degree-k map of chain complexes, stored as per-degree matrices."""

    __slots__ = ("source", "target", "degree", "mats")

    def __init__(self, source, target, degree, mats, validate=True):
        if source.ring != target.ring:
            raise MixedRings("chain map between different rings")
        self.source = source
        self.target = target
        self.degree = degree
        self.mats = {}
        for d, m in mats.items():
            if m is None or m.is_zero():
                continue
            want = (target.dim(d + degree), source.dim(d))
            if (m.nrows, m.ncols) != want:
                raise ValueError(f"map at degree {d}: shape {(m.nrows, m.ncols)}, want {want}")
            self.mats[d] = m
        if validate:
            self.validate()

    def target_deg(self, d):
        return d + self.degree

    def mat(self, d) -> Mat:
        m = self.mats.get(d)
        if m is not None:
            return m
        return Mat.zeros(self.source.ring, self.target.dim(self.target_deg(d)),
                         self.source.dim(d))

    def validate(self):
        """`check_chain_maps` of this one map."""
        check_chain_maps([self])
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
            td = d + degree
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
            mats[d] = Mat(ring, target.dim(td), source.dim(d), acc)
        return ChainMap(source, target, degree, mats, validate=validate)

    @staticmethod
    def identity(c: ChainComplex) -> "ChainMap":
        """id_c, one `Mat.identity` (a row map, its form kept) per degree."""
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
        return self.degree == other.degree and first_difference(self, other) is None

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


def _product(g, f):
    """The column form of g f, from the kept forms of g and f; None when g
    or f is absent or zero, and then neither is formed."""
    if g is None or f is None or g.is_zero() or f.is_zero():
        return None
    return linalg.column_product(g.ring, linalg.form(g), linalg.form(f))


def _witness(ring, source, d, rows, lhs, rhs):
    """None when the column forms lhs and rhs (None: zero) hold the same
    matrix; a form is zero when it has no entry, a Novikov one when every
    slice is None.  Otherwise {"degree", "label", "lhs", "rhs"} at the
    first label of source degree d where the columns differ, each image as
    {row label: value}: values are restored only here, to name it."""
    if lhs is None or rhs is None:
        rest = lhs if rhs is None else rhs
        if rest is None or linalg._is_zero_form(ring, rest):
            return None
    elif linalg.columns_equal(ring, lhs, rhs):
        return None
    a, b = {}, {}
    for cols, side in ((a, lhs), (b, rhs)):
        for (i, j), v in sorted(linalg._restore(ring, side).items() if side else ()):
            cols.setdefault(j, {})[rows[i]] = v
    j = min(j for j in a.keys() | b.keys() if a.get(j) != b.get(j))
    return {"degree": d, "label": source.labels(d)[j], "lhs": a.get(j, {}),
            "rhs": b.get(j, {})}


def first_difference(lhs, rhs):
    """None when lhs = rhs, on the kept column forms; each side is a
    ChainMap or a pair (g, f), which must compose, standing for g o f.
    Otherwise the `_witness` of the first label where they differ."""
    for g, f in (x for x in (lhs, rhs) if not isinstance(x, ChainMap)):
        if f.target is not g.source and f.target.basis != g.source.basis:
            raise DegreeMismatch("composition mismatch")

    def side(x, d):  # (column form, target degree) of x at source degree d
        if isinstance(x, ChainMap):
            m = x.mats.get(d)
            return linalg.form(m) if m is not None else None, x.target_deg(d)
        g, f = x
        e = f.target_deg(d)
        return _product(g.mats.get(e), f.mats.get(d)), g.target_deg(e)

    S = (lhs if isinstance(lhs, ChainMap) else lhs[1]).source
    T = (lhs if isinstance(lhs, ChainMap) else lhs[0]).target
    for d in S.degrees():
        (a, td), (b, _) = side(lhs, d), side(rhs, d)
        w = _witness(S.ring, S, d, T.labels(td), a, b)
        if w is not None:
            return w
    return None


def check_chain_maps(maps):
    """Raise DegreeMismatch unless d f = (-1)^k f d for every map f of
    degree k, on the kept column forms, naming the first failing label,
    ``.witness`` its `_witness`."""
    for f in maps:
        S, T = f.source, f.target
        dS = {d: m.neg() for d, m in S.diff.items()} if f.degree % 2 else S.diff
        for d in S.degrees():
            td = f.target_deg(d)
            w = _witness(S.ring, S, d, T.labels(T.pred(td)),
                         _product(T.diff.get(td), f.mats.get(d)),
                         _product(f.mats.get(S.pred(d)), dS.get(d)))
            if w is not None:
                raise DegreeMismatch(
                    f"not a chain map in degree {d} (d f != "
                    f"{'-' if f.degree % 2 else ''}f d) at {w['label']!r}: {w}",
                    witness=w)


def total(ring: Ring, parts, arrows, degrees=None) -> ChainComplex:
    """The total complex of shifted parts joined by arrows.

    parts is a list of (prefix, C, n): the part C[n] holds C_e in degree
    e + n with labels prefix + (l,) and differential (-1)^n d_C, and within
    each degree the labels come in part order.  arrows is a list of
    (s, t, f, sign), each adding sign * f from part s to part t, where f is
    a degree-0 map C_s -> C_t and n_s = n_t + 1.  Only the given degrees
    (every degree when None) are built, with the differentials between
    them, each summed from its blocks' forms (`block_matrix`) and keeping
    its own, on which d^2 = 0 is checked."""
    basis, at = {}, {}  # at[D, p]: where part p's labels start in degree D
    for D in sorted({e + n for _, C, n in parts for e in C.degrees()}):
        if degrees is None or D in degrees:
            ls = basis[D] = []
            for p, (prefix, C, n) in enumerate(parts):
                at[D, p] = len(ls)
                ls += [prefix + (l,) for l in C.labels(D - n)]
    diff = {}
    for D, ls in basis.items():
        E = D - 1
        if E in basis:
            blocks = [(C.diff.get(D - n), at[E, p], at[D, p],
                       -1 if n % 2 else 1) for p, (_, C, n) in enumerate(parts)]
            blocks += [(f.mats.get(D - parts[s][2]),
                        at[E, t], at[D, s], sign) for s, t, f, sign in arrows]
            diff[D] = linalg.block_matrix(ring, len(basis[E]), len(ls),
                                          [b for b in blocks if b[0] is not None])
    return ChainComplex(ring, "Z", basis, diff)


def cone(f: ChainMap, degrees=None) -> ChainComplex:
    """Mapping cone target (+) source[1] (`total`), built and checked for
    d^2 = 0 in the given degrees only (every degree when None), with the
    differentials between them."""
    if f.degree != 0:
        raise DegreeMismatch("cone needs a degree-0 map")
    return total(f.source.ring, [(("c0",), f.target, 0), (("c1",), f.source, 1)],
                 [(1, 0, f, 1)], degrees)


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
    per call, whose unit phase takes each +-1 pivot by row operations and
    drops its row and column (a 1 of the diagonal: the column is then +-e_i,
    so clearing the row touches it alone), then a dense Smith loop on the
    small block left, which holds the torsion.  Over Z, d_out d_in = 0 is
    checked before it and NotADifferential names a witness otherwise.
    """
    return _homology(C, degree, {})


def _homology(C: ChainComplex, degree: int, ranks: dict) -> HomologyReport:
    """`homology`, reading and filling ranks {e: rank of d_e}, so that a loop
    over consecutive degrees ranks each differential once."""
    ring = C.ring
    if ring.is_novikov:
        raise UnsupportedRing(
            "homology over a truncated Novikov ring is undefined here; "
            "use is_quasi_iso (residue reduction) instead"
        )
    if not ring.is_field and ring.kind != "Z":
        raise UnsupportedRing(f"homology not implemented over {ring!r}")
    up = C.succ(degree)
    for e in (degree, up) if ring.is_field else (degree,):
        if e not in ranks:
            ranks[e] = linalg.field_rank(C.d_mat(e))
    ker = C.dim(degree) - ranks[degree]
    if ring.is_field:
        return HomologyReport(degree, True, dimension=ker - ranks[up])
    C.check_d_squared(up)
    factors = linalg.snf_diagonal(C.d_mat(up))
    ranks[up] = len(factors)
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


def _sliced(x, new_ring):
    """A Novikov complex or map x over new_ring, each matrix from a prefix
    of its kept slice form: over the base field slice 0 (the residue), over
    a cutoff c' the slices k < ceil(c' q); the new matrix keeps that form.
    A map whose source is its target takes that complex over once."""
    keep = linalg._steps(new_ring) if new_ring.is_novikov else 0
    mats = {d: linalg.from_form(new_ring, m.nrows, m.ncols,
                                linalg.form(m)[:keep] if keep else linalg.form(m)[0])
            for d, m in (x.diff if isinstance(x, ChainComplex) else x.mats).items()}
    if isinstance(x, ChainComplex):
        return ChainComplex(new_ring, "Z", x.basis, mats, validate=False)
    S = _sliced(x.source, new_ring)
    T = S if x.target is x.source else _sliced(x.target, new_ring)
    return ChainMap(S, T, x.degree, mats, validate=False)


def is_quasi_iso(f: ChainMap, degrees) -> QuasiIsoResult:
    """True iff f induces isomorphisms on homology in every tested degree.

    Decided through the mapping cone: for the window [a, b] spanned by
    degrees, H_a .. H_{b+1} of the cone must vanish, and only cone degrees
    a - 1 .. b + 2 are built (`cone` checks d^2 = 0 on them).  Each cone
    differential is ranked once.  f is checked to be a chain map in all its
    degrees at entry (`check_chain_maps`); d^2 = 0 of source and target is
    their constructors' check.  Over a truncated Novikov ring the question
    is reduced to the residue field (valid for degreewise-free complexes
    because the maximal ideal of the truncation is nilpotent).
    """
    if f.degree != 0:
        raise DegreeMismatch("quasi-isomorphism test needs a degree-0 map")
    ring = f.source.ring
    check_chain_maps([f])
    if ring.is_novikov:  # the slices reuse the check's int forms
        f = _sliced(f, ring.base)
    degrees = sorted(set(degrees))
    if not degrees:
        return QuasiIsoResult(True)
    cn = cone(f, range(degrees[0] - 1, degrees[-1] + 3))
    ranks = {}
    for d in range(degrees[0], degrees[-1] + 2):
        h = _homology(cn, d, ranks)
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
    """Contraction h of an acyclic complex over a field, via an exact
    splitting.  W_d holds the nonzero columns of d.  One `field_solve_mat`
    per degree writes every basis vector in the columns of
    [d W_{d+1} | e_{W_d}]; its pivots are the columns independent of those
    before them, so if C is acyclic they are a basis d w, e_w of
    C_d = B_d (+) W_d, and h sends d w to w and W_d to 0.  NotAcyclic when
    a solve fails; homology the solves do not see fails the check in
    `null_homotopy`."""
    ring = C.ring
    W = {d: sorted(C.d_mat(d).columns().items()) for d in C.degrees()}
    mats = {}
    for d in C.degrees():
        n, up = C.dim(d), W.get(C.succ(d), [])
        entries = {(i, j): v for j, (_, col) in enumerate(up) for i, v in col.items()}
        entries.update(((w, len(up) + j), ring.one) for j, (w, _) in enumerate(W[d]))
        sol = linalg.field_solve_mat(Mat(ring, n, len(up) + len(W[d]), entries),
                                     Mat.identity(ring, n))
        if sol is None:
            raise NotAcyclic(f"complex is not acyclic in degree {d}")
        mats[d] = Mat(ring, C.dim(C.succ(d)), n, {
            (up[i][0], c): v for (i, c), v in sol.d.items() if i < len(up)})
    return ChainMap(C, C, 1, mats, validate=False)


def null_homotopy(C: ChainComplex) -> ChainMap:
    """h of degree +1 with d h + h d = id, for acyclic degreewise-free C.

    Over a field this is an exact linear splitting (`_splitting_homotopy`,
    on the one field elimination of `linalg`).  Over a truncated Novikov
    ring it is lifted on the kept slice form of each matrix of d: D_a is
    the T^(a/q) coefficient of d, the residue contraction H_0 = hbar of D_0
    is that splitting over the base field, and slice k >= 1 of h is H_k =
    -E_k hbar, where E_k = sum_{a+b=k, b<k} (D_a H_b + H_b D_a) is slice k
    of d h + h d for the slices found so far; E_k commutes with D_0, so
    adding T^k H_k cancels it.  Before h is restored from its slices
    (`linalg.from_form`), slice k of d h + h d is checked exactly, in every
    degree, to be the identity (k = 0, NotAcyclic if not) or zero (NoLift
    if not); over a field the one slice is d itself.
    """
    ring = C.ring
    if not (ring.is_field or ring.is_novikov):
        raise UnsupportedRing("null_homotopy needs a field or Novikov-over-field ring")
    base = ring if ring.is_field else ring.base
    no_contraction = ("no contraction exists: complex has homology" if ring.is_field
                      else "residue complex has homology, so C is not acyclic")
    # the residue and D share each differential's kept int form
    D = {d: [linalg.form(m)] if ring.is_field else linalg.form(m)
         for d, m in C.diff.items()}
    Cbar = C if ring.is_field else _sliced(C, base)
    try:
        hbar = _splitting_homotopy(Cbar)
    except NotAcyclic as err:
        raise err if ring.is_field else NotAcyclic(no_contraction)
    H = {d: [linalg.form(m)] for d, m in hbar.mats.items()}  # no zero matrix
    minus_hbar = {d: linalg.form(m.neg()) for d, m in hbar.mats.items()}

    def dh_hd(e, k, bs):  # sum over b in bs of D_{k-b} H_b + H_b D_{k-b} on C_e
        up, here, down, at = D.get(C.succ(e)), H.get(e), H.get(C.pred(e)), D.get(e)
        pairs = [(up[k - b], here[b]) for b in bs if up and here] + \
            [(down[b], at[k - b]) for b in bs if down and at]
        return linalg.form_sum(base, [linalg.column_product(base, g, f)
                                      for g, f in pairs if g and f])

    for k in range(linalg._steps(ring) if ring.is_novikov else 1):
        E = {e: dh_hd(e, k, range(k)) for e in C.degrees()}  # E_k; E_0 = 0
        for d, mh in (minus_hbar.items() if k else ()):
            H[d].append(E[C.succ(d)] and linalg.form_sum(
                base, [linalg.column_product(base, E[C.succ(d)], mh)]))
        for e in C.degrees():  # slice k of d h + h d
            S = linalg.form_sum(base, [x for x in (E[e], dh_hd(e, k, [k])) if x])
            if k == 0 and not (S and linalg.columns_equal(
                    base, S, (1, None, list(range(C.dim(e)))))):
                raise NotAcyclic(no_contraction)
            if k and S:
                raise NoLift("order-by-order lift failed on a degreewise-free complex")
    return ChainMap(C, C, 1, {d: linalg.from_form(ring, C.dim(C.succ(d)), C.dim(d),
                                                 hs if ring.is_novikov else hs[0])
                              for d, hs in H.items()}, validate=False)
