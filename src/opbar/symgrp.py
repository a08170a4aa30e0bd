"""Symmetric groups, group actions on complexes, coinvariants, and freeness.

Group elements are permutations of {1..n}.  Actions on complexes are given by
chain maps for a generating set and extended by closure; the extension is
checked for consistency, so relations of the subgroup hold on the nose.

The engine-wide Koszul convention: permuting graded tensor factors picks up
(-1)^{|a_i||a_j|} for every inverted pair of odd factors.
"""

from __future__ import annotations

import re
from collections import Counter

from .complexes import ChainComplex, ChainMap, first_difference
from .errors import GroupMismatch, GroupTooLarge, NonPermutationAction
from .linalg import Mat
from .quotient import by_classes, by_span

GROUP_DEGREE_BOUND = 8


class Perm:
    """A permutation of {1..n}, stored by its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        self.images = images

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(1, n + 1))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Perm":
        img = list(range(1, n + 1))
        img[i - 1], img[j - 1] = j, i
        return Perm(img)

    def compose(self, other: "Perm") -> "Perm":
        """self o other: first apply other, then self."""
        if self.n != other.n:
            raise GroupMismatch("composing permutations of different degrees")
        return Perm(self.images[other.images[i] - 1] for i in range(self.n))

    def inverse(self) -> "Perm":
        img = [0] * self.n
        for i, v in enumerate(self.images):
            img[v - 1] = i + 1
        return Perm(img)

    def sign(self) -> int:
        inv = 0
        im = self.images
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if im[a] > im[b]:
                    inv += 1
        return -1 if inv % 2 else 1

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.n))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return cycle_notation(self)


def koszul_sign(perm: Perm, degrees) -> int:
    """Sign of reordering (a_1..a_n) to (a_{perm(1)}..a_{perm(n)})."""
    sign = 1
    n = perm.n
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            if perm(k) > perm(l) and degrees[perm(k) - 1] % 2 and degrees[perm(l) - 1] % 2:
                sign = -sign
    return sign


def block_perm(sizes, perm: Perm) -> Perm:
    """The permutation of sum(sizes) letters moving blocks by perm.

    Block j of the source (of size sizes[j-1]) lands where perm sends it:
    the result reorders blocks to (B_{perm(1)}, ..., B_{perm(m)}).
    """
    m = len(sizes)
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    img = []
    for k in range(1, m + 1):
        b = perm(k)
        img.extend(range(starts[b - 1] + 1, starts[b] + 1))
    # img lists source letters in target order; we need images of source letters
    res = [0] * len(img)
    for tpos, src in enumerate(img, start=1):
        res[src - 1] = tpos
    return Perm(res)


def cycle_notation(p: Perm) -> str:
    seen = set()
    out = []
    for i in range(1, p.n + 1):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = p(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p(j)
        if len(cyc) > 1:
            out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "id"


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation like "(1 2)(3 4)" into a permutation of 1..n."""
    img = list(range(1, n + 1))
    text = text.strip()
    if text in ("id", "", "()"):
        return Perm(img)
    for grp in re.findall(r"\(([^()]*)\)", text):
        nums = [int(t) for t in re.split(r"[,\s]+", grp.strip()) if t]
        if len(nums) <= 1:
            continue
        for a, b in zip(nums, nums[1:] + nums[:1]):
            img[a - 1] = b
    return Perm(img)


def enumerate_group(generators, n: int):
    """Full element list of the subgroup generated inside S_n, by closure."""
    if n > GROUP_DEGREE_BOUND:
        raise GroupTooLarge(f"degree {n} exceeds the bound {GROUP_DEGREE_BOUND}")
    gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
    for g in gens:
        if g.n != n:
            raise GroupMismatch(f"generator {g!r} not in S_{n}")
    seen = {Perm.identity(n)}
    frontier = [Perm.identity(n)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = g.compose(cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen, key=lambda p: p.images)


class GroupRingModule:
    """A chain complex with a one-sided action of a subgroup G of S_n by
    degree-0 chain maps.

    `side` is "left" or "right"; composition conventions are
    left: (gh).m = g.(h.m),  right: m.(gh) = (m.g).h.
    The side decides only how two maps compose (`_pair`).  A right action
    and the left action g -> map(g^{-1}) have the same maps, so both sides
    have the same orbits, and `signed_perm_tables` reads either side as it is.
    """

    def __init__(self, side, n, generators, complex: ChainComplex, gen_maps):
        if side not in ("left", "right"):
            raise ValueError("side must be left or right")
        self.side = side
        self.n = n
        self.gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        self.complex = complex
        self.elements = enumerate_group(self.gens, n)
        self._maps = {Perm.identity(n): ChainMap.identity(complex)}
        for g, m in zip(self.gens, gen_maps):
            if m.source is not complex or m.target is not complex or m.degree != 0:
                raise NonPermutationAction("action maps must be degree-0 self-maps")
            self._maps[g] = m
        # extend to the whole group: map(g o cur) from map(g) and map(cur);
        # the generators are already assigned, so the search starts from them
        frontier = list(self.gens)
        while frontier:
            cur = frontier.pop()
            for g in self.gens:
                nxt = g.compose(cur)
                if nxt not in self._maps:
                    outer, inner = self._pair(self._maps[g], self._maps[cur])
                    self._maps[nxt] = outer.compose(inner)
                    frontier.append(nxt)
        self.check_consistency()

    def _pair(self, mg: ChainMap, mh: ChainMap):
        """(outer, inner) whose composite is the map of g o h, from the maps
        of g and h: on the right, m.(g o h) = (m.g).h, so g's runs first."""
        return (mg, mh) if self.side == "left" else (mh, mg)

    def check_consistency(self):
        """Relations hold on the nose: map(g o h) is the composite of
        `_pair(map(g), map(h))` for every generator g and element h, decided
        on the maps' kept column forms."""
        for g in self.gens:
            for h in self.elements:
                pair = self._pair(self._maps[g], self._maps[h])
                if first_difference(pair, self._maps[g.compose(h)]):
                    raise NonPermutationAction(
                        f"{self.side} action violates the group relations "
                        f"at {g!r} o {h!r}")
        return self

    def map_of(self, g: Perm) -> ChainMap:
        return self._maps[g]

    def signed_perm_tables(self):
        """Per degree: {g: {col_index: (row_index, sign)}}; None if not signed-perm."""
        tables = {}
        ring = self.complex.ring
        one, neg = ring.one, ring.from_int(-1)
        for d in self.complex.degrees():
            per_g = {}
            for g in self.elements:
                m = self.map_of(g).mat(d)
                cols = {}
                for (i, j), v in m.d.items():
                    if j in cols:
                        return None
                    if v == one:
                        cols[j] = (i, 1)
                    elif v == neg:
                        cols[j] = (i, -1)
                    else:
                        return None
                if len(cols) != self.complex.dim(d):
                    return None
                per_g[g] = cols
            tables[d] = per_g
        return tables


class GroupAction(GroupRingModule):
    """A left action of a subgroup of S_n on a chain complex by chain maps."""

    def __init__(self, n, generators, complex: ChainComplex, gen_maps):
        super().__init__("left", n, generators, complex, gen_maps)


def coinvariants(action: GroupAction):
    """Quotient by the span of {x - g.x}; returns (quotient, projection).

    For signed permutation actions the quotient basis is the set of orbit
    representatives (least index), and an orbit with a sign-conflicting
    stabilizer is killed (`quotient.by_classes`; see the free-quotient
    convention in `quotient`): over Z its coinvariants Z/2 are dropped, as
    in `bar.free_algebra`.  Otherwise exact column reduction over a field
    (`quotient.by_span`).
    """
    C = action.complex
    ring = C.ring
    tables = action.signed_perm_tables()
    if tables is not None:
        return by_classes(C, _orbit_classes(C, tables))
    if not ring.is_field:
        raise NonPermutationAction(
            "general (non signed-permutation) coinvariants need field coefficients"
        )
    spans = {}
    for d in C.degrees():
        vecs = spans[d] = []
        for g in action.gens:
            cols = action.map_of(g).mat(d).columns()
            for j in range(C.dim(d)):
                vec = dict(cols.get(j, {}))
                vec[j] = ring.sub(vec.get(j, ring.zero), ring.one)
                vec = {i: ring.neg(v) for i, v in vec.items() if not ring.is_zero(v)}
                if vec:
                    vecs.append(vec)
    return by_span(C, spans)


def _orbit_classes(C: ChainComplex, tables):
    """{degree: [(least index of the orbit, sign) or None per index]}; None
    marks an orbit whose stabilizer acts on it by a sign."""
    classes = {}
    for d in C.degrees():
        cls = classes[d] = [None] * C.dim(d)
        done = set()
        for j0 in range(C.dim(d)):
            if j0 in done:
                continue
            orbit, dead = {}, False
            for cols in tables[d].values():
                i, s = cols[j0]
                if orbit.setdefault(i, s) != s:
                    dead = True
            rep = min(orbit)
            for i, s in orbit.items():
                # [i] = (s / rep_sign) [rep]
                cls[i] = None if dead else (rep, s * orbit[rep])
            done.update(orbit)
    return classes


def tensor_over_group_ring(Mr: GroupRingModule, Ml: GroupRingModule):
    """(Mr tensor Ml) / (m.g (x) m' - m (x) g.m'); returns (complex, projection).

    The quotient is computed as coinvariants of the diagonal-type action
    g . (x (x) y) = (x.g) (x) (g^{-1}.y) on the plain tensor product.
    """
    if Mr.side != "right" or Ml.side != "left":
        raise GroupMismatch("need a right module and a left module")
    if Mr.n != Ml.n or sorted(Mr.elements) != sorted(Ml.elements):
        raise GroupMismatch("modules over different groups")
    if Mr.complex.ring != Ml.complex.ring:
        raise GroupMismatch("modules over different rings")
    T = Mr.complex.tensor(Ml.complex)
    gens = Mr.gens if Mr.gens else Ml.gens
    gen_maps = []
    for g in gens:
        rg = Mr.map_of(g)
        lg = Ml.map_of(g.inverse())
        gen_maps.append(_tensor_chain_map(T, T, rg, lg))
    action = GroupAction(Mr.n, gens, T, gen_maps)
    return coinvariants(action)


def _tensor_chain_map(TS, TT, f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g on tensor complexes built by ChainComplex.tensor (degree 0 only)."""
    def images(h):
        # label -> image, in the lowest degree holding the label
        out = {}
        for d in h.source.degrees():
            for l, img in h.label_images(d).items():
                out.setdefault(l, img)
        return out

    fa, gb = images(f), images(g)

    def fn(label):
        _, la, lb = label
        out = []
        for ta, ca in fa[la].items():
            for tb, cb in gb[lb].items():
                out.append((("t", ta, tb), TS.ring.mul(ca, cb)))
        return out

    return ChainMap.from_label_fn(TS, TT, 0, fn, validate=False)


class FreeModuleReport:
    __slots__ = ("free", "orbit_reps", "reason")

    def __init__(self, free, orbit_reps, reason=""):
        self.free = free
        self.orbit_reps = orbit_reps
        self.reason = reason

    def __bool__(self):
        return self.free

    def __repr__(self):
        return f"FreeModuleReport(free={self.free}, reps={len(self.orbit_reps)})"


def is_free_module(M: GroupRingModule) -> FreeModuleReport:
    """Freeness of a signed-permutation module: every orbit is a regular orbit."""
    tables = M.signed_perm_tables()
    if tables is None:
        raise NonPermutationAction(
            "freeness is only decided for signed permutation actions")
    order = len(M.elements)
    reps = []
    # orbits in the order of their least index, which is the first index of
    # a killed orbit and the representative of any other
    for d, cls in _orbit_classes(M.complex, tables).items():
        sizes = Counter(c[0] for c in cls if c is not None)
        for j, c in enumerate(cls):
            if c is None:
                return FreeModuleReport(
                    False, [], f"sign-stabilized orbit at degree {d}, index {j}")
            if c[0] != j:
                continue
            if sizes[j] != order:
                return FreeModuleReport(
                    False, [],
                    f"orbit of size {sizes[j]} < {order} at degree {d}, index {j}")
            reps.append((d, M.complex.labels(d)[j]))
    return FreeModuleReport(True, reps)


def descend_to_coinvariants(action_src: GroupAction, action_tgt: GroupAction,
                            f: ChainMap):
    """Descend an equivariant chain map to the coinvariant quotients."""
    for g in action_src.gens:
        if first_difference((f, action_src.map_of(g)),
                            (action_tgt.map_of(g), f)):
            raise GroupMismatch(f"map is not equivariant at {g!r}")
    qs, ps = coinvariants(action_src)
    qt, pt = coinvariants(action_tgt)
    # solve: descended o ps = pt o f, degreewise; ps is surjective with a
    # canonical section (representatives), so read the matrix off sections.
    mats = {}
    ring = f.source.ring
    for d in qs.degrees():
        cols = pt.mat(d).mul(f.mat(d)).columns()
        mats[d] = Mat(ring, qt.dim(d), qs.dim(d), {
            (i, k): v for k, label in enumerate(qs.labels(d))
            for i, v in cols.get(action_src.complex.index(d, label), {}).items()})
    descended = ChainMap(qs, qt, 0, mats)
    return descended, (qs, ps), (qt, pt)
