"""The operadic bar construction core: free algebras, the simplicial Kan
object of a multifunctor, and its realization with the operad action.

The comparison map between the categorical and operadic extensions is not
built here yet (ROADMAP item 5).

Elements of iterated free algebras are decorated leveled trees, stored as
nested labels:

    leaf:  ("lf", object, degree, carrier_label)
    word:  ("wd", mkey, (child, ..., child))     mkey a multimorphism key
    root:  ("rt", okey, (word, ..., word))       okey an operad key

Tensor factors are ordered children-first, decoration last (the root complex
is C_{v_1} (x) ... (x) C_{v_k} (x) O(k)).  Symmetric-group coinvariants at
every node are realized by canonical orbit representatives: a node label is
the minimum of its signed orbit in `repr` order, and orbits carrying a sign
conflict die.
All structure maps canonicalize, and the simplicial identities plus d^2 = 0
are asserted exactly on every construction.
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex, ChainMap
from .errors import ArityOverflow, EngineError, NonPermutationAction
from .lincomb import add_into, eq as lc_eq, linear
from .linalg import block_matrix
from .multicat import MultiAlgebra, MultiCat, MultiFunctor
from .simplicial import RealizedComplex, SimplicialComplexObj, realize, shuffles
from .symgrp import GroupRingModule, Perm, koszul_sign, tensor_over_group_ring


def _reorder_sign_int(degrees_src, order):
    sign = 1
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b] and degrees_src[order[a]] % 2 \
                    and degrees_src[order[b]] % 2:
                sign = -sign
    return sign


def _ev_sign(fdeg, args_deg):
    """Sign of the evaluation pairing in the order (arguments, operation)."""
    return -1 if (fdeg % 2 and args_deg % 2) else 1


class WordCalculus:
    """Label-level operations for decorated leveled trees over (pi, A).

    A node (key, children) is made canonical by walking its orbit under
    S_k, read from a table built once per (structure, key, parities of the
    children's degrees); the representative is the orbit element whose
    `repr` is least, its string assembled from memoized per-label reprs.
    """

    def __init__(self, pi: MultiFunctor, A: MultiAlgebra):
        self.pi = pi
        self.M = pi.source
        self.O = pi.target
        self.A = A
        self.ring = self.M.ring
        self._deg = {}
        self._canon = {}
        self._orbit_tables = {}
        self._repr = {}

    # -- label structure ----------------------------------------------------

    def deg(self, label) -> int:
        d = self._deg.get(label)
        if d is None:
            kind = label[0]
            if kind == "lf":
                d = label[2]
            else:
                d = label[1][2] + sum(self.deg(c) for c in label[2])
            self._deg[label] = d
        return d

    def obj(self, label):
        if label[0] == "lf":
            return label[1]
        return label[1][1]

    def leaf_keys(self, x):
        c = self.A.carrier(x)
        return [("lf", x, d, l) for d in c.degrees() for l in c.labels(d)]

    # -- canonical orbit representatives ----------------------------------

    def _orbit_table(self, structure, key, parities):
        """[(indices, image key, sign)] for every sigma in S_k, in the order
        of `itertools.permutations`: the orbit element of sigma has the image
        key and the children (c[indices[0]], ...), and its sign is the action
        coefficient times the Koszul sign for the children's parities."""
        tk = (structure, key, parities)
        table = self._orbit_tables.get(tk)
        if table is None:
            ring = self.ring
            table = []
            for images in itertools.permutations(range(1, len(parities) + 1)):
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
                table.append((tuple(i - 1 for i in images), nk,
                              s * koszul_sign(sigma, parities)))
            self._orbit_tables[tk] = table
        return table

    def _orbit(self, structure, key, children):
        """All signed orbit elements of a node; None when the orbit dies."""
        parities = tuple(self.deg(c) % 2 for c in children)
        seen = {}
        for idx, nk, s in self._orbit_table(structure, key, parities):
            if seen.setdefault((nk, tuple(children[i] for i in idx)), s) != s:
                return None
        return seen

    def _repr_of(self, x) -> str:
        r = self._repr.get(x)
        if r is None:
            r = self._repr[x] = repr(x)
        return r

    def _node_repr(self, cand) -> str:
        """repr(cand) of an orbit element (key, children), assembled from
        the memoized reprs of the key and of each child."""
        nk, children = cand
        rs = [self._repr_of(c) for c in children]
        inner = rs[0] + "," if len(rs) == 1 else ", ".join(rs)
        return "(" + self._repr_of(nk) + ", (" + inner + "))"

    def make_node(self, kind, structure, key, children) -> dict:
        """Canonical class of a node, as a linear combination (at most one term)."""
        children = tuple(children)
        ck = (kind, key, children)
        cached = self._canon.get(ck)
        if cached is None:
            orbit = self._orbit(structure, key, children)
            if orbit is None:
                cached = {}
            else:
                rep = min(orbit, key=self._node_repr) if len(orbit) > 1 \
                    else (key, children)
                s = orbit[(key, children)] * orbit[rep]
                cached = {(kind, rep[0], rep[1]): self.ring.from_int(s)}
            self._canon[ck] = cached
        return cached

    def make_word(self, mkey, children) -> dict:
        return self.make_node("wd", self.M, mkey, children)

    def make_root(self, okey, children) -> dict:
        return self.make_node("rt", self.O, okey, children)

    def node_lc(self, kind, structure, key_lc, child_lcs) -> dict:
        """Multilinear node constructor."""
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
                for l, v in self.make_node(kind, structure, key, combo).items():
                    add_into(ring, out, l, ring.mul(kv, ring.mul(cv, v)))
        return out

    # -- differential -------------------------------------------------------

    def diff_label(self, label) -> dict:
        ring = self.ring
        kind = label[0]
        if kind == "lf":
            _, x, d, l = label
            return {("lf", x, dd, ll): v
                    for (dd, ll), v in self.A.diff_carrier(x, (d, l)).items()}
        structure = self.M if kind == "wd" else self.O
        key, children = label[1], label[2]
        out = {}
        pre = 0
        for t, c in enumerate(children):
            s = -1 if pre % 2 else 1
            for cl, v in self.diff_label(c).items():
                hit = self.make_node(kind, structure, key,
                                     children[:t] + (cl,) + children[t + 1:])
                for l2, v2 in hit.items():
                    add_into(ring, out, l2,
                             ring.mul(ring.from_int(s), ring.mul(v, v2)))
            pre += self.deg(c)
        s = -1 if pre % 2 else 1
        for k2, v in structure.diff_key(key).items():
            for l2, v2 in self.make_node(kind, structure, k2, children).items():
                add_into(ring, out, l2,
                         ring.mul(ring.from_int(s), ring.mul(v, v2)))
        return out

    # -- level enumeration ----------------------------------------------------

    def words_by_depth(self, depth):
        """{object: [canonical word labels]} for uniform-depth words."""
        levels = [{x: self.leaf_keys(x) for x in self.M.objects}]
        for _ in range(depth):
            prev = levels[-1]
            cur = {x: [] for x in self.M.objects}
            seen = set()
            for mkey in self.M.all_keys():
                pools = [prev[x] for x in mkey[0]]
                for combo in itertools.product(*pools):
                    for l in self.make_word(mkey, combo):
                        if l not in seen:
                            seen.add(l)
                            cur[self.obj(l)].append(l)
            levels.append(cur)
        return levels[-1]

    def level_basis(self, n):
        """Canonical root labels over depth-n words."""
        words = self.words_by_depth(n)
        pool = []
        for x in self.M.objects:
            pool.extend(words[x])
        star = self.O.objects[0]
        out = []
        seen = set()
        for k in range(1, self.O.arity_max + 1):
            okeys = self.O.basis_keys((star,) * k, star)
            if not okeys:
                continue
            for combo in itertools.product(pool, repeat=k):
                for okey in okeys:
                    for l in self.make_root(okey, combo):
                        if l not in seen:
                            seen.add(l)
                            out.append(l)
        return out

    def complex_on(self, labels) -> ChainComplex:
        """The complex on the given labels, graded by `deg`, with d from
        `diff_label`."""
        basis = {}
        for l in labels:
            basis.setdefault(self.deg(l), []).append(l)
        return ChainComplex.from_labels(self.ring, basis, self.diff_label)

    def level_complex(self, n) -> ChainComplex:
        return self.complex_on(self.level_basis(n))

    # -- faces and degeneracies --------------------------------------------------

    def face_root_collapse(self, label) -> dict:
        """d_0: project depth-1 decorations along pi and compose at the root."""
        ring = self.ring
        okey, words = label[1], label[2]
        degs = []
        src_order = []
        pieces = []  # (children, mkey) per word
        for w in words:
            if w[0] != "wd":
                raise EngineError("root collapse needs depth >= 1")
            pieces.append((w[2], w[1]))
        # tensor order: (c_1, m_1, c_2, m_2, ..., theta); target:
        # (c_1, ..., c_k, m_1, ..., m_k, theta)
        degs = []
        flat = []
        for t, (cs, mk) in enumerate(pieces):
            for ci, c in enumerate(cs):
                flat.append(("c", t, ci))
                degs.append(self.deg(c))
            flat.append(("m", t))
            degs.append(mk[2])
        order = [flat.index(("c", t, ci))
                 for t, (cs, _) in enumerate(pieces) for ci in range(len(cs))]
        order += [flat.index(("m", t)) for t in range(len(pieces))]
        sign = _reorder_sign_int(degs, order)
        # gamma in O over the projected decorations
        pi_parts = [self.pi.on_key(mk) for _, mk in pieces]
        gam = self.O.gamma(okey, pi_parts)
        all_children = tuple(c for cs, _ in pieces for c in cs)
        out = {}
        for gk, gv in gam.items():
            for l2, v2 in self.make_root(gk, all_children).items():
                add_into(ring, out, l2,
                         ring.mul(ring.from_int(sign), ring.mul(gv, v2)))
        return out

    def collapse_word_once(self, label) -> dict:
        """Compose a word's children (depth-1 collapse inside M)."""
        ring = self.ring
        mkey, children = label[1], label[2]
        degs = []
        flat = []
        pieces = []
        for t, c in enumerate(children):
            if c[0] != "wd":
                raise EngineError("inner collapse needs word children")
            pieces.append((c[2], c[1]))
        for t, (cs, mk) in enumerate(pieces):
            for ci, c in enumerate(cs):
                flat.append(("c", t, ci))
                degs.append(self.deg(c))
            flat.append(("m", t))
            degs.append(mk[2])
        order = [flat.index(("c", t, ci))
                 for t, (cs, _) in enumerate(pieces) for ci in range(len(cs))]
        order += [flat.index(("m", t)) for t in range(len(pieces))]
        sign = _reorder_sign_int(degs, order)
        total_arity = sum(len(cs) for cs, _ in pieces)
        if total_arity > self.M.arity_max:
            # zero truncation: the composite multimorphism space vanishes
            gam = {}
        else:
            gam = self.M.gamma(mkey, [{mk: ring.one} for _, mk in pieces])
        all_children = tuple(c for cs, _ in pieces for c in cs)
        out = {}
        for gk, gv in gam.items():
            for l2, v2 in self.make_word(gk, all_children).items():
                add_into(ring, out, l2,
                         ring.mul(ring.from_int(sign), ring.mul(gv, v2)))
        return out

    def evaluate_word(self, label) -> dict:
        """Apply the algebra action to a depth-1 word (leaf children)."""
        ring = self.ring
        mkey, children = label[1], label[2]
        args = tuple((c[2], c[3]) for c in children)
        s = _ev_sign(mkey[2], sum(self.deg(c) for c in children))
        y = mkey[1]
        out = {}
        for (dd, ll), v in self.A.apply_key(mkey, args).items():
            add_into(ring, out, ("lf", y, dd, ll),
                     ring.mul(ring.from_int(s), v))
        return out

    def _map_children(self, label, fn) -> dict:
        """Apply a degree-0 label map to every child of a node, multilinearly."""
        kind = label[0]
        structure = self.M if kind == "wd" else self.O
        key, children = label[1], label[2]
        return self.node_lc(kind, structure, {key: self.ring.one},
                            [fn(c) for c in children])

    def face(self, n, i, label) -> dict:
        """The i-th face on a level-n root label."""
        if i == 0:
            return self.face_root_collapse(label)

        def descend(depth):
            if depth == 1:
                if i == n:
                    return self.evaluate_word
                return self.collapse_word_once
            inner = descend(depth - 1)
            return lambda l: self._map_children(l, inner)

        fn = descend(i if i < n else n)
        return self._map_children(label, fn)

    def degen(self, n, i, label) -> dict:
        """The i-th degeneracy: insert a unit level at depth i + 1."""
        def wrap(l) -> dict:
            return self.make_word(self.M.unit_key(self.obj(l)), (l,))

        def descend(depth):
            if depth == 0:
                return wrap
            inner = descend(depth - 1)
            return lambda l: self._map_children(l, inner)

        fn = descend(i)
        return self._map_children(label, fn)


# ---------------------------------------------------------------------------
# Free algebra
# ---------------------------------------------------------------------------


class FreeAlgebraResult:
    def __init__(self, complexes, inclusions, ordered, iso):
        self.complexes = complexes
        self.inclusions = inclusions
        self.ordered = ordered
        self.iso = iso


def free_algebra(M: MultiCat, carriers: dict, arity_max=None,
                 pi=None) -> FreeAlgebraResult:
    """The free M-algebra on a family of complexes, with inclusions and the
    ordered form (tensor over the group rings of sequence stabilizers).

    The canonical isomorphism with the ordered form is verified on the nose:
    both composites are identity matrices.

    Over Z the coinvariants follow the engine-wide free-quotient convention
    of `quotient`: an orbit whose stabilizer acts on it by a sign is killed,
    so torsion coinvariants are dropped.  On `as_operad(Z, 3)` with the
    carrier y in degree 0 and x in degree 1 (d x = y), x (x) x, whose
    S_2-coinvariants are Z/2, is missing and the dims are {0: 3, 1: 3}.
    The result is exact only where those orbits are free (ROADMAP item 0).
    """
    if arity_max is not None and arity_max != M.arity_max:
        raise ArityOverflow("free algebra truncation must match the bound")
    dummy_pi = pi or _dummy_pi(M)
    A = MultiAlgebra(M, carriers, lambda alg, f, args: {}, name="carrier")
    calc = WordCalculus(dummy_pi, A)
    words = calc.words_by_depth(1)
    complexes = {}
    inclusions = {}
    ordered = {}
    iso = {}
    for y in M.objects:
        cpx = complexes[y] = calc.complex_on(words[y])
        inclusions[y] = ChainMap.from_label_fn2(
            carriers[y], cpx, 0, lambda d, l, y=y: list(
                calc.make_word(M.unit_key(y), (("lf", y, d, l),)).items()))
        ocpx, fwd, bwd = _ordered_form(M, calc, carriers, y, cpx)
        ordered[y] = ocpx
        iso[y] = (fwd, bwd)
        if not fwd.compose(bwd).eq(ChainMap.identity(ocpx)) or \
                not bwd.compose(fwd).eq(ChainMap.identity(cpx)):
            raise EngineError("ordered-form comparison is not an isomorphism")
    return FreeAlgebraResult(complexes, inclusions, ordered, iso)


def _dummy_pi(M: MultiCat):
    from .fixtures import unit_operad
    O = unit_operad(M.ring, M.arity_max)

    def key_fn(F, key):
        raise EngineError("projection not available in this context")

    return MultiFunctor(M, O, {x: O.objects[0] for x in M.objects}, key_fn,
                        name="none")


def _ordered_form(M, calc, carriers, y, cpx):
    """(+)_{xs nondecreasing} M(xs; y) (x)_{R[Aut(xs)]} (C_{x_1} (x) ... )."""
    ring = M.ring
    order = {x: i for i, x in enumerate(M.objects)}
    pieces = []
    for n in range(1, M.arity_max + 1):
        for xs in itertools.combinations_with_replacement(M.objects, n):
            xs = tuple(sorted(xs, key=lambda x: order[x]))
            hom = M.complex(xs, y)
            if hom is None:
                continue
            homc = ChainComplex(ring, "Z",
                                {d: [(xs, y, d, l) for l in hom.labels(d)]
                                 for d in hom.degrees()},
                                {d: m for d, m in hom.diff.items()},
                                validate=False)
            leafc = ChainComplex.tensor_many(
                ring, [carriers[x] for x in xs], tag="x")
            auts = [p for p in itertools.permutations(range(1, n + 1))
                    if tuple(xs[i - 1] for i in p) == xs]
            gens = _gens_of(auts, n)
            right = GroupRingModule(
                "right", n, gens, homc,
                [_act_hom_map(M, homc, g) for g in gens], check=True)
            left = GroupRingModule(
                "left", n, gens, leafc,
                [_act_leaf_map(ring, leafc, carriers, xs, g) for g in gens],
                check=True)
            quot, proj = tensor_over_group_ring(right, left)
            pieces.append((xs, quot, proj))
    basis = {}
    for xs, quot, _ in pieces:
        for d in quot.degrees():
            for l in quot.labels(d):
                basis.setdefault(d, []).append(("of", xs, l))
    diff = {}
    for d, ls in basis.items():
        blocks, r0, c0 = [], 0, 0  # the pieces follow each other
        for _, quot, _ in pieces:
            blocks.append((quot.d_mat(d), r0, c0, 1))
            r0, c0 = r0 + quot.dim(d - 1), c0 + quot.dim(d)
        diff[d] = block_matrix(ring, len(basis.get(d - 1, ())), len(ls), blocks)
    ocpx = ChainComplex(ring, "Z", basis, diff)

    proj_of = {xs: (quot, proj) for xs, quot, proj in pieces}

    def fwd_fn(d, label):
        # free-word representative -> ordered class
        _, mkey, children = label
        xs_raw = mkey[0]
        n = len(xs_raw)
        sorted_idx = sorted(range(n), key=lambda t: (order[xs_raw[t]], t))
        sigma = Perm([t + 1 for t in sorted_idx])
        xs_sorted = tuple(xs_raw[t] for t in sorted_idx)
        quot, proj = proj_of[xs_sorted]
        hit = M.act(sigma, mkey)
        child_degs = [calc.deg(c) for c in children]
        ks = koszul_sign(sigma, child_degs)
        new_children = tuple(children[sigma(t) - 1] for t in range(1, n + 1))
        leaf_label = ("x", tuple(c[3] for c in new_children))
        out = []
        for mk2, v in hit.items():
            big = ("t", mk2, leaf_label)
            d0 = calc.deg(label)
            for tl, c in proj.apply_label(d0, big).items():
                out.append((("of", xs_sorted, tl),
                            ring.mul(ring.from_int(ks), ring.mul(v, c))))
        return out

    def bwd_fn(d, label):
        _, xs, l = label
        _, mk2, leaf_label = l
        leaves = tuple(("lf", xs[t], carriers[xs[t]].degree_of(ll), ll)
                       for t, ll in enumerate(leaf_label[1]))
        return list(calc.make_word(mk2, leaves).items())

    fwd = ChainMap.from_label_fn2(cpx, ocpx, 0, fwd_fn)
    bwd = ChainMap.from_label_fn2(ocpx, cpx, 0, bwd_fn)
    return ocpx, fwd, bwd


def _gens_of(auts, n):
    from .multicat import _group_gens
    return _group_gens([Perm(p) for p in auts])


def _act_hom_map(M, homc, g):
    return ChainMap.from_label_fn(homc, homc, 0,
                                  lambda key: list(M.act(g, key).items()),
                                  validate=False)


def _act_leaf_map(ring, leafc, carriers, xs, g):
    # right action on the leaf tensor: permute factors by g with Koszul signs
    def fn(d, label):
        _, ls = label
        degs = [carriers[xs[t]].degree_of(ls[t]) for t in range(len(ls))]
        ks = koszul_sign(g, degs)
        new = tuple(ls[g(t + 1) - 1] for t in range(len(ls)))
        return [(("x", new), ks)]

    return ChainMap.from_label_fn2(leafc, leafc, 0, fn, validate=False)


# ---------------------------------------------------------------------------
# The simplicial Kan object and its realization
# ---------------------------------------------------------------------------


def simplicial_kan(pi: MultiFunctor, A: MultiAlgebra, n_max, arity_max=None,
                   check=True):
    """The simplicial object whose realization models the operadic extension.

    Levels are root-coinvariant decorated leveled trees; faces project to the
    operad (d_0), compose inside the multicategory (0 < i < n), or apply the
    algebra (d_n); degeneracies insert unit levels.
    """
    if len(pi.target.objects) != 1:
        raise EngineError("the target of pi must be an operad (one object)")
    if arity_max is not None and arity_max != pi.source.arity_max:
        raise ArityOverflow("arity bound must match the multicategory")
    calc = WordCalculus(pi, A)
    levels = {n: calc.level_complex(n) for n in range(0, n_max + 1)}
    faces = {}
    degens = {}
    for n in range(1, n_max + 1):
        for i in range(0, n + 1):
            faces[(n, i)] = ChainMap.from_label_fn(
                levels[n], levels[n - 1], 0,
                lambda l, n=n, i=i: list(calc.face(n, i, l).items()))
    for n in range(0, n_max):
        for i in range(0, n + 1):
            degens[(n, i)] = ChainMap.from_label_fn(
                levels[n], levels[n + 1], 0,
                lambda l, n=n, i=i: list(calc.degen(n, i, l).items()))
    simp = SimplicialComplexObj(n_max, levels, faces, degens, validate=check)
    simp.calc = calc
    return simp


def operadic_kan(pi: MultiFunctor, A: MultiAlgebra, n_max, arity_max=None,
                 check=True):
    """Realize the Kan object and attach the operad structure maps.

    Returns (realized, structure) where structure.mu(k) is the chain map
    (realized)^(x k) (x) O(k) -> realized assembled through the
    Eilenberg-Zilber shuffles.  With check on, for k = 2 unless O has no
    arity-2 operations:

    * d mu(x) = mu(d x) on every basis tensor x = z_1 (x) z_2 (x) o whose
      simplicial levels sum to at most n_max - 1 (beyond that, d mu(x) needs
      a level the truncation dropped);
    * mu is S_2-equivariant on every pair z_1, z_2 whose levels sum to at
      most n_max, for every key o of O(2).

    Both checks read mu one basis tensor at a time from the structure's memo,
    so each value is computed once.
    """
    simp = simplicial_kan(pi, A, n_max, arity_max, check=check)
    real = realize(simp)
    structure = KanAlgebraStructure(simp, real)
    if check:
        for k in range(2, min(pi.target.arity_max, 2) + 1):
            if structure.has_arity(k):
                structure.check_chain_map(k)
                structure.check_equivariance(k)
    return real, structure


class KanAlgebraStructure:
    """The operad action mu: (realized)^(x k) (x) O(k) -> realized.

    Values of mu on basis tensors are memoized per structure in
    ``_mu_memo``, (zs, okey) -> mu(z_1 (x) ... (x) z_k (x) okey), and
    mu_on_labels returns the shared dict, which callers must not mutate.
    Four more memos, each filled once per key, hold the parts of mu that
    many basis tensors share:

    * ``_shuffle_memo``: the levels tuple (p_1, ..., p_k) -> the shuffle
      words of `_multi_shuffle_words`, as tuples;
    * ``_degen_memo``: (n, word, label) -> the image of a level-n label under
      a degeneracy word, as a tuple of (label, +-1);
    * ``_graft_memo``: (okey, ((ok_t, parities of the words of z_t) for each
      t)) -> [(gamma key, coefficient)] of the levelwise root graft, the Koszul
      sign of the reordering included;
    * ``_graft_parts``: a level label -> its part (root key, parities of its
      words) of the ``_graft_memo`` key, so a graft reads no word degrees
      once its labels are known.

    check_chain_map(k) covers the basis tensors whose levels sum to at most
    n_max - 1; check_equivariance(2) covers those whose levels sum to at most
    n_max, with every key of O(2).  A failing check raises EngineError naming
    the first failing column, with ``.witness = {"zs", "okey", "lhs",
    "rhs"}``.
    """

    def __init__(self, simp, real: RealizedComplex):
        self.simp = simp
        self.real = real
        self.calc = simp.calc
        self.O = self.calc.O
        self.ring = self.calc.ring
        self._mu_memo = {}
        self._shuffle_memo = {}
        self._degen_memo = {}
        self._graft_memo = {}
        self._graft_parts = {}
        c = real.complex
        self._boundary = {l: {} for d in c.degrees() for l in c.labels(d)}
        for d, m in c.diff.items():
            src, tgt = c.labels(d), c.labels(c.pred(d))
            for (i, j), v in m.d.items():
                self._boundary[src[j]][tgt[i]] = v

    def _shuffle_words(self, levels):
        out = self._shuffle_memo.get(levels)
        if out is None:
            out = self._shuffle_memo[levels] = _multi_shuffle_words(levels)
        return out

    def _apply_degen_word(self, n, word, label):
        """Apply s_{w[0]}, s_{w[1]}, ... (0-based indices) to a level-n label;
        the image as a tuple of (label, +-1)."""
        key = (n, word, label)
        out = self._degen_memo.get(key)
        if out is None:
            cur = {label: self.ring.one}
            lvl = n
            for i in word:
                cur = linear(self.ring,
                             lambda l, lv=lvl, ii=i: self.calc.degen(lv, ii, l),
                             cur)
                lvl += 1
            out = self._degen_memo[key] = tuple(
                (l, _unit_sign(self.ring, v)) for l, v in cur.items())
        return out

    def _graft_part(self, label):
        """(root key, parities of the words) of a level label, memoized."""
        deg = self.calc.deg
        part = self._graft_parts[label] = (
            label[1], tuple(deg(w) % 2 for w in label[2]))
        return part

    def _graft(self, okey, labels):
        """[(gamma key, coefficient)] of the root graft of same-level labels
        along okey, which depends on the labels only through their root keys
        and the parities of their words."""
        parts = self._graft_parts
        key = (okey, tuple(parts.get(l) or self._graft_part(l)
                           for l in labels))
        out = self._graft_memo.get(key)
        if out is None:
            # (w_1.., o_1, w_2.., o_2, ..) -> (w_1.., w_2.., .., o_1, o_2, ..):
            # o_s passes the words of every later z_t
            odd, pre = 0, 0
            for ok, parities in key[1]:
                odd += pre * sum(parities)
                pre += ok[2]
            ring = self.ring
            gam = self.O.gamma(okey, [{ok: ring.one} for ok, _ in key[1]])
            out = self._graft_memo[key] = [
                (gk, ring.neg(gv) if odd % 2 else gv)
                for gk, gv in gam.items()]
        return out

    def product_levelwise(self, okey, labels) -> dict:
        """Root-graft of same-level elements z_1, ..., z_k along okey."""
        ring = self.ring
        children = tuple(w for l in labels for w in l[2])
        out = {}
        for gk, gv in self._graft(okey, labels):
            for l2, v2 in self.calc.make_root(gk, children).items():
                add_into(ring, out, l2, ring.mul(gv, v2))
        return out

    def has_arity(self, k) -> bool:
        """Whether the operad has arity-k operations."""
        star = self.O.objects[0]
        return self.O.complex((star,) * k, star) is not None

    def _okeys(self, k):
        star = self.O.objects[0]
        if not self.has_arity(k):
            raise EngineError(f"the operad has no arity-{k} operations")
        return self.O.basis_keys((star,) * k, star)

    def mu(self, k) -> ChainMap:
        """The structure map (realized)^(x k) (x) O(k) -> realized.

        Built from iterated binary Eilenberg-Zilber shuffles (associativity
        of the shuffle map makes the iteration order immaterial) followed by
        the levelwise root graft.
        """
        ring = self.ring
        star = self.O.objects[0]
        ocpx_raw = self.O.complex((star,) * k, star)
        if ocpx_raw is None:
            raise EngineError(f"the operad has no arity-{k} operations")
        ocpx = ChainComplex(
            ring, "Z",
            {d: [((star,) * k, star, d, l) for l in ocpx_raw.labels(d)]
             for d in ocpx_raw.degrees()},
            dict(ocpx_raw.diff), validate=False)
        domain = ChainComplex.tensor_many(
            ring, [self.real.complex] * k + [ocpx], tag="mu")

        def fn(d, label):
            _, parts = label
            return list(self.mu_on_labels(list(parts[:k]), parts[k]).items())

        return ChainMap.from_label_fn2(domain, self.real.complex, 0, fn,
                                       validate=False)

    def mu_on_labels(self, zs, okey) -> dict:
        """mu(z_1 (x) ... (x) z_k (x) okey) on realized basis labels.

        Zero when the levels sum past n_max; otherwise memoized, so the
        returned dict is shared and must not be mutated.
        """
        zs = tuple(zs)
        out = self._mu_memo.get((zs, okey))
        if out is None:
            if sum(z[1] for z in zs) > self.simp.n_max:
                return {}
            out = self._mu_memo[(zs, okey)] = self._mu_uncached(zs, okey)
        return out

    def _mu_uncached(self, zs, okey) -> dict:
        """The shuffle sum of levelwise grafts, with the Eilenberg-Zilber
        sign (-1)^(sum_{s<t} |z_s| p_t) for internal degrees |z_s| and
        levels p_t."""
        ring = self.ring
        levels = tuple(z[1] for z in zs)
        total = sum(levels)
        ez, pre = 0, 0
        for z in zs:
            ez += pre * z[1]
            pre += self.calc.deg(z[2])
        ez = -1 if ez % 2 else 1
        out = {}
        for sign, words in self._shuffle_words(levels):
            combos = [(sign * ez, ())]
            for z, word in zip(zs, words):
                image = self._apply_degen_word(z[1], word, z[2])
                combos = [(s * u, labs + (l,))
                          for s, labs in combos for l, u in image]
            for s, labs in combos:
                for l3, v3 in self.product_levelwise(okey, labs).items():
                    add_into(ring, out, ("lv", total, l3),
                             v3 if s > 0 else ring.neg(v3))
        return out

    def window_columns(self, k, top):
        """The basis tensors (zs, okey) of (realized)^(x k) (x) O(k) whose
        simplicial levels sum to at most top."""
        c = self.real.complex
        by_level = {}
        for d in c.degrees():
            for z in c.labels(d):
                by_level.setdefault(z[1], []).append(z)
        okeys = self._okeys(k)
        for levels in itertools.product(sorted(by_level), repeat=k):
            if sum(levels) > top:
                continue
            for zs in itertools.product(*(by_level[n] for n in levels)):
                for okey in okeys:
                    yield zs, okey

    def _deg(self, z) -> int:
        return self.calc.deg(z[2]) + z[1]

    def chain_map_sides(self, zs, okey):
        """(d mu(x), mu(d x)) for the basis tensor x = z_1 (x) ... (x) okey,
        with d x by the Koszul rule on the realized complex and on O(k)."""
        ring = self.ring
        lhs = linear(ring, self._boundary.__getitem__,
                     self.mu_on_labels(zs, okey))
        rhs = {}
        pre = 0
        for t, z in enumerate(zs):
            for z2, v in self._boundary[z].items():
                c = ring.neg(v) if pre % 2 else v
                for l, w in self.mu_on_labels(
                        zs[:t] + (z2,) + zs[t + 1:], okey).items():
                    add_into(ring, rhs, l, ring.mul(c, w))
            pre += self._deg(z)
        for o2, v in self.O.diff_key(okey).items():
            c = ring.neg(v) if pre % 2 else v
            for l, w in self.mu_on_labels(zs, o2).items():
                add_into(ring, rhs, l, ring.mul(c, w))
        return lhs, rhs

    def check_chain_map(self, k):
        ring = self.ring
        for zs, okey in self.window_columns(k, self.simp.n_max - 1):
            lhs, rhs = self.chain_map_sides(zs, okey)
            if not lc_eq(ring, lhs, rhs):
                raise _column_error("operad structure map is not a chain map",
                                    zs, okey, lhs, rhs)

    def check_equivariance(self, k):
        if k != 2:
            return
        ring = self.ring
        sigma = Perm((2, 1))
        acts = {okey: self.O.act(sigma, okey) for okey in self._okeys(2)}
        for (la, lb), okey in self.window_columns(2, self.simp.n_max):
            lhs = {}
            for ok2, v in acts[okey].items():
                for l3, v3 in self.mu_on_labels((lb, la), ok2).items():
                    add_into(ring, lhs, l3, ring.mul(v, v3))
            rhs = self.mu_on_labels((la, lb), okey)
            if self._deg(la) % 2 and self._deg(lb) % 2:
                rhs = {l: ring.neg(v) for l, v in rhs.items()}
            if not lc_eq(ring, lhs, rhs):
                raise _column_error("structure map is not equivariant",
                                    (la, lb), okey, lhs, rhs)


def _column_error(message, zs, okey, lhs, rhs) -> EngineError:
    """EngineError naming the first failing column (zs, okey) of a check,
    with both sides as ``.witness``."""
    err = EngineError(f"{message} on column {zs!r} (x) {okey!r}")
    err.witness = {"zs": zs, "okey": okey, "lhs": lhs, "rhs": rhs}
    return err


def _unit_sign(ring, v):
    if ring.eq(v, ring.one):
        return 1
    if ring.eq(v, ring.from_int(-1)):
        return -1
    raise EngineError("degeneracy fold produced a non-unit coefficient")


def _multi_shuffle_words(levels):
    """Degeneracy words shuffling levels (p_1..p_k) to their sum.

    Returns a list of (sign, (word_1, ..., word_k)); word_t is a tuple of
    0-based degeneracy indices applied first-to-last to factor t.  Built by
    iterating the binary shuffle: at each step the existing partial product
    receives word_a on every already-merged factor and the new factor
    receives word_b.
    """
    if not levels:
        return [(1, ())]
    states = [(1, ((),), levels[0])]
    for q in levels[1:]:
        new_states = []
        for sign, words, P in states:
            for s2, word_a, word_b in shuffles(P, q):
                new_words = tuple(w + word_a for w in words) + (word_b,)
                new_states.append((sign * s2, new_words, P + q))
        states = new_states
    return [(s, ws) for s, ws, _ in states]
