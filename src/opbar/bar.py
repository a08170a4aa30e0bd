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

from .complexes import ChainComplex, ChainMap, first_difference, total
from .errors import EngineError, NonPermutationAction
from .fixtures import unit_operad
from .lincomb import add_into, linear
from .multicat import MultiAlgebra, MultiCat, MultiFunctor, _group_gens, aut_group
from .simplicial import RealizedComplex, SimplicialComplexObj, realize, shuffles
from .symgrp import GroupRingModule, Perm, koszul_sign, tensor_over_group_ring


def _ev_sign(fdeg, args_deg):
    """Sign of the evaluation pairing in the order (arguments, operation)."""
    return -1 if (fdeg % 2 and args_deg % 2) else 1


class WordCalculus:
    """Label-level operations for decorated leveled trees over (pi, A).

    A node (key, children) is made canonical by walking its orbit under
    S_k, read from a table built once per (structure, key, parities of the
    children's degrees); the representative is the orbit element whose
    `repr` is least, its string assembled from memoized per-label reprs.

    One build's levels read per-id tables: `words_by_depth` builds the words
    of each depth once, from the depth below, and numbers them, keeping each
    word's child ids (and `level_basis` each root's); a face d_i (i > 0) or
    degeneracy of a root maps its children through a list over word ids
    (`_word_images`) filled once from the list one depth down.
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
        self._words = []      # depth -> canonical words, in id order
        self._kids = []       # depth -> child ids of each word
        self._root_kids = {}  # root label -> child ids
        self._images = {}     # ("d" or "s", n, i) -> image of each word id

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
        coefficient times the Koszul sign for the children's parities, read
        through the ring (so 1 over F_2)."""
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
                s = ring.as_sign(coeff)
                if s is None:
                    raise NonPermutationAction("non-unit symmetry coefficient")
                table.append((tuple(i - 1 for i in images), nk, ring.as_sign(
                    ring.from_int(s * koszul_sign(sigma, parities)))))
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
        """{object: [canonical word labels]} for uniform-depth words.

        Builds and numbers the words of every depth up to `depth` once, each
        depth from the one below; this starts a new build."""
        objects = self.M.objects
        cur = {x: self.leaf_keys(x) for x in objects}
        self._words = [[l for x in objects for l in cur[x]]]
        self._kids = [None]
        self._root_kids = {}
        self._images = {}
        for _ in range(depth):
            ids = {l: j for j, l in enumerate(self._words[-1])}
            prev, cur, kids = cur, {x: [] for x in objects}, {}
            for mkey in self.M.all_keys():
                for combo in itertools.product(*(prev[x] for x in mkey[0])):
                    for l in self.make_word(mkey, combo):
                        if l not in kids:
                            kids[l] = tuple(ids[c] for c in l[2])
                            cur[self.obj(l)].append(l)
            self._words.append([l for x in objects for l in cur[x]])
            self._kids.append([kids[l] for l in self._words[-1]])
        return cur

    def level_basis(self, n):
        """Canonical root labels over the depth-n words of this build."""
        pool = self._words[n]
        ids = {w: j for j, w in enumerate(pool)}
        star = self.O.objects[0]
        kids = {}
        for k in range(1, self.O.arity_max + 1):
            okeys = self.O.basis_keys((star,) * k, star)
            if not okeys:
                continue
            for combo in itertools.product(pool, repeat=k):
                for okey in okeys:
                    for l in self.make_root(okey, combo):
                        if l not in kids:
                            kids[l] = tuple(ids[w] for w in l[2])
        self._root_kids.update(kids)
        return list(kids)

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

    def _collapse(self, pieces, gam, make) -> dict:
        """sum over gam of make(key, all children), for pieces [(children,
        key)], with the Koszul sign of moving the tensor factors
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
        all_children = tuple(c for cs, _ in pieces for c in cs)
        out = {}
        for gk, gv in gam.items():
            for l2, v2 in make(gk, all_children).items():
                add_into(ring, out, l2, ring.mul(sign, ring.mul(gv, v2)))
        return out

    def face_root_collapse(self, label) -> dict:
        """d_0: project depth-1 decorations along pi and compose at the root."""
        okey, words = label[1], label[2]
        pieces = []  # (children, mkey) per word
        for w in words:
            if w[0] != "wd":
                raise EngineError("root collapse needs depth >= 1")
            pieces.append((w[2], w[1]))
        # gamma in O over the projected decorations
        gam = self.O.gamma(okey, [self.pi.on_key(mk) for _, mk in pieces])
        return self._collapse(pieces, gam, self.make_root)

    def collapse_word_once(self, label) -> dict:
        """Compose a word's children (depth-1 collapse inside M)."""
        mkey, children = label[1], label[2]
        pieces = []
        for c in children:
            if c[0] != "wd":
                raise EngineError("inner collapse needs word children")
            pieces.append((c[2], c[1]))
        if sum(len(cs) for cs, _ in pieces) > self.M.arity_max:
            # zero truncation: the composite multimorphism space vanishes
            gam = {}
        else:
            gam = self.M.gamma(mkey, [{mk: self.ring.one} for _, mk in pieces])
        return self._collapse(pieces, gam, self.make_word)

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

    def face(self, n, i, label) -> dict:
        """The i-th face on a level-n root label."""
        if i == 0:
            return self.face_root_collapse(label)
        return self._map_root(label, self._word_images("d", n, i))

    def degen(self, n, i, label) -> dict:
        """The i-th degeneracy: insert a unit level at depth i + 1."""
        return self._map_root(label, self._word_images("s", n, i))

    def _map_root(self, label, images) -> dict:
        """A root with each child word replaced by its image, multilinearly."""
        return self.node_lc("rt", self.O, {label[1]: self.ring.one},
                            [images[c] for c in self._root_kids[label]])

    def _word_images(self, kind, n, i):
        """[image of each depth-n word] under the map that d_i (kind "d",
        i > 0) or s_i ("s") of level n applies to a root's children: d_1
        composes a word with its children (evaluates it if n = 1), s_0 wraps
        it in a unit, else d_{i-1} or s_{i-1} of level n - 1 maps them."""
        key = (kind, n, i)
        out = self._images.get(key)
        if out is None:
            words = self._words[n]
            if kind == "s" and i == 0:
                out = [self.make_word(self.M.unit_key(self.obj(w)), (w,))
                       for w in words]
            elif kind == "d" and i == 1:
                fn = self.evaluate_word if n == 1 else self.collapse_word_once
                out = [fn(w) for w in words]
            else:
                inner = self._word_images(kind, n - 1, i - 1)
                one = self.ring.one
                out = [self.node_lc("wd", self.M, {w[1]: one},
                                    [inner[c] for c in kids])
                       for w, kids in zip(words, self._kids[n])]
            self._images[key] = out
        return out


# ---------------------------------------------------------------------------
# Free algebra
# ---------------------------------------------------------------------------


class FreeAlgebraResult:
    def __init__(self, complexes, inclusions, ordered, iso):
        self.complexes = complexes
        self.inclusions = inclusions
        self.ordered = ordered
        self.iso = iso


def free_algebra(M: MultiCat, carriers: dict) -> FreeAlgebraResult:
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
    A = MultiAlgebra(M, carriers, lambda alg, f, args: {}, name="carrier")
    calc = WordCalculus(_dummy_pi(M), A)
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
        if first_difference((fwd, bwd), ChainMap.identity(ocpx)) or \
                first_difference((bwd, fwd), ChainMap.identity(cpx)):
            raise EngineError("ordered-form comparison is not an isomorphism")
    return FreeAlgebraResult(complexes, inclusions, ordered, iso)


def _dummy_pi(M: MultiCat):
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
            gens = _group_gens(aut_group(xs))
            right = GroupRingModule(
                "right", n, gens, homc,
                [_act_hom_map(M, homc, g) for g in gens])
            left = GroupRingModule(
                "left", n, gens, leafc,
                [_act_leaf_map(ring, leafc, carriers, xs, g) for g in gens])
            quot, proj = tensor_over_group_ring(right, left)
            pieces.append((xs, quot, proj))
    ocpx = total(ring, [(("of", xs), quot, 0) for xs, quot, _ in pieces], [])

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


def simplicial_kan(pi: MultiFunctor, A: MultiAlgebra, n_max):
    """The simplicial object whose realization models the operadic extension.

    Levels are root-coinvariant decorated leveled trees; faces project to the
    operad (d_0), compose inside the multicategory (0 < i < n), or apply the
    algebra (d_n); degeneracies insert unit levels.  The inputs are
    validated first, and the simplicial identities on every level.  Over Z
    a tree orbit whose stabilizer acts by a sign has coinvariants Z/2 and
    is dropped, as in `free_algebra`.
    """
    if len(pi.target.objects) != 1:
        raise EngineError("the target of pi must be an operad (one object)")
    _validate_inputs(pi, A)
    calc = WordCalculus(pi, A)
    calc.words_by_depth(n_max)
    levels = {n: calc.level_complex(n) for n in range(0, n_max + 1)}
    # checked as chain maps by SimplicialComplexObj, in its one pass
    faces = {(n, i): ChainMap.from_label_fn(
        levels[n], levels[n - 1], 0,
        lambda l, n=n, i=i: calc.face(n, i, l).items(), validate=False)
             for n in range(1, n_max + 1) for i in range(0, n + 1)}
    degens = {(n, i): ChainMap.from_label_fn(
        levels[n], levels[n + 1], 0,
        lambda l, n=n, i=i: calc.degen(n, i, l).items(), validate=False)
              for n in range(0, n_max) for i in range(0, n + 1)}
    simp = SimplicialComplexObj(n_max, levels, faces, degens)
    simp.calc = calc
    return simp


def _validate_inputs(pi: MultiFunctor, A: MultiAlgebra):
    """Raise EngineError, with the validator's dict as ``.witness``, at the
    first of M, O, pi and A whose `validate` returns a witness.
    `MultiCat.validate` has no Novikov arithmetic (it raises
    UnsupportedRing), so over a Novikov ring only pi and A are validated."""
    checks = [("functor pi", pi), ("algebra A", A)]
    if not pi.source.ring.is_novikov:
        checks[:0] = [("multicategory M", pi.source), ("operad O", pi.target)]
    for role, structure in checks:
        w = structure.validate()
        if w is not None:
            err = EngineError(f"{role} {structure.name!r} fails "
                              f"{w['axiom']}: {w!r}")
            err.witness = w
            raise err


def operadic_kan(pi: MultiFunctor, A: MultiAlgebra, n_max):
    """Realize the Kan object and attach the operad structure maps.

    Returns (realized, structure) where structure.mu(k) is the chain map
    (realized)^(x k) (x) O(k) -> realized assembled through the
    Eilenberg-Zilber shuffles.  Two checks always run, for k = 2 unless O
    has no arity-2 operations:

    * d mu(x) = mu(d x) on every basis tensor x = z_1 (x) z_2 (x) o whose
      simplicial levels sum to at most n_max - 1 (beyond that, d mu(x) needs
      a level the truncation dropped);
    * mu is S_2-equivariant on every pair z_1, z_2 whose levels sum to at
      most n_max, for every key o of O(2).

    Both windows also bound the roots' arities by `O.arity_max`, past which
    mu is zero (M has no nullary multimorphisms; `KanAlgebraStructure`).
    Both checks read mu one basis tensor at a time from the structure's id
    memo, so each value is computed once.  Over Z the levels drop the
    sign-stabilized orbits, whose coinvariants are Z/2 (`simplicial_kan`).
    """
    simp = simplicial_kan(pi, A, n_max)
    real = realize(simp)
    structure = KanAlgebraStructure(simp, real)
    for k in range(2, min(pi.target.arity_max, 2) + 1):
        if structure.has_arity(k):
            structure.check_chain_map(k)
            structure.check_equivariance(k)
    return real, structure


class KanAlgebraStructure:
    """The operad action mu: (realized)^(x k) (x) O(k) -> realized.

    The realized labels ("lv", n, l) are numbered once, in basis order
    (``_labels``, ``_ids``); per id the structure keeps the level
    (``_level``), the internal degree of l (``_ideg``), the graft part of l
    (``_parts``, (root key, parities of its words), filled on first use)
    and the boundary as a tuple of (id, coefficient) (``_boundary``).  mu,
    its checks and their memos work on ids, coefficients combined through
    `Ring.add`, `neg` and `mul`:

    * ``_mu_memo``: (ids, okey) -> {id: coefficient};
    * ``_shuffle_memo``: levels (p_1, ..., p_k) -> `_multi_shuffle_words`;
    * ``_degen_memo``: (id, degeneracy word) -> ((id, +-1), ...);
    * ``_product_memo``: (okey, ids of same-level labels) -> {id:
      coefficient} of their root graft;
    * ``_graft_memo``: (okey, parts) -> [(gamma key, coefficient)], the
      Koszul sign of the reordering included.

    Labels come back only in the views `mu_on_labels` (a new dict per call),
    `mu(k)` and the witnesses.
    check_chain_map(k) covers the basis tensors whose levels sum to at most
    n_max - 1, check_equivariance(2) those whose levels sum to at most
    n_max, with every key of O(2); each compares its two sides as dicts
    without zeros.  A failing check raises EngineError naming the first
    failing column, with ``.witness = {"zs", "okey", "lhs", "rhs"}`` in
    labels.

    mu is zero on a tensor whose roots' arities sum past `O.arity_max`;
    the check windows skip it and the memo never stores it.  The skip is
    exact: sigma keeps the arity sum, and no term of d x has a root of
    lower arity (d_0 sums the words' arities, the other faces and the level
    differentials keep the root key) as long as M has no nullary
    multimorphisms, which construction asserts.
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
        self._product_memo = {}
        self._graft_memo = {}
        for sig in self.calc.M.complexes:
            if not sig[0]:
                raise EngineError(f"M has the nullary signature {sig!r}, "
                                  "which the arity-graded mu windows exclude")
        c = real.complex
        self._labels = [z for d in c.degrees() for z in c.labels(d)]
        self._ids = {z: j for j, z in enumerate(self._labels)}
        self._level = [z[1] for z in self._labels]
        self._ideg = [self.calc.deg(z[2]) for z in self._labels]
        self._arity = [len(z[2][2]) for z in self._labels]
        self._parts = [None] * len(self._labels)
        first, boundary = {}, [[] for _ in self._labels]
        for d in c.degrees():
            first[d] = self._ids[c.labels(d)[0]]
        for d, m in c.diff.items():
            src, tgt = first[d], first[c.pred(d)]
            for (i, j), v in m.d.items():
                boundary[src + j].append((tgt + i, v))
        self._boundary = [tuple(b) for b in boundary]

    def _shuffle_words(self, levels):
        out = self._shuffle_memo.get(levels)
        if out is None:
            out = self._shuffle_memo[levels] = _multi_shuffle_words(levels)
        return out

    def _degen_word(self, z, word):
        """Apply s_{w[0]}, s_{w[1]}, ... (0-based indices) to the label of id
        z; the image as a tuple of (id, +-1)."""
        key = (z, word)
        out = self._degen_memo.get(key)
        if out is None:
            ring, calc = self.ring, self.calc
            lvl = self._level[z]
            cur = {self._labels[z][2]: ring.one}
            for i in word:
                cur = linear(ring, lambda l, lv=lvl, ii=i: calc.degen(lv, ii, l),
                             cur)
                lvl += 1
            out = tuple((self._ids[("lv", lvl, l)], ring.as_sign(v))
                        for l, v in cur.items())
            if any(s is None for _, s in out):
                raise EngineError("degeneracy fold produced a non-unit coefficient")
            self._degen_memo[key] = out
        return out

    def _part(self, z):
        """(root key, parities of the words) of the label of id z."""
        deg = self.calc.deg
        l = self._labels[z][2]
        part = self._parts[z] = (l[1], tuple(deg(w) % 2 for w in l[2]))
        return part

    def _graft(self, okey, ids):
        """[(gamma key, coefficient)] of the root graft of same-level labels
        along okey, which depends on the labels only through their parts."""
        parts = self._parts
        key = (okey, tuple(parts[z] or self._part(z) for z in ids))
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

    def _product_body(self, okey, ids) -> dict:
        """{id: coefficient} of the root graft of same-level ids along okey."""
        ring = self.ring
        lvl = self._level[ids[0]]
        children = tuple(w for z in ids for w in self._labels[z][2][2])
        out = {}
        for gk, gv in self._graft(okey, ids):
            for l2, v2 in self.calc.make_root(gk, children).items():
                add_into(ring, out, self._ids[("lv", lvl, l2)],
                         gv if v2 == ring.one else ring.neg(gv))
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
        """mu(z_1 (x) ... (x) z_k (x) okey) on realized basis labels, read
        from the id memo into a new dict; zero when the levels sum past
        n_max."""
        return self._as_labels(self._mu(tuple(self._ids[z] for z in zs), okey))

    def _as_labels(self, lc) -> dict:
        labels = self._labels
        return {labels[j]: v for j, v in lc.items()}

    def _mu(self, ids, okey) -> dict:
        """mu on ids and okey, memoized: a shared dict, never mutated; the
        unstored `_ZERO` past the level or arity bound of the windows."""
        out = self._mu_memo.get((ids, okey))
        if out is None:
            if sum(map(self._level.__getitem__, ids)) > self.simp.n_max or \
                    sum(map(self._arity.__getitem__, ids)) > self.O.arity_max:
                return _ZERO
            out = self._mu_memo[(ids, okey)] = self._mu_body(ids, okey)
        return out

    def _mu_body(self, ids, okey) -> dict:
        """The shuffle sum of levelwise grafts, with the Eilenberg-Zilber
        sign (-1)^(sum_{s<t} |z_s| p_t) for internal degrees |z_s| and
        levels p_t."""
        ring = self.ring
        neg = ring.neg
        level, ideg = self._level, self._ideg
        levels = tuple(level[z] for z in ids)
        ez, pre = 0, 0
        for z in ids:
            ez += pre * level[z]
            pre += ideg[z]
        ez = -1 if ez % 2 else 1
        products = self._product_memo
        out = {}
        for sign, words in self._shuffle_words(levels):
            combos = [(sign * ez, ())]
            for z, word in zip(ids, words):
                image = self._degen_word(z, word)
                combos = [(s * u, labs + (j,))
                          for s, labs in combos for j, u in image]
            for s, labs in combos:
                got = products.get((okey, labs))
                if got is None:
                    got = products[(okey, labs)] = self._product_body(okey,
                                                                      labs)
                for j, v in got.items():
                    add_into(ring, out, j, v if s > 0 else neg(v))
        return out

    def _window(self, k, top):
        """The basis tensors (ids, okey) of (realized)^(x k) (x) O(k) whose
        levels sum to at most top and root arities to at most arity_max."""
        buckets = {}
        for z, key in enumerate(zip(self._level, self._arity)):
            buckets.setdefault(key, []).append(z)
        okeys = self._okeys(k)
        for keys in itertools.product(sorted(buckets), repeat=k):
            if sum(n for n, _ in keys) > top or \
                    sum(a for _, a in keys) > self.O.arity_max:
                continue
            for ids in itertools.product(*(buckets[key] for key in keys)):
                for okey in okeys:
                    yield ids, okey

    def _sides(self, ids, okey, d_okey):
        """(d mu(x), mu(d x)) on ids, with d x by the Koszul rule on the
        realized complex and on O(k), where okey has the boundary d_okey."""
        ring = self.ring
        mul, neg = ring.mul, ring.neg
        boundary = self._boundary
        lhs = {}
        for j, c in self._mu(ids, okey).items():
            for j2, v in boundary[j]:
                add_into(ring, lhs, j2, mul(c, v))
        rhs = {}
        pre = 0
        for t, z in enumerate(ids):
            for z2, v in boundary[z]:
                c = neg(v) if pre % 2 else v
                for j, w in self._mu(ids[:t] + (z2,) + ids[t + 1:],
                                     okey).items():
                    add_into(ring, rhs, j, mul(c, w))
            pre += self._ideg[z] + self._level[z]
        for o2, v in d_okey.items():
            c = neg(v) if pre % 2 else v
            for j, w in self._mu(ids, o2).items():
                add_into(ring, rhs, j, mul(c, w))
        return lhs, rhs

    def check_chain_map(self, k):
        diffs = {okey: self.O.diff_key(okey) for okey in self._okeys(k)}
        for ids, okey in self._window(k, self.simp.n_max - 1):
            lhs, rhs = self._sides(ids, okey, diffs[okey])
            if lhs != rhs:
                raise self._column_error(
                    "operad structure map is not a chain map",
                    ids, okey, lhs, rhs)

    def check_equivariance(self, k):
        if k != 2:
            return
        ring = self.ring
        mul, neg = ring.mul, ring.neg
        odd = [(d + n) % 2 for d, n in zip(self._ideg, self._level)]
        sigma = Perm((2, 1))
        acts = {okey: self.O.act(sigma, okey) for okey in self._okeys(2)}
        for (a, b), okey in self._window(2, self.simp.n_max):
            lhs = {}
            for ok2, v in acts[okey].items():
                for j, w in self._mu((b, a), ok2).items():
                    add_into(ring, lhs, j, mul(v, w))
            rhs = self._mu((a, b), okey)
            if odd[a] and odd[b]:
                rhs = {j: neg(w) for j, w in rhs.items()}
            if lhs != rhs:
                raise self._column_error("structure map is not equivariant",
                                         (a, b), okey, lhs, rhs)

    def _column_error(self, message, ids, okey, lhs, rhs) -> EngineError:
        """EngineError naming the first failing column (zs, okey) of a
        check, with both sides as ``.witness``, all in labels."""
        zs = tuple(self._labels[z] for z in ids)
        err = EngineError(f"{message} on column {zs!r} (x) {okey!r}")
        err.witness = {"zs": zs, "okey": okey, "lhs": self._as_labels(lhs),
                       "rhs": self._as_labels(rhs)}
        return err


_ZERO = {}  # the memoized zero of every structure; never mutated


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
