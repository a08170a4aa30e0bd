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
conflict die.  `WordCalculus` numbers the labels and walks each orbit once;
the levels, faces, degeneracies and mu's grafts work on those ids, and
labels are built only for the bases and the views.
All structure maps canonicalize, and the simplicial identities plus d^2 = 0
are asserted exactly on every construction.
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex, ChainMap, first_difference, total
from .errors import EngineError, NonPermutationAction
from .fixtures import unit_operad
from .linalg import Mat, row_map
from .lincomb import add_into, linear
from .multicat import MultiAlgebra, MultiCat, MultiFunctor, _group_gens, aut_group
from .simplicial import RealizedComplex, SimplicialComplexObj, realize, shuffles
from .symgrp import GroupRingModule, Perm, koszul_sign, tensor_over_group_ring


class WordCalculus:
    """Operations on decorated leveled trees over (pi, A), on node ids.

    Every node label (leaf, word or root) is numbered on first sight
    (``_id``, ``_label``), with its degree (``_degs``) and child ids
    (``_kids``).  Canonical classes live in one table keyed by (kind, key,
    child ids), ``_canon``: the first node of an orbit walks it under S_k
    once (`_orbit`), from a table built once per (structure, key, parities
    of the children's degrees), and stores the class of every member, (id
    of the representative, +-1), or () when the orbit dies.  The
    representative is the member whose `repr` is least, assembled from
    memoized per-id reprs; a one-element orbit needs none.

    A build numbers the words of each depth (`words_by_depth`) and the roots
    of each level (`level_basis`), and reads each node's boundary once
    (`_boundary`).  A face d_i (i > 0) or degeneracy maps a root's children
    through the images of the words (`_word_images`) and looks up each
    class; d_0, the inner collapse of d_1 and mu's levelwise product share
    one graft memo (`_graft`).  `level_map` writes each degree of a face or
    degeneracy in one matrix, a `row_map` when every root hits one root with
    coefficient one.  Labels are read or built only in the views
    (`make_node`, `deg`, `face`, `degen`) and for the complexes' bases.
    """

    def __init__(self, pi: MultiFunctor, A: MultiAlgebra):
        self.pi = pi
        self.M = pi.source
        self.O = pi.target
        self.A = A
        self.ring = self.M.ring
        self._unit = {1: self.ring.one, -1: self.ring.neg(self.ring.one)}
        self._id = {}         # node label -> id
        self._label = []      # id -> node label
        self._degs = []       # id -> degree
        self._kids = []       # id -> child ids
        self._repr = {}       # id or key -> repr of its label or itself
        self._canon = {}      # (kind, key, child ids) -> (id, +-1), or ()
        self._orbit_tables = {}
        self._grafts = {}     # (via, key, sub-keys, parities) -> [(key, coefficient)]
        self._bds = {}        # id -> boundary ((id, coefficient), ...)
        self._pos = {}        # id -> row in its degree of its complex
        self._words = []      # depth -> word ids, in basis order
        self._roots = {}      # level -> root ids, in basis order
        self._images = {}     # ("d" or "s", n, i, kind) -> {id: image}

    # -- node ids -----------------------------------------------------------

    def _intern(self, label) -> int:
        """The id of a node label, numbered on first sight."""
        j = self._id.get(label)
        if j is None:
            kids = () if label[0] == "lf" else tuple(map(self._intern, label[2]))
            j = self._add(label, kids)
        return j

    def _add(self, label, kids) -> int:
        j = self._id[label] = len(self._label)
        self._label.append(label)
        self._kids.append(kids)
        self._degs.append(label[2] if label[0] == "lf" else
                          label[1][2] + sum(self._degs[c] for c in kids))
        return j

    def _node(self, kind, key, kids) -> int:
        """The id of the node (kind, key, children of ids kids)."""
        label = (kind, key, tuple(self._label[c] for c in kids))
        j = self._id.get(label)
        return self._add(label, kids) if j is None else j

    def deg(self, label) -> int:
        return self._degs[self._intern(label)]

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

    def _orbit(self, kind, structure, key, kids):
        """Walk the signed orbit of the node (key, children of ids kids) and
        store the class of every member: () when a member is reached with
        two signs (the orbit dies), else (representative id, sign)."""
        orbit, dead = {}, False
        parities = tuple(self._degs[c] % 2 for c in kids)
        for idx, nk, s in self._orbit_table(structure, key, parities):
            if orbit.setdefault((nk, tuple([kids[i] for i in idx])), s) != s:
                dead = True
        canon = self._canon
        if dead:
            for nk, cs in orbit:
                canon[kind, nk, cs] = ()
            return
        rep = min(orbit, key=self._node_repr) if len(orbit) > 1 else (key, kids)
        r, s_rep = self._node(kind, *rep), orbit[rep]
        for (nk, cs), s in orbit.items():
            canon[kind, nk, cs] = (r, s * s_rep)

    def _node_repr(self, cand) -> str:
        """repr of the orbit element (key, child ids) as a label tail,
        assembled from the memoized reprs of the key and of each child."""
        (nk, kids), memo, label = cand, self._repr, self._label
        rs = [memo.get(c) or memo.setdefault(c, repr(label[c])) for c in kids]
        inner = rs[0] + "," if len(rs) == 1 else ", ".join(rs)
        return "(" + (memo.get(nk) or memo.setdefault(nk, repr(nk))) + \
            ", (" + inner + "))"

    def _class(self, kind, structure, key, kids):
        """(id, +-1) of the canonical class of the node (key, children of
        ids kids), or () when its orbit dies."""
        hit = self._canon.get((kind, key, kids))
        if hit is None:
            self._orbit(kind, structure, key, kids)
            hit = self._canon[kind, key, kids]
        return hit

    def _add_hit(self, out, hit, v, odd):
        """out[class id] += v, times the class sign and (-1)^odd; nothing
        when the orbit died."""
        if hit:
            add_into(self.ring, out, hit[0],
                     self.ring.neg(v) if (odd + (hit[1] < 0)) % 2 else v)

    def make_node(self, kind, structure, key, children) -> dict:
        """Canonical class of a node, as a linear combination (at most one term)."""
        hit = self._class(kind, structure, key, tuple(map(self._intern, children)))
        return {self._label[hit[0]]: self._unit[hit[1]]} if hit else {}

    def make_word(self, mkey, children) -> dict:
        return self.make_node("wd", self.M, mkey, children)

    def make_root(self, okey, children) -> dict:
        return self.make_node("rt", self.O, okey, children)

    # -- levels -----------------------------------------------------------------

    def _boundary(self, j) -> tuple:
        """d of the node of id j as ((id, coefficient), ...), read once."""
        bd = self._bds.get(j)
        if bd is None:
            label, out = self._label[j], {}
            if label[0] == "lf":
                _, x, d, l = label
                for (dd, ll), v in self.A.diff_carrier(x, (d, l)).items():
                    out[self._intern(("lf", x, dd, ll))] = v
            else:
                kind, key, kids = label[0], label[1], self._kids[j]
                structure = self.M if kind == "wd" else self.O
                pre = 0
                for t, c in enumerate(kids):
                    for c2, v in self._boundary(c):
                        self._add_hit(out, self._class(
                            kind, structure, key, kids[:t] + (c2,) + kids[t + 1:]),
                            v, pre)
                    pre += self._degs[c]
                for k2, v in structure.diff_key(key).items():
                    self._add_hit(out, self._class(kind, structure, k2, kids), v, pre)
            bd = self._bds[j] = tuple(out.items())
        return bd

    def words_by_depth(self, depth):
        """{object: [ids of its canonical depth-`depth` words]}.

        Builds and numbers the words of every depth up to `depth` once, each
        depth from the one below; this starts a new build."""
        objects = self.M.objects
        cur = {}
        for x in objects:
            c = self.A.carrier(x)
            cur[x] = [self._intern(("lf", x, d, l))
                      for d in c.degrees() for l in c.labels(d)]
        self._words = [[j for x in objects for j in cur[x]]]
        self._roots, self._images = {}, {}
        for _ in range(depth):
            prev, cur, seen = cur, {x: [] for x in objects}, set()
            for mkey in self.M.all_keys():
                for combo in itertools.product(*(prev[x] for x in mkey[0])):
                    hit = self._class("wd", self.M, mkey, combo)
                    if hit and hit[0] not in seen:
                        seen.add(hit[0])
                        cur[mkey[1]].append(hit[0])
            self._words.append([j for x in objects for j in cur[x]])
        return cur

    def level_basis(self, n):
        """Ids of the canonical roots over the depth-n words of this build."""
        pool, star = self._words[n], self.O.objects[0]
        roots = self._roots[n] = []
        seen = set()
        for k in range(1, self.O.arity_max + 1):
            okeys = self.O.basis_keys((star,) * k, star)
            for combo in itertools.product(pool, repeat=k) if okeys else ():
                for okey in okeys:
                    hit = self._class("rt", self.O, okey, combo)
                    if hit and hit[0] not in seen:
                        seen.add(hit[0])
                        roots.append(hit[0])
        return roots

    def _by_degree(self, ids) -> dict:
        """{degree: the ids of that degree, in order}, each id's row noted
        in ``_pos``."""
        basis = {}
        for j in ids:
            cols = basis.setdefault(self._degs[j], [])
            self._pos[j] = len(cols)
            cols.append(j)
        return basis

    def complex_on(self, ids) -> ChainComplex:
        """The complex on the nodes of ids, graded by degree, with d read
        from their boundaries."""
        basis, ring, pos = self._by_degree(ids), self.ring, self._pos
        diff = {d: Mat(ring, len(basis.get(d - 1, ())), len(cols),
                       {(pos[i], j): v for j, c in enumerate(cols)
                        for i, v in self._boundary(c)})
                for d, cols in basis.items()}
        return ChainComplex(ring, "Z", {d: [self._label[j] for j in cols]
                                        for d, cols in basis.items()}, diff)

    def level_complex(self, n) -> ChainComplex:
        return self.complex_on(self.level_basis(n))

    # -- faces and degeneracies --------------------------------------------------

    def _graft(self, via, key, subs, parities):
        """[(gamma key, coefficient)] of gamma(key; subs) in M (via "M") or
        O (via "O", or "pi" on pi's images of the M keys subs), with the
        Koszul sign (-1)^(sum_{s<t} |sub_s| parities_t) of moving each sub-key
        past the children of the later pieces; memoized."""
        mk = (via, key, subs, parities)
        out = self._grafts.get(mk)
        if out is None:
            ring, target = self.ring, self.M if via == "M" else self.O
            odd = pre = 0
            for sub, p in zip(subs, parities):
                odd += pre * p
                pre += sub[2]
            if sum(len(s[0]) for s in subs) > target.arity_max:
                gam = {}  # zero truncation: the composite space vanishes
            else:
                gam = target.gamma(key, [self.pi.on_key(s) if via == "pi" else
                                         {s: ring.one} for s in subs])
            out = self._grafts[mk] = [(gk, ring.neg(gv) if odd % 2 else gv)
                                      for gk, gv in gam.items()]
        return out

    def _grafted(self, kind, via, key, pieces) -> dict:
        """{id: coefficient} of the node gamma(key; the pieces' keys) on the
        pieces' children, concatenated: d_0 (via pi), the inner collapse
        (via M) and mu's levelwise product (via O)."""
        label, degs = self._label, self._degs
        subs = tuple(label[p][1] for p in pieces)
        parities = tuple((degs[p] - s[2]) % 2 for p, s in zip(pieces, subs))
        children = tuple(c for p in pieces for c in self._kids[p])
        structure, out = self.M if kind == "wd" else self.O, {}
        for gk, gv in self._graft(via, key, subs, parities):
            self._add_hit(out, self._class(kind, structure, gk, children), gv, 0)
        return out

    def _map_node(self, kind, key, kids, images) -> dict:
        """{id: coefficient} of the node with each child c replaced by
        images[c], multilinearly."""
        ring = self.ring
        one, combos, out = ring.one, [((), ring.one)], {}
        for c in kids:
            combos = [(cs + (c2,), v if cv == one else ring.mul(cv, v))
                      for cs, cv in combos for c2, v in images[c]]
        structure = self.M if kind == "wd" else self.O
        for cs, cv in combos:
            self._add_hit(out, self._class(kind, structure, key, cs), cv, 0)
        return out

    def _evaluate_word(self, w) -> dict:
        """{leaf id: coefficient}: the algebra action on a depth-1 word,
        with the sign of the evaluation pairing (arguments, operation)."""
        ring, mkey, kids = self.ring, self._label[w][1], self._kids[w]
        odd = mkey[2] % 2 and sum(self._degs[c] for c in kids) % 2
        args = tuple(self._label[c][2:] for c in kids)
        return {self._intern(("lf", mkey[1], dd, ll)):
                ring.neg(ring.canon(v)) if odd else ring.canon(v)
                for (dd, ll), v in self.A.apply_key(mkey, args).items()}

    def _word_images(self, kind, n, i) -> dict:
        """{depth-n word id: ((id, coefficient), ...)}, the map that d_i
        (kind "d", i > 0) or s_i ("s") of level n applies to a root's
        children: d_1 composes a word with its children (evaluates it if
        n = 1), s_0 wraps it in a unit, else d_{i-1} or s_{i-1} of level
        n - 1 maps them."""
        out = self._images.get((kind, n, i, "wd"))
        if out is None:
            label, kids, M = self._label, self._kids, self.M
            if kind == "s" and i == 0:
                fn = lambda w: self._map_node("wd", M.unit_key(
                    label[w][1] if label[w][0] == "lf" else label[w][1][1]),
                    (w,), {w: ((w, self.ring.one),)})
            elif kind == "d" and i == 1:
                fn = self._evaluate_word if n == 1 else \
                    lambda w: self._grafted("wd", "M", label[w][1], kids[w])
            else:
                inner = self._word_images(kind, n - 1, i - 1)
                fn = lambda w: self._map_node("wd", label[w][1], kids[w], inner)
            out = self._images[kind, n, i, "wd"] = {
                w: tuple(fn(w).items()) for w in self._words[n]}
        return out

    def _root_images(self, kind, n, i) -> dict:
        """{level-n root id: ((id, coefficient), ...)} of d_i (kind "d") or
        s_i ("s"): d_0 projects the depth-1 decorations along pi and
        composes at the root, the others map the children."""
        out = self._images.get((kind, n, i, "rt"))
        if out is None:
            label, kids = self._label, self._kids
            if kind == "d" and i == 0:
                fn = lambda r: self._grafted("rt", "pi", label[r][1], kids[r])
            else:
                images = self._word_images(kind, n, i)
                fn = lambda r: self._map_node("rt", label[r][1], kids[r], images)
            out = self._images[kind, n, i, "rt"] = {
                r: tuple(fn(r).items()) for r in self._roots[n]}
        return out

    def level_map(self, kind, n, i, source, target) -> ChainMap:
        """d_i (kind "d") or s_i ("s") from level n, one matrix per degree:
        a `row_map` when every root hits one root with coefficient one."""
        images, ring, pos = self._root_images(kind, n, i), self.ring, self._pos
        mats = {}
        for d, cols in self._by_degree(self._roots[n]).items():
            hits = [images[r] for r in cols]
            if all(len(h) == 1 and h[0][1] == ring.one for h in hits):
                mats[d] = row_map(ring, target.dim(d), [pos[h[0][0]] for h in hits])
            else:
                mats[d] = Mat(ring, target.dim(d), len(cols),
                              {(pos[r], j): v for j, h in enumerate(hits) for r, v in h})
        return ChainMap(source, target, 0, mats, validate=False)

    def face(self, n, i, label) -> dict:
        """The i-th face on a level-n root label."""
        return {self._label[j]: v
                for j, v in self._root_images("d", n, i)[self._id[label]]}

    def degen(self, n, i, label) -> dict:
        """The i-th degeneracy: insert a unit level at depth i + 1."""
        return {self._label[j]: v
                for j, v in self._root_images("s", n, i)[self._id[label]]}


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
    algebra (d_n); degeneracies insert unit levels.  Each is built on node
    ids, one matrix per degree (`WordCalculus.level_map`).  The inputs are
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
    faces = {(n, i): calc.level_map("d", n, i, levels[n], levels[n - 1])
             for n in range(1, n_max + 1) for i in range(0, n + 1)}
    degens = {(n, i): calc.level_map("s", n, i, levels[n], levels[n + 1])
              for n in range(0, n_max) for i in range(0, n + 1)}
    simp = SimplicialComplexObj(n_max, levels, faces, degens)
    simp.calc = calc
    return simp


def _validate_inputs(pi: MultiFunctor, A: MultiAlgebra):
    """Raise EngineError, with the validator's dict as ``.witness``, at the
    first of M, O, pi and A whose `validate` returns a witness, over every
    ring (a Novikov ring included)."""
    for role, structure in (("multicategory M", pi.source),
                            ("operad O", pi.target), ("functor pi", pi),
                            ("algebra A", A)):
        w = structure.validate()
        if w is not None:
            raise EngineError(f"{role} {structure.name!r} fails "
                              f"{w['axiom']}: {w!r}", witness=w)


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
    (``_level``), the calculus's id of the root l (``_root``, inverted in
    ``_of_root``), its internal degree (``_ideg``) and arity (``_arity``),
    and the boundary as a tuple of (id, coefficient) (``_boundary``).  mu,
    its checks and their memos work on ids, coefficients combined through
    `Ring.add`, `neg` and `mul`:

    * ``_mu_memo``: (ids, okey) -> {id: coefficient};
    * ``_shuffle_memo``: levels (p_1, ..., p_k) -> `_multi_shuffle_words`;
    * ``_degen_memo``: (id, degeneracy word) -> ((id, +-1), ...), read off
      the calculus's degeneracy images;
    * ``_product_memo``: (okey, ids of same-level labels) -> {id:
      coefficient} of their root graft, through the graft memo that the
      calculus shares with d_0 (`WordCalculus._graft`).

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
        for sig in self.calc.M.complexes:
            if not sig[0]:
                raise EngineError(f"M has the nullary signature {sig!r}, "
                                  "which the arity-graded mu windows exclude")
        c = real.complex
        self._labels = [z for d in c.degrees() for z in c.labels(d)]
        self._ids = {z: j for j, z in enumerate(self._labels)}
        self._level = [z[1] for z in self._labels]
        self._root = [self.calc._id[z[2]] for z in self._labels]
        self._of_root = {r: z for z, r in enumerate(self._root)}
        self._ideg = [self.calc._degs[r] for r in self._root]
        self._arity = [len(self.calc._kids[r]) for r in self._root]
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
        """Apply s_{w[0]}, s_{w[1]}, ... (0-based indices) to the root of id
        z; the image as a tuple of (id, +-1)."""
        key = (z, word)
        out = self._degen_memo.get(key)
        if out is None:
            ring, calc = self.ring, self.calc
            lvl = self._level[z]
            cur = {self._root[z]: ring.one}
            for i in word:
                images = calc._root_images("s", lvl, i)
                cur = linear(ring, lambda r: dict(images[r]), cur)
                lvl += 1
            out = tuple((self._of_root[r], ring.as_sign(v)) for r, v in cur.items())
            if any(s is None for _, s in out):
                raise EngineError("degeneracy fold produced a non-unit coefficient")
            self._degen_memo[key] = out
        return out

    def _product_body(self, okey, ids) -> dict:
        """{id: coefficient} of the root graft of same-level ids along okey,
        from the calculus's graft memo."""
        lc = self.calc._grafted("rt", "O", okey, tuple(self._root[z] for z in ids))
        return {self._of_root[r]: v for r, v in lc.items()}

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
        return EngineError(f"{message} on column {zs!r} (x) {okey!r}",
                           witness={"zs": zs, "okey": okey,
                                    "lhs": self._as_labels(lhs),
                                    "rhs": self._as_labels(rhs)})


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
