"""Two-sided bar constructions over dg categories, and their applications:
derived tensor products, categorical left Kan extensions, mapping telescopes
versus bar homotopy colimits, the Hollender-Vogt pushout criterion, and
Novikov completion towers.

Bar levels are B_n = (+) R(a_0) (x) C(a_0,a_1) (x) ... (x) C(a_{n-1},a_n)
(x) L(a_n), with labels ("bar", m, (u_1, ..., u_n), y).  Face d_0 pushes m
along u_1, faces 0 < i < n compose u_i u_{i+1}, and d_n pulls y back along
u_n; degeneracies insert units.  All structure maps have degree 0, so no
Koszul signs appear beyond the Leibniz rule inside each level.

`BarBimoduleComplex` numbers every key of Mr, C and Ml once per bar, K keys
in all, and codes each label by one int c = sum_t c_t K^t, the digits c_t
the ids of its coordinates (m, u_1, ..., u_n, y); each level keeps one dict
per degree from codes to basis position, and every structure map is written
as a matrix straight from codes and per-id tables:
* the level differential from `diff_key` of each key (read once per key),
  replacing the digit c_t by a term of its d, signed by (-1) to the sum of
  the degrees before it;
* face d_i from the pair c // K^i % K^2 = c_i + c_{i+1} K: m.u_1
  (`Mr.act_key`), u_i u_{i+1} (`C.compose_keys`) or u_n.y (`Ml.act_key`),
  one table entry per distinct pair with its coefficients canonicalized
  once (`_act`), written back as the one digit c % K^i + w K^i +
  c // K^(i+2) K^(i+1);
* degeneracy s_i inserts the unit of the object where c_i ends as the
  digit i + 1, by the same arithmetic.
Each table entry records w, the id of its single hit if its coefficient is
1, else -1.  Every degeneracy, and every face whose every column has such a
w (every face of a group bar), is a `linalg.row_map`, which carries its
column form from construction, so the checks, the realization's sums and
the augmentation's d_0 chain read that form, and nothing forms them.

The augmentation triangle (`augmentation_maps`) has three maps out of or into
the realized bar: f multiplies each label out to level 0 of the constant
simplicial object on Mr (x)_C Ml, pushing m along u_1, ..., u_n with the
stored faces d_0 (int column forms, one product per level), and each degree
of f is those forms placed at their (row, col) offsets (`_placed_sum`),
kept as its form, so nothing restores and re-forms them; q is the
identity on level 0 of that realization; p is the tensor projection on level
0 and 0 above it, read off the labels.  `two_sided_bar` checks q o f = p, so
it compares the multiplication in f with the projection read off the labels.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import ChainComplex, ChainMap, _sliced, first_difference, \
    is_quasi_iso, total
from .dgcat import DgCategory, DgFunctor, LeftModule, RightModule, \
    corepresented_right_module, functor_right_module, group_ring_category, \
    poset_category, pullback_right_module, trivial_left_module, \
    trivial_right_module, under_functor_left_module
from .errors import EngineError, ModuleMismatch, NonComposable, \
    NonCommutingSquare, NonTorsionFree, UnsupportedRing
from .lincomb import add_into, eq as lc_eq
from .linalg import Mat, _placed_sum, column_product, form, from_form, row_map
from .quotient import by_classes, by_span, by_z_span
from .simplicial import SimplicialComplexObj, constant_simplicial, realize


class BarBimoduleComplex:
    """B(Mr, C, Ml): levels, realization, and the comparison triangle."""

    def __init__(self, Mr: RightModule, C: DgCategory, Ml: LeftModule, n_max):
        if Mr.cat is not C or Ml.cat is not C:
            raise ModuleMismatch("modules over a different category")
        self.Mr, self.C, self.Ml = Mr, C, Ml
        self.n_max = n_max
        self._build()
        self._augmentation = None

    def _build(self):
        Mr, C, Ml, n_max = self.Mr, self.C, self.Ml, self.n_max
        ring = C.ring
        objs = C.objects
        mks = [m for a in objs for m in Mr.elem_keys(a)]
        uks = [u for a in objs for b in objs for u in C.basis_keys(a, b)]
        yks = [y for a in objs for y in Ml.elem_keys(a)]
        keys = self._keys = mks + uks + yks
        K = len(keys)
        nm, ny = self._bounds = len(mks), len(mks) + len(uks)
        self._ids = ids = ({k: x for x, k in enumerate(mks)},
                           {k: x for x, k in enumerate(uks, nm)},
                           {k: x for x, k in enumerate(yks, ny)})
        acts = self._acts = {}  # a + b K -> the face table entry, see _act
        deg = [k[1] for k in mks] + [k[2] for k in uks] + [k[1] for k in yks]
        dtab = []  # id -> [(id of a term of d key, coeff, -coeff)]
        for diff, back, ks in ((Mr.diff_key, ids[0], mks),
                               (C.diff_key, ids[1], uks),
                               (Ml.diff_key, ids[2], yks)):
            dtab += [[(back[k2], v, ring.neg(v)) for k2, v in diff(k).items()]
                     for k in ks]
        unit = {a: ids[1].get(C.unit_key(a)) for a in objs}
        end = [unit[k[0]] for k in mks] + [unit[k[1]] for k in uks]
        pools = {ab: [ids[1][u] for u in C.basis_keys(*ab)] for ab in C.homs}
        m_at = {a: [ids[0][m] for m in Mr.elem_keys(a)] for a in objs}
        y_at = {a: [ids[2][y] for y in Ml.elem_keys(a)] for a in objs}
        # chains of objects, each with its words (code of u_1..u_n, u keys,
        # degree); u_t is the digit t of the code
        chains = [((a,), [(0, (), 0)]) for a in objs]
        codes, bases = [], []
        for n in range(n_max + 1):
            if n:
                chains = [(ch + (b,), [(us + u * K ** n, uk + (keys[u],), du + deg[u])
                                       for us, uk, du in words
                                       for u in pools[(ch[-1], b)]])
                          for ch, words in chains for b in objs
                          if (ch[-1], b) in pools]
            top = K ** (n + 1)
            basis, cs = {}, {}
            for ch, words in chains:
                for m in m_at[ch[0]]:
                    for us, uk, du in words:
                        for y in y_at[ch[-1]]:
                            d = deg[m] + du + deg[y]
                            basis.setdefault(d, []).append(
                                ("bar", keys[m], uk, keys[y]))
                            cs.setdefault(d, []).append(m + us + y * top)
            codes.append(cs)
            bases.append(basis)
        pos = [{d: {c: j for j, c in enumerate(col)} for d, col in cs.items()}
               for cs in codes]

        def mats(n, tn, shift, build):
            """{degree: matrix} from level n to level tn; build(col, rows,
            nrows) gives the matrix on the codes col, or None when it is 0."""
            out = {}
            for d, col in codes[n].items():
                rows = pos[tn].get(d + shift, {})
                m = build(col, rows, len(rows))
                if m is not None:
                    out[d] = m
            return out

        def matrix(ent, nrows, ncols):
            return Mat(ring, nrows, ncols, ent) if ent else None

        def level_diff(n):  # replaces one digit t by a term of its d
            places = [K ** t for t in range(n + 2)]

            def build(col, rows, nrows):
                ent = {}
                for j, c in enumerate(col):
                    pre = 0
                    for p in places:
                        x = c // p % K
                        for x2, v, nv in dtab[x]:
                            ent[(rows[c + (x2 - x) * p], j)] = \
                                nv if pre % 2 else v
                        pre += deg[x]
                return matrix(ent, nrows, len(col))
            return build

        def face(i):  # reads the pair c // K^i % K^2 and replaces it
            p, q, r, kk = K ** i, K ** (i + 1), K ** (i + 2), K * K

            def build(col, rows, nrows):
                hit_rows = []
                for c in col:
                    w = (acts.get(c // p % kk) or self._act(c // p % kk))[0]
                    if w < 0:
                        break
                    hit_rows.append(rows[c % p + w * p + c // r * q])
                else:
                    return row_map(ring, nrows, hit_rows)
                ent = {}
                for j, c in enumerate(col):
                    for w, v in (acts.get(c // p % kk) or self._act(c // p % kk))[1]:
                        ent[(rows[c % p + w * p + c // r * q], j)] = v
                return matrix(ent, nrows, len(col))
            return build

        def degen(i):  # inserts the unit at the end object of digit i
            p, q = K ** i, K ** (i + 1)
            return lambda col, rows, nrows: row_map(ring, nrows, [
                rows[c % q + (end[c // p % K] + c // q * K) * q] for c in col])

        # without a term in any diff_key, every level differential is 0
        levels = {n: ChainComplex(ring, "Z", bases[n], mats(n, n, -1, level_diff(n))
                                  if any(dtab) else {})
                  for n in range(n_max + 1)}
        # checked as chain maps by SimplicialComplexObj
        faces = {(n, i): ChainMap(levels[n], levels[n - 1], 0,
                                  mats(n, n - 1, 0, face(i)), validate=False)
                 for n in range(1, n_max + 1) for i in range(n + 1)}
        degens = {(n, i): ChainMap(levels[n], levels[n + 1], 0,
                                   mats(n, n + 1, 0, degen(i)), validate=False)
                  for n in range(n_max) for i in range(n + 1)}
        self.simplicial = SimplicialComplexObj(n_max, levels, faces, degens)
        self.realized = realize(self.simplicial)
        self.complex = self.realized.complex

    def _act(self, ab):
        """m.u, u then v, or u.y for the ids (a, b), ab = a + b K, as (w,
        [(id, coefficient)]) with canonical nonzero coefficients, w the id
        of a single hit with coefficient one, else -1; read once per pair."""
        got = self._acts.get(ab)
        if got is None:
            ring, keys, (nm, ny) = self.C.ring, self._keys, self._bounds
            b, a = divmod(ab, len(keys))
            if a < nm:
                hit, back = self.Mr.act_key(keys[a], keys[b]), self._ids[0]
            elif b >= ny:
                hit, back = self.Ml.act_key(keys[a], keys[b]), self._ids[2]
            else:
                hit, back = self.C.compose_keys(keys[a], keys[b]), self._ids[1]
            hit = [(back[k], c) for k, v in hit.items()
                   if not ring.is_zero(c := ring.canon(v))]
            unit = len(hit) == 1 and hit[0][1] == ring.one
            got = self._acts[ab] = (hit[0][0] if unit else -1, hit)
        return got

    # -- the augmentation triangle -----------------------------------------

    def tensor_quotient(self):
        """Mr (x)_C Ml with the projection from the plain level-0 sum."""
        level0 = self.simplicial.level(0)
        ring = self.C.ring
        relations = []
        for b in self.C.objects:
            for y in self.Ml.elem_keys(b):
                for a in self.C.objects:
                    for u in self.C.basis_keys(a, b):
                        for m in self.Mr.elem_keys(a):
                            vec = {}
                            for kk, v in self.Mr.act_key(m, u).items():
                                add_into(ring, vec, ("bar", kk, (), y), v)
                            for kk, v in self.Ml.act_key(u, y).items():
                                add_into(ring, vec, ("bar", m, (), kk),
                                         ring.neg(v))
                            if vec:
                                relations.append(vec)
        return _free_quotient(level0, relations)

    def augmentation_maps(self):
        """(p, f, q, tensor, const) with f levelwise multiplication.

        p: realized bar -> Mr (x)_C Ml, the tensor projection on level 0 and
        0 above it;  f: realized bar -> const, the alternating realization of
        the constant simplicial object on the tensor product;  q: const ->
        the tensor product, the identity on level 0.  p is built from labels,
        not as q o f, so `two_sided_bar` checks q o f = p between two
        independent constructions.  They are built on the first call and
        the same objects are returned on every later one.
        """
        if self._augmentation is None:
            self._augmentation = self._build_augmentation_maps()
        return self._augmentation

    def _build_augmentation_maps(self):
        tensor, proj = self.tensor_quotient()
        ring = self.C.ring
        const = realize(constant_simplicial(tensor, self.n_max))
        # f on level n is proj d_0^n, pushing m along u_1..u_n: one column
        # product with d_0 per level and degree, over every ring in int form
        chains = [{e: form(m) for e, m in proj.mats.items()}]
        for n in range(1, self.n_max + 1):
            d0 = self.simplicial.face(n, 0).mats
            chains.append({e: column_product(ring, c, form(d0[e]))
                           for e, c in chains[-1].items() if e in d0})
        mats = {}
        for deg in self.complex.degrees():
            placed, row, col = [], 0, 0
            for n, chain in enumerate(chains):
                e = deg - n
                if e in chain:
                    placed.append((chain[e], row, col, 1))
                row += tensor.dim(e)
                col += self.simplicial.level(n).dim(e)
            mats[deg] = from_form(ring, row, col, _placed_sum(ring, col, placed))
        f = ChainMap(self.complex, const.complex, 0, mats)

        def q_fn(d, label):
            _, n, tl = label
            return [(tl, 1)] if n == 0 else None

        q = ChainMap.from_label_fn2(const.complex, tensor, 0, q_fn)

        images = {}  # degree -> proj's image of every level-0 label

        def p_fn(d, label):
            _, n, lab = label
            if n:
                return None
            if d not in images:
                images[d] = proj.label_images(d)
            return list(images[d][lab].items())

        p = ChainMap.from_label_fn2(self.complex, tensor, 0, p_fn)
        return p, f, q, tensor, const


def _free_quotient(cpx: ChainComplex, relations):
    """Quotient by relation vectors {label: coeff}, through `quotient`: when
    every relation is a +-1 combination of two labels, by union-find
    classes (`by_classes`); otherwise by the per-degree spans, with Gaussian
    reduction over a field (`by_span`) or Smith normal form over Z
    (`by_z_span`, raising when the quotient has torsion)."""
    ring = cpx.ring
    relations = [vec for vec in relations if vec]
    if all(len(vec) == 2 and None not in map(ring.as_sign, vec.values())
           for vec in relations):
        return by_classes(cpx, _union_find_classes(cpx, relations))
    spans = {}
    for vec in relations:
        by_deg = {}
        for label, v in vec.items():
            d = cpx.degree_of(label)
            by_deg.setdefault(d, {})[cpx.index(d, label)] = v
        if len(by_deg) != 1:
            raise EngineError("relation mixes degrees")
        ((d, v),) = by_deg.items()
        spans.setdefault(d, []).append(v)
    if ring.is_field:
        return by_span(cpx, spans)
    if ring.kind != "Z":
        raise UnsupportedRing(
            "general module quotients need field or integer coefficients")
    return by_z_span(cpx, spans)


def _union_find_classes(cpx: ChainComplex, relations):
    """{degree: [(root index, sign) or None per index]} for the
    identifications c1 l1 + c2 l2 = 0 (c1, c2 = +-1).  The root of a class is
    its least label in `repr` order; a class that the relations force to
    equal its own negative is None."""
    ring = cpx.ring
    parent = {}
    psign = {}

    # union-find with signs: store sign relative to parent
    def find2(x):
        if parent.setdefault(x, x) == x:
            psign.setdefault(x, 1)
            return x, 1
        root, s = find2(parent[x])
        total = psign[x] * s
        parent[x] = root
        psign[x] = total
        return root, total

    dead = set()
    for vec in relations:
        items = sorted(vec.items(), key=lambda kv: repr(kv[0]))
        (l1, c1), (l2, c2) = items
        if cpx.degree_of(l1) != cpx.degree_of(l2):
            raise EngineError("relation mixes degrees")
        # c1 l1 + c2 l2 = 0  =>  l1 = -(c2/c1) l2
        rel_sign = -ring.as_sign(c1) * ring.as_sign(c2)
        r1, t1 = find2(l1)
        r2, t2 = find2(l2)
        if r1 == r2:
            if t1 != rel_sign * t2:
                dead.add(r1)
            continue
        if repr(r2) < repr(r1):
            r1, t1, l1, r2, t2, l2 = r2, t2, l2, r1, t1, l1
        # attach r2 under r1: l1 = rel_sign l2 means t1 x_{r1} = rel_sign t2 x_{r2}
        parent[r2] = r1
        psign[r2] = rel_sign * t1 * t2
        if r2 in dead:  # a killed class stays killed under its new root
            dead.add(r1)
    classes = {}
    for d in cpx.degrees():
        classes[d] = cls = []
        for l in cpx.labels(d):
            root, s = find2(l)
            cls.append(None if root in dead else (cpx.index(d, root), s))
    return classes


def two_sided_bar(Mr: RightModule, C: DgCategory, Ml: LeftModule,
                  n_max) -> BarBimoduleComplex:
    """The two-sided bar with its augmentation triangle q o f = p checked
    (each matrix formed once).  A failure names the first differing column,
    ``.witness`` its `first_difference`."""
    bar = BarBimoduleComplex(Mr, C, Ml, n_max)
    p, f, q, tensor, const = bar.augmentation_maps()
    w = first_difference((q, f), p)
    if w is not None:
        raise EngineError(f"augmentation triangle does not commute at "
                          f"{w['label']!r}: {w}", witness=w)
    return bar


def group_bar_complex(ring, n, generators, n_max):
    """B(R, R[G], R) for G <= S_n with trivial modules; realized."""
    C = group_ring_category(ring, n, generators)
    return two_sided_bar(trivial_right_module(C), C, trivial_left_module(C),
                         n_max)


# ---------------------------------------------------------------------------
# Categorical left Kan extension
# ---------------------------------------------------------------------------


class CatLeftKan:
    """L p_* R = B(R, A, _p C), one realized complex per object of C,
    together with the action of C-morphisms by postcomposition."""

    def __init__(self, p: DgFunctor, R: RightModule, n_max):
        self.p = p
        self.R = R
        self.n_max = n_max
        A, C = p.source, p.target
        self.bars = {}
        for c in C.objects:
            Ml = under_functor_left_module(p, c)
            self.bars[c] = BarBimoduleComplex(R, A, Ml, n_max)

    def action(self, vkey) -> ChainMap:
        """The chain map L p_* R (v: c -> c') induces by postcomposition."""
        C = self.p.target
        ring = C.ring
        src = self.bars[vkey[0]].complex
        tgt = self.bars[vkey[1]].complex

        def fn(label):
            _, n, lab = label
            _, mk, us, yk = lab
            a_n = yk[0]
            y_full = (self.p.on_obj(a_n), vkey[0], yk[1], yk[2])
            out = []
            for kk, c in C.compose_keys(y_full, vkey).items():
                new_y = (a_n, kk[2], kk[3])
                out.append((("lv", n, ("bar", mk, us, new_y)), c))
            return out

        return ChainMap.from_label_fn(src, tgt, vkey[2], fn, validate=False)


def cat_left_kan(p: DgFunctor, R: RightModule, n_max) -> CatLeftKan:
    return CatLeftKan(p, R, n_max)


# ---------------------------------------------------------------------------
# Telescope vs bar homotopy colimit
# ---------------------------------------------------------------------------


class TelescopeReport:
    def __init__(self, telescope, hocolim, comparison, verdict):
        self.telescope = telescope
        self.hocolim = hocolim
        self.comparison = comparison
        self.verdict = verdict


def telescope_complex(complexes, maps) -> ChainComplex:
    """The finite mapping telescope of C^0 -> C^1 -> ... -> C^k (`total`):
    the parts ("t0", i) = C^i and ("t1", i) = C^i[1] (i < k), with
    d = maps[i] - id on ("t1", i)."""
    k = len(complexes) - 1
    parts = [(("t0", i), c, 0) for i, c in enumerate(complexes)]
    parts += [(("t1", i), c, 1) for i, c in enumerate(complexes[:k])]
    arrows = []
    for i in range(k):  # ("t1", i) is part k + 1 + i
        arrows += [(k + 1 + i, i + 1, maps[i], 1),
                   (k + 1 + i, i, ChainMap.identity(complexes[i]), -1)]
    return total(complexes[0].ring, parts, arrows)


def telescope_vs_hocolim(complexes, maps, n_max) -> TelescopeReport:
    """Telescope and B(CF, N, R) over the finite chain poset, compared."""
    if len(maps) != len(complexes) - 1:
        raise NonComposable("need one map per consecutive pair")
    for i, f in enumerate(maps):
        if f.source is not complexes[i] or f.target is not complexes[i + 1]:
            raise NonComposable(f"map {i} does not connect C{i} -> C{i+1}")
    ring = complexes[0].ring
    k = len(complexes) - 1
    N = poset_category(ring, k)
    comp_maps = {}
    for i in range(k + 1):
        comp_maps[(i, i, f"u{i}_{i}")] = ChainMap.identity(complexes[i])
        acc = None
        for j in range(i + 1, k + 1):
            acc = maps[j - 1] if acc is None else maps[j - 1].compose(acc)
            comp_maps[(i, j, f"u{i}_{j}")] = acc
    CF = functor_right_module(N, {i: complexes[i] for i in range(k + 1)},
                              {key: m for key, m in comp_maps.items()},
                              name="CF")
    Ml = trivial_left_module(N)
    bar = two_sided_bar(CF, N, Ml, n_max)
    tel = telescope_complex(complexes, maps)

    def fn2(lbl):
        tag, i, l = lbl
        c = complexes[i]
        d = c.degree_of(l)
        if tag == "t0":
            y = (i, 0, "l")
            return [(("lv", 0, ("bar", (i, d, l), (), y)), 1)]
        u = (i, i + 1, 0, f"u{i}_{i+1}")
        y = (i + 1, 0, "l")
        return [(("lv", 1, ("bar", (i, d, l), (u,), y)), 1)]

    comparison = ChainMap.from_label_fn(tel, bar.complex, 0, fn2)
    lo = min([min(c.degrees(), default=0) for c in complexes]) - 1
    hi = bar.realized.reliable_degrees[-1]
    verdict = is_quasi_iso(comparison, range(lo, hi + 1))
    return TelescopeReport(tel, bar, comparison, verdict)


# ---------------------------------------------------------------------------
# Hollender-Vogt pushout criterion
# ---------------------------------------------------------------------------


class HVReport:
    def __init__(self, verdict1, verdict2, witnesses):
        self.verdict1 = verdict1
        self.verdict2 = verdict2
        self.witnesses = witnesses

    @property
    def implication_holds(self):
        return (not self.verdict1) or self.verdict2


def hv_pushout_check(f: DgFunctor, p: DgFunctor, g: DgFunctor, q: DgFunctor,
                     X: RightModule, n_max) -> HVReport:
    """verdict1: B(f^*B(b,-), A, _pC(-,c)) -> D(q b, g c) objectwise quasi-iso;
    verdict2: B(f^*X, A, _pC(-,c)) -> B(X, B, _qD(-, g c)) quasi-iso per c.

    The square q o f = g o p must commute strictly.
    """
    A, B, C, D = f.source, f.target, p.target, g.target
    if p.source is not A or q.source is not B or g.source is not C \
            or q.target is not D or g.target is not D:
        raise NonCommutingSquare("square shape mismatch")
    qf = q.compose_with(f)
    gp = g.compose_with(p)
    for a in A.objects:
        if qf.on_obj(a) != gp.on_obj(a):
            raise NonCommutingSquare(f"objects disagree at {a}")
    for u in A.all_keys():
        if not lc_eq(A.ring, qf.on_key(u), gp.on_key(u)):
            raise NonCommutingSquare(f"morphisms disagree at {u}")
    ring = A.ring
    verdict1 = True
    witnesses = {}
    for b in B.objects:
        Rb = pullback_right_module(f, corepresented_right_module(B, b))
        for c in C.objects:
            Lc = under_functor_left_module(p, c)
            bar = BarBimoduleComplex(Rb, A, Lc, n_max)
            target = D.hom(q.on_obj(b), g.on_obj(c))
            if target is None:
                target = ChainComplex.zero(ring)

            def fn(label):
                _, n, lab = label
                if n != 0:
                    return None
                _, mk, us, yk = lab
                a0 = mk[0]
                beta = (q.on_obj(b), qf.on_obj(a0), mk[1], mk[2])
                gam_lc = g.on_key((p.on_obj(a0), c, yk[1], yk[2]))
                out = []
                for gk, cv in gam_lc.items():
                    for kk, v in D.compose_keys(beta, gk).items():
                        out.append(((kk[3]), ring.mul(cv, v)))
                # collapse labels to target complex labels
                merged = {}
                for lab2, v in out:
                    add_into(ring, merged, lab2, v)
                return list(merged.items())

            cmp_map = ChainMap.from_label_fn(bar.complex, target, 0, fn)
            window = bar.realized.reliable_degrees
            res = is_quasi_iso(cmp_map, window)
            if not res.ok:
                verdict1 = False
                witnesses[("v1", b, c)] = res.witness
    verdict2 = True
    fX = pullback_right_module(f, X)
    for c in C.objects:
        Lc = under_functor_left_module(p, c)
        src = BarBimoduleComplex(fX, A, Lc, n_max)
        Ld = under_functor_left_module(q, g.on_obj(c))
        tgt = BarBimoduleComplex(X, B, Ld, n_max)

        def fn(label):
            _, n, lab = label
            _, mk, us, yk = lab
            # push the chain through f, and the last factor through g
            m_new = (f.on_obj(mk[0]), mk[1], mk[2])
            acc = {(): ring.one}
            for u in us:
                new = {}
                for combo, cv in acc.items():
                    for kk, v in f.on_key(u).items():
                        new[combo + (kk,)] = ring.mul(cv, v)
                acc = new
            out = []
            gam_lc = g.on_key((p.on_obj(yk[0]), c, yk[1], yk[2]))
            for combo, cv in acc.items():
                for gk, gv in gam_lc.items():
                    new_y = (f.on_obj(yk[0]), gk[2], gk[3])
                    out.append((("lv", n, ("bar", m_new, combo, new_y)),
                                ring.mul(cv, gv)))
            return out

        cmp_map = ChainMap.from_label_fn(src.complex, tgt.complex, 0, fn)
        window = src.realized.reliable_degrees
        res = is_quasi_iso(cmp_map, window)
        if not res.ok:
            verdict2 = False
            witnesses[("v2", c)] = res.witness
    report = HVReport(verdict1, verdict2, witnesses)
    if not report.implication_holds:
        raise EngineError("Hollender-Vogt implication failed (engine bug)")
    return report


# ---------------------------------------------------------------------------
# Completion towers over truncated Novikov rings
# ---------------------------------------------------------------------------


class TowerReport:
    def __init__(self, cutoffs, verdicts, flags):
        self.cutoffs = cutoffs
        self.verdicts = verdicts
        self.flags = flags

    @property
    def all_quasi_iso(self):
        return all(v.ok for v in self.verdicts.values())


def reduce_complex(C: ChainComplex, new_cutoff) -> ChainComplex:
    return _sliced(C, C.ring.at_cutoff(new_cutoff))


def reduce_map(fmap: ChainMap, new_cutoff) -> ChainMap:
    return _sliced(fmap, fmap.source.ring.at_cutoff(new_cutoff))


def complete_tower(fmap: ChainMap, cutoffs, degrees) -> TowerReport:
    """The quasi-isomorphism verdict on fmap at each cutoff, with one flag
    per source or target differential that has entries of positive
    valuation (zero divisors), the torsion obstruction shadow, naming its
    side and degree.  An entry has valuation 0 when it has a T^0 term, so
    a differential is flagged when it has more entries than slice 0 of its
    kept form.

    The verdict at cutoff c is that on `reduce_map`(fmap, c), which keeps
    slice 0 of every matrix.  `is_quasi_iso` decides on that residue, so
    every cutoff gets the one verdict on fmap, decided once."""
    ring = fmap.source.ring
    if not ring.is_novikov:
        raise UnsupportedRing("completion towers live over Novikov rings")
    cutoffs = sorted(Fraction(c) for c in cutoffs)
    if not cutoffs:
        raise ValueError("need at least one cutoff")
    if cutoffs[-1] != ring.cutoff:
        raise EngineError("largest cutoff must match the ring")
    if cutoffs[0] <= 0:
        raise ValueError("need cutoff > 0")
    flags = []
    for side, cpx in (("source", fmap.source), ("target", fmap.target)):
        for d, m in cpx.diff.items():
            units = form(m)[0]
            if len(m.d) > (sum(map(len, units[1])) if units else 0):
                flags.append(NonTorsionFree(
                    f"{side} differential in degree {d} has an entry of "
                    f"positive valuation"))
    return TowerReport(cutoffs, dict.fromkeys(cutoffs, is_quasi_iso(fmap, degrees)),
                       flags)
