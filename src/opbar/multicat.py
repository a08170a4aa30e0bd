"""Finitely presented dg multicategories, algebras over them, and the PROP.

A multicategory is presented by chain complexes M(xs; y) for input tuples xs
of length <= arity_max, composition tables for the partial compositions
(f plugged into slot i of g), tables for the adjacent-transposition actions,
and a unit basis element per object.  Arities beyond arity_max carry the zero
complex ("zero truncation"), which keeps every presented multicategory an
honest one: composites that would overflow the bound vanish.

Conventions (enforced exhaustively by the validator):

* compose(f, i, g): f lands in slot i of g; the result lives on the input
  sequence of g with slot i replaced by f's inputs.
* sequential associativity:
      compose(compose(f,i,g), j, h) = compose(f, i+j-1, compose(g,j,h))
* parallel compositions into disjoint slots i1 < i2 of h commute up to the
  Koszul sign (-1)^{|f||g|}; the second slot shifts by arity(f) - 1.
* act(sigma, f) moves M(xs; y) to M(xs o sigma; y) and is a right action:
  act(tau, act(sigma, f)) = act(sigma o tau, f).

Validation has one arithmetic over every ring.  A MultiCat's `_Tables`
number its keys once and read each composite that fits arity_max,
transposition and differential once; an algebra adds its action on each
tuple of carrier elements and its carrier differential, and a functor its
value on each source key.  Each table is formed once and kept, and holds an
lc as ((id, entry), ...) over one denominator: an int (a residue over F_p),
or over a Novikov ring Lambda_c = K[t]/(t^N), t = T^(1/q), its N slice ints
(`_Slices`), which multiply as the truncated convolution.  No verdict is
kept: each `validate` compares the two sides of every check in int
arithmetic.  The oracles, the same checks in Ring arithmetic over all keys,
are `_validate_unpruned` in tests/test_multicat_validate.py and the algebra
and functor oracles in tests/genutil.py.

A dg category is a 1-ary multicategory, and this module stores and validates
both.  `DgCategory` keeps its (a, b, degree, label) keys but stores no table:
its hom complexes, units and composition live in the MultiCat `C.M` (arity_max
1), under the key translation (a, b, d, l) <-> ((a,), b, d, l), and "u then v"
is u plugged into the one slot of v.  `C.validate()` is `C.M.validate()`, so a
witness names a multicategory axiom ("unit-missing", "unit-not-closed",
"eqMultComp3" for a unit law, "leibniz", "eqMultComp1" for associativity) and
carries 1-ary keys.  `DgFunctor` reads a `MultiFunctor` between the two
`.M`s the same way and validates through it.  `C.op()`, built once, has the
same hom complexes and units, keys (a, b, d, l) -> (b, a, d, l), and "x then
y" equal to (-1)^{|x||y|} "y then x" in C; `C.op().op()` is C.

A one-sided dg module is an algebra over a 1-ary multicategory: `dgcat`'s
`RightModule` is a view of a `MultiAlgebra` over `C.M`, and `LeftModule` of
one over `C.op().M`.  `MultiAlgebra.apply_key` raises EngineError when an
action lands on a label that its target carrier lacks in degree
|f| + sum |args|, so every algebra, module views included, has one signature
check, and a witness of `MultiAlgebra.validate` names an algebra axiom.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict

from .complexes import ChainComplex, ChainMap
from .errors import EngineError, NonGridExponent
from .linalg import _steps
from .lincomb import add_into, bilinear, linear
from .symgrp import GroupRingModule, Perm, block_perm, enumerate_group, \
    is_free_module, koszul_sign


def perm_word(perm: Perm):
    """Adjacent transpositions with perm = t_{w[0]} o t_{w[1]} o ... o t_{w[-1]}.

    Feeding the word in list order through a right action realizes act(perm):
    the last factor of the composition acts first.
    """
    arr = list(perm.images)
    n = len(arr)
    swaps = []
    while True:
        done = True
        for i in range(n - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append(i + 1)
                done = False
        if done:
            break
    return list(reversed(swaps))


class MultiCat:
    """A dg multicategory with finitely many objects and bounded arity."""

    def __init__(self, ring, objects, arity_max, complexes, compose_fn, sym_fn,
                 units, name="M"):
        self.ring = ring
        self.objects = list(objects)
        self.arity_max = arity_max
        self.complexes = {}
        for (xs, y), c in complexes.items():
            if c is None or c.total_dim() == 0:
                continue
            self.complexes[(tuple(xs), y)] = c
        self._compose_fn = compose_fn
        self._sym_fn = sym_fn
        self.units = dict(units)
        self.name = name
        self._compose_cache = {}
        self._sym_cache = {}

    # -- signatures and elements -------------------------------------------

    def complex(self, xs, y) -> ChainComplex | None:
        return self.complexes.get((tuple(xs), y))

    def signatures(self):
        return sorted(self.complexes, key=repr)

    def basis_keys(self, xs, y):
        c = self.complex(xs, y)
        if c is None:
            return []
        xs = tuple(xs)
        return [(xs, y, d, l) for d in c.degrees() for l in c.labels(d)]

    def all_keys(self):
        out = []
        for xs, y in self.signatures():
            out.extend(self.basis_keys(xs, y))
        return out

    def key_degree(self, key):
        return key[2]

    def arity(self, key):
        return len(key[0])

    def unit_key(self, x):
        return ((x,), x, 0, self.units[x])

    def diff_key(self, key) -> dict:
        xs, y, d, l = key
        c = self.complex(xs, y)
        col = c.d_mat(d).column(c.index(d, l))
        pd = c.pred(d)
        return {(xs, y, pd, c.labels(pd)[i]): v for i, v in col.items()}

    def restrict_to(self, objects) -> "MultiCat":
        """The full sub-multicategory on a subset of the objects."""
        objects = [x for x in self.objects if x in set(objects)]
        keep = set(objects)
        complexes = {sig: c for sig, c in self.complexes.items()
                     if set(sig[0]) <= keep and sig[1] in keep}
        return MultiCat(self.ring, objects, self.arity_max, complexes,
                        self._compose_fn, self._sym_fn,
                        {x: u for x, u in self.units.items() if x in keep},
                        name=f"{self.name}|")

    # -- composition ----------------------------------------------------------

    def compose_keys(self, fkey, i, gkey) -> dict:
        """f into slot i of g, as a linear combination of basis keys."""
        fxs, fy, fd, _ = fkey
        gxs, gy, gd, _ = gkey
        if not (1 <= i <= len(gxs)):
            raise EngineError(f"slot {i} out of range for arity {len(gxs)}")
        if gxs[i - 1] != fy:
            raise EngineError(f"slot {i} of {gkey} expects {gxs[i-1]}, got {fy}")
        if len(gxs) + len(fxs) - 1 > self.arity_max:
            return {}
        cached = self._compose_cache.get((fkey, i, gkey))
        if cached is None:
            cached = self._compose_fn(self, fkey, i, gkey)
            tgt_xs = gxs[:i - 1] + fxs + gxs[i:]
            for k in cached:
                if k[0] != tgt_xs or k[1] != gy or k[2] != fd + gd:
                    raise EngineError(f"composition table lands off-signature: {k}")
            self._compose_cache[(fkey, i, gkey)] = cached
        return cached

    def compose(self, f: dict, i, g: dict) -> dict:
        return bilinear(self.ring, lambda a, b: self.compose_keys(a, i, b), f, g)

    def gamma(self, g, fs) -> dict:
        """Simultaneous composition of f_1..f_k into all slots of g.

        Slots are filled in descending order, which makes gamma the chain map
        associated with the tensor order (f_1, ..., f_k, g).
        """
        gdict = g if isinstance(g, dict) else {g: self.ring.one}
        arity = {len(k[0]) for k in gdict}
        if len(arity) != 1 or arity != {len(fs)}:
            raise EngineError("gamma needs one argument per slot")
        acc = gdict
        for slot in range(len(fs), 0, -1):
            f = fs[slot - 1]
            fdict = f if isinstance(f, dict) else {f: self.ring.one}
            acc = bilinear(self.ring,
                           lambda a, b, s=slot: self.compose_keys(a, s, b),
                           fdict, acc)
        return acc

    # -- symmetric action ---------------------------------------------------------

    def act_transposition(self, i, fkey) -> dict:
        """Action of the adjacent transposition (i, i+1) on the inputs."""
        n = self.arity(fkey)
        if not (1 <= i <= n - 1):
            raise EngineError(f"transposition index {i} out of range")
        cached = self._sym_cache.get((i, fkey))
        if cached is None:
            cached = self._sym_fn(self, i, fkey)
            xs = fkey[0]
            want = xs[:i - 1] + (xs[i], xs[i - 1]) + xs[i + 1:]
            for k in cached:
                if k[0] != want or k[1] != fkey[1] or k[2] != fkey[2]:
                    raise EngineError(f"symmetry table lands off-signature: {k}")
            self._sym_cache[(i, fkey)] = cached
        return cached

    def act(self, sigma: Perm, f) -> dict:
        """Right action: act(sigma, f) lives on xs o sigma."""
        if isinstance(f, dict):
            return linear(self.ring, lambda k: self.act(sigma, k), f)
        acc = {f: self.ring.one}
        for i in perm_word(sigma):
            acc = linear(self.ring, lambda k, t=i: self.act_transposition(t, k), acc)
        return acc

    # -- validation ------------------------------------------------------------

    @functools.cached_property
    def _tables(self) -> "_Tables":
        return _Tables(self)

    def validate(self):
        """Exhaustive check; returns None, or a witness naming the failure.

        The checks read the kept `_Tables`: outer[(i, g)][f] = inner[(f,
        i)][g] is f into slot i of g; sym[t][f] and dif[f] are t and d on f.
        act(sigma, .) walks perm_word(sigma) over sym.  A check whose
        composite has arity above arity_max is skipped: zero truncation
        makes both of its sides {}.  The checks run in the oracle's order,
        so the first failure is the same.
        """
        for x in self.objects:
            uk = self.unit_key(x)
            c = self.complex((x,), x)
            if c is None or not c.has_label(0, uk[3]):
                return {"axiom": "unit-missing", "object": x}
            if self.diff_key(uk):
                return {"axiom": "unit-not-closed", "object": x}
        T = self._tables
        keys, ar, slots, fits = T.keys, T.arity, T.slots, T.fits
        outer, inner, sym, dif, den = T.outer, T.inner, T.sym, T.dif, T.den
        into, same, one, minus = T.into, T.same, T.const(1), T.const(-1)
        top, by_den = self.arity_max, T.const(den)

        def walk(word, acc):  # the transpositions of word, in list order
            for t in word:
                acc = into({}, acc.items(), sym[t])
            return acc

        unit = {x: T.ids[self.unit_key(x)] for x in self.objects}
        for g, key in enumerate(keys):
            for i, x in enumerate(key[0], 1):
                if not same(dict(outer[(i, g)][unit[x]]), {g: by_den}):
                    return {"axiom": "eqMultComp3", "side": "unit-into",
                            "g": key, "i": i}
            if not same(dict(outer[(1, unit[key[1]])][g]), {g: by_den}):
                return {"axiom": "eqMultComp3", "side": "into-unit", "g": key}
        for f, key in enumerate(keys):
            s = minus if key[2] % 2 else one
            for g in fits(top + 1 - ar[f]):
                for i in slots[g].get(key[1], ()):
                    row = outer[(i, g)]
                    rhs = into(into({}, dif[f], row), dif[g], inner[(f, i)], s)
                    if not same(into({}, row[f], dif), rhs):
                        return {"axiom": "leibniz", "f": key, "g": keys[g],
                                "i": i}
        for h, hk in enumerate(keys):
            for g, gk in enumerate(keys):
                # f, g and h compose to arity a_f + a_g + a_h - 2
                fs = fits(top + 2 - ar[g] - ar[h])
                for j in slots[h].get(gk[1], ()) if fs else ():
                    row = outer[(j, h)]
                    gh = row[g]
                    for f in fs:
                        fk = keys[f]
                        for i in slots[g].get(fk[1], ()):
                            if not same(into({}, outer[(i, g)][f], row),
                                        into({}, gh, inner[(f, i + j - 1)])):
                                return {"axiom": "eqMultComp1", "f": fk,
                                        "g": gk, "h": hk, "i": i, "j": j}
                        for i1 in slots[h].get(fk[1], ()):
                            if i1 < j and not same(
                                    into({}, gh, inner[(f, i1)]),
                                    into({}, outer[(i1, h)].get(f, ()),
                                         inner[(g, j + ar[f] - 1)],
                                         minus if fk[2] % 2 and gk[2] % 2
                                         else one)):
                                return {"axiom": "eqMultComp2", "f": fk,
                                        "g": gk, "h": hk, "i1": i1, "i2": j}
        for f, key in enumerate(keys):
            n = ar[f]
            for i in range(1, n):
                tf = sym[i][f]
                if not same(into({}, tf, dif), into({}, dif[f], sym[i])):
                    return {"axiom": "sym-chain-map", "f": key, "i": i}
                if not same(into({}, tf, sym[i]), {f: T.const(den * den)}):
                    return {"axiom": "sym-involution", "f": key, "i": i}
            for i in range(1, n - 1):
                if not same(walk((i, i + 1, i), {f: one}),
                            walk((i + 1, i, i + 1), {f: one})):
                    return {"axiom": "sym-braid", "f": key, "i": i}
            for i in range(1, n):
                for j in range(i + 2, n):
                    if not same(walk((i, j), {f: one}), walk((j, i), {f: one})):
                        return {"axiom": "sym-commute", "f": key, "i": i,
                                "j": j}
        for f, key in enumerate(keys):
            for g in fits(top + 1 - ar[f]):
                for i in slots[g].get(key[1], ()):
                    row = outer[(i, g)]
                    for t in range(1, ar[f]):
                        # t inside the block of f is i + t - 1 on the composite
                        if not same(into({}, sym[t][f], row),
                                    into({}, row[f], sym[i + t - 1])):
                            return {"axiom": "eqSymAc2", "f": key,
                                    "g": keys[g], "i": i, "t": t}
        for g, ng in enumerate(ar):
            for t in range(1, ng):
                for f in fits(top + 1 - ng):
                    for i in slots[g].get(keys[f][1], ()):
                        ip = t + 1 if i == t else t if i == t + 1 else i
                        word = _block_word(ng, t, i, ar[f])
                        # both sides at den^(1 + len(word))
                        if not same(into({}, sym[t][g], inner[(f, ip)],
                                         T.const(den ** (len(word) - 1))),
                                    walk(word, dict(outer[(i, g)][f]))):
                            return {"axiom": "eqSymAc1", "f": keys[f],
                                    "g": keys[g], "i": i, "t": t}
        return None

    def __repr__(self):
        return f"MultiCat({self.name}, {len(self.objects)} objects, " \
               f"arity<={self.arity_max})"


@functools.lru_cache(maxsize=None)
def _block_word(ng, t, i, nf):
    """perm_word of eta: the block of f (arity nf) in slot i of g (arity ng)
    moved back across the transposition t of g."""
    sizes = [1] * ng
    sizes[i - 1] = nf
    return tuple(perm_word(block_perm(
        sizes, Perm.transposition(ng, t, t + 1)).inverse()))


class _Slices(tuple):
    """A table entry over a Novikov ring K[t]/(t^N), t = T^(1/q): slot k
    holds the coefficient of t^k.  Entries add slotwise and multiply as the
    truncated convolution, so `_Tables` runs one code on ints and slices."""

    def __add__(self, other):
        return _Slices(map(operator.add, self, other))

    def __radd__(self, other):  # 0 + entry, from acc.get(k, 0) + entry
        return self

    def __mul__(self, other):  # an int scales slotwise
        if type(other) is int:
            return _Slices(x * other for x in self)
        return _Slices(sum(self[i] * other[k - i] for i in range(k + 1))
                       for k in range(len(self)))

    def __mod__(self, p):
        return _Slices(x % p for x in self)

    def __bool__(self):
        return any(self)


class _Tables:
    """The int tables of a MultiCat M and their arithmetic (module
    docstring): keys numbered in `all_keys` order (`ids`), slots[g] = {y:
    the slots of g taking y}, outer[(i, g)][f] = inner[(f, i)][g] (f into
    slot i of g, for each composite that fits arity_max), sym[t][f] and
    dif[f] (t and d on f), each over the one denominator `den` (`ints`).
    A product of entries from tables with dens d_1, ..., d_k is at the
    scale d_1 ... d_k; a check brings its two sides to one scale with the
    factor s of `into` before `same` compares them."""

    def __init__(self, M):
        ring, top = M.ring, M.arity_max
        self.p = (ring.base if ring.is_novikov else ring).p
        self.q, self.n = ring.grid, _steps(ring) if ring.is_novikov else 0
        self.keys = keys = M.all_keys()
        self.ids = {k: n for n, k in enumerate(keys)}
        self.arity = ar = [len(k[0]) for k in keys]
        self._upto = [[f for f, a in enumerate(ar) if a <= b]
                      for b in range(top + 1)]
        self.slots = [{y: [i for i, x in enumerate(k[0], 1) if x == y]
                       for y in k[0]} for k in keys]
        comp = [(f, i, g, M.compose_keys(keys[f], i, k))
                for g, k in enumerate(keys) for f in self.fits(top + 1 - ar[g])
                for i in self.slots[g].get(keys[f][1], ())]
        sym = [(t, f, M.act_transposition(t, k))
               for f, k in enumerate(keys) for t in range(1, ar[f])]
        dif = [M.diff_key(k) for k in keys]
        self.den = den = self.lcm(dif + [e[-1] for e in comp + sym])
        self.outer, self.inner, self.sym = [defaultdict(dict) for _ in range(3)]
        for f, i, g, lc in comp:
            self.outer[(i, g)][f] = self.inner[(f, i)][g] = \
                self.ints(lc, self.ids, den)
        for t, f, lc in sym:
            self.sym[t][f] = self.ints(lc, self.ids, den)
        self.dif = {f: self.ints(lc, self.ids, den) for f, lc in enumerate(dif)}

    def fits(self, b):
        """The ids of arity <= b."""
        return self._upto[min(b, len(self._upto) - 1)] if b >= 0 else []

    def const(self, n):
        """The entry of the int n."""
        return _Slices((n,) + (0,) * (self.n - 1)) if self.n else n

    def lcm(self, lcs):
        """The one denominator of the values of lcs."""
        vs = [v for lc in lcs for v in lc.values()]
        return math.lcm(*{c.denominator for c in (
            [c for v in vs for _, c in v] if self.n else vs)})

    def ints(self, lc, ids, den):
        """lc as ((ids[key], value * den), ...), zeros dropped: ints
        (residues over F_p) or, over a Novikov ring, `_Slices`."""
        out = []
        for k, v in lc.items():
            if self.n:
                w = [0] * self.n
                for e, c in v:
                    s, r = divmod(e * self.q, 1)
                    if r or s < 0:
                        raise NonGridExponent(f"exponent {e} is off the grid")
                    if s < self.n:
                        w[s] += c.numerator * (den // c.denominator)
                v = _Slices(w)
            else:
                v = v.numerator * (den // v.denominator)
            if v:
                out.append((ids[k], v))
        return tuple(out)

    @staticmethod
    def into(acc, terms, row, s=1):
        """acc plus s times the sum of c * row[k] over the terms (k, c)."""
        get = acc.get
        for k, c in terms:
            c *= s
            for k2, c2 in row.get(k, ()):
                acc[k2] = get(k2, 0) + c * c2
        return acc

    def same(self, a, b):
        """Whether two sums at one scale are equal (mod p over F_p)."""
        if a == b:
            return True
        p = self.p
        if p:
            return {k: v % p for k, v in a.items() if v % p} \
                == {k: v % p for k, v in b.items() if v % p}
        return {k: v for k, v in a.items() if v} \
            == {k: v for k, v in b.items() if v}


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


class MultiAlgebra:
    """Carrier complexes plus multilinear action tables.

    action_fn(alg, fkey, args) takes args = tuple of (degree, label) per slot
    and returns {(degree, label): coeff} on the output carrier.
    """

    def __init__(self, M: MultiCat, carriers, action_fn, name="A"):
        self.M = M
        self.ring = M.ring
        self.carriers = dict(carriers)
        self._action_fn = action_fn
        self._cache = {}
        self.name = name

    def carrier(self, x) -> ChainComplex:
        return self.carriers[x]

    def apply_key(self, fkey, args) -> dict:
        args = tuple(args)
        cached = self._cache.get((fkey, args))
        if cached is None:
            cached = {k: v for k, v in self._action_fn(self, fkey, args).items()
                      if v}
            c = self.carrier(fkey[1])
            d = fkey[2] + sum(a[0] for a in args)
            for k in cached:
                if k[0] != d or not c.has_label(d, k[1]):
                    raise EngineError(f"algebra action lands off-signature: {k}")
            self._cache[(fkey, args)] = cached
        return cached

    def diff_carrier(self, x, arg) -> dict:
        d, l = arg
        c = self.carrier(x)
        col = c.d_mat(d).column(c.index(d, l))
        pd = c.pred(d)
        return {(pd, c.labels(pd)[i]): v for i, v in col.items()}

    @functools.cached_property
    def _tables(self):
        """(den, pools, elems, act, cdif) over one denominator den, in the
        arithmetic of M's `_Tables`: for the carriers' elements numbered e
        (elems[e] = (d, l), pools[x] the ids on x), act[args][f] is key id
        f on a tuple args of its inputs and cdif[e] the differential of e."""
        T = self.M._tables
        elems = [(x, d, l) for x, c in self.carriers.items()
                 for d in c.degrees() for l in c.labels(d)]
        eids = {x: {} for x in self.carriers}
        for e, (x, d, l) in enumerate(elems):
            eids[x][(d, l)] = e
        raw = [(a, f, key[1], self.apply_key(key, [elems[e][1:] for e in a]))
               for f, key in enumerate(T.keys)
               for a in itertools.product(*(eids[x].values() for x in key[0]))]
        dif = [self.diff_carrier(x, (d, l)) for x, d, l in elems]
        den = T.lcm([e[-1] for e in raw] + dif)
        act = defaultdict(dict)
        for a, f, y, lc in raw:
            act[a][f] = T.ints(lc, eids[y], den)
        return den, {x: tuple(ids.values()) for x, ids in eids.items()}, \
            [e[1:] for e in elems], act, \
            {e: T.ints(lc, eids[elems[e][0]], den) for e, lc in enumerate(dif)}

    def validate(self):
        """Exhaustive check of the unit, chain-map (Leibniz), composition and
        symmetry axioms on M's `_Tables` and the algebra's, in the oracle's
        order; returns None, or a witness naming the first failure.  A
        composite above M's arity_max is zero: its check is skipped.  An
        action off its signature raises when the tables are formed."""
        M, T = self.M, self.M._tables
        den, pools, elems, act, cdif = self._tables
        into, same = T.into, T.same

        def args(a):
            return tuple(elems[e] for e in a)

        for x in M.objects:
            u = T.ids.get(M.unit_key(x))
            for e in pools[x]:
                if not same(dict(act[(e,)].get(u, ())), {e: T.const(den)}):
                    return {"axiom": "algebra-unit", "object": x,
                            "label": elems[e][1]}
        # chain-map and composition sides at T.den * den^2, symmetry at T.den * den
        by_den = (T.const(T.den), T.const(-T.den))
        for f, key in enumerate(T.keys):
            for a in itertools.product(*(pools[x] for x in key[0])):
                rhs = into({}, T.dif[f], act[a], T.const(den))
                pre = key[2]  # (-1)^(|f| + the degrees before slot t)
                for t, e in enumerate(a):
                    into(rhs, cdif[e], {e2: act[a[:t] + (e2,) + a[t + 1:]][f]
                                        for e2, _ in cdif[e]}, by_den[pre % 2])
                    pre += elems[e][0]
                if not same(into({}, act[a][f], cdif, by_den[0]), rhs):
                    return {"axiom": "algebra-chain-map", "f": key,
                            "args": args(a)}
        for f, fk in enumerate(T.keys):
            nf = T.arity[f]
            for g in T.fits(M.arity_max + 1 - nf):
                gk = T.keys[g]
                for i in T.slots[g].get(fk[1], ()):
                    xs = gk[0][:i - 1] + fk[0] + gk[0][i:]
                    for a in itertools.product(*(pools[x] for x in xs)):
                        before, after = a[:i - 1], a[i - 1 + nf:]
                        fa = act[a[i - 1:i - 1 + nf]][f]
                        odd = fk[2] * (gk[2] + sum(elems[e][0] for e in before))
                        rhs = into({}, fa, {e: act[before + (e,) + after][g]
                                            for e, _ in fa}, by_den[odd % 2])
                        if not same(into({}, T.outer[(i, g)][f], act[a],
                                         T.const(den)), rhs):
                            return {"axiom": "algebra-composition", "f": fk,
                                    "g": gk, "i": i, "args": args(a)}
        for f, key in enumerate(T.keys):
            xs = key[0]
            for t in range(1, T.arity[f]):
                swap = xs[:t - 1] + (xs[t], xs[t - 1]) + xs[t + 1:]
                for a in itertools.product(*(pools[x] for x in swap)):
                    back = a[:t - 1] + (a[t], a[t - 1]) + a[t + 1:]
                    # the Koszul sign of swapping args t and t + 1
                    odd = elems[a[t - 1]][0] % 2 and elems[a[t]][0] % 2
                    if not same(into({}, T.sym[t][f], act[a],
                                     T.const(-1 if odd else 1)),
                                into({}, ((f, by_den[0]),), act[back])):
                        return {"axiom": "eqSymAc-algebra", "f": key, "t": t,
                                "args": args(a)}
        return None


# ---------------------------------------------------------------------------
# Multifunctors
# ---------------------------------------------------------------------------


class MultiFunctor:
    """A strict map of multicategories: object map + key-level linear maps."""

    def __init__(self, source: MultiCat, target: MultiCat, obj_map, key_fn,
                 name="pi"):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self._key_fn = key_fn
        self._cache = {}
        self.name = name

    def on_obj(self, x):
        return self.obj_map[x]

    def on_key(self, key) -> dict:
        cached = self._cache.get(key)
        if cached is None:
            cached = self._key_fn(self, key)
            want_xs = tuple(self.on_obj(x) for x in key[0])
            want_y = self.on_obj(key[1])
            hom = self.target.complex(want_xs, want_y)
            for k in cached:
                if k[0] != want_xs or k[1] != want_y or k[2] != key[2]:
                    raise EngineError(f"functor lands off-signature at {key}")
                if hom is None or not hom.has_label(k[2], k[3]):
                    raise EngineError(f"functor value at {key} names {k[3]!r}, "
                                      "no label of the target")
            self._cache[key] = cached
        return cached

    @functools.cached_property
    def _table(self):
        """(den, pi): pi[f], the value on source key id f, over den."""
        S, T = self.source._tables, self.target._tables
        lcs = [self.on_key(k) for k in S.keys]
        den = S.lcm(lcs)
        return den, {f: S.ints(lc, T.ids, den) for f, lc in enumerate(lcs)}

    def validate(self):
        """Exhaustive check of the unit, chain-map, symmetry and composition
        axioms on the `_Tables` of source and target and pi's `_table`, in
        the oracle's order; returns None, or a witness naming the first
        failure.  Every composite f o_i g of source keys is checked, also one
        above the source's arity_max (zero).  A value off its signature
        raises when the tables are formed."""
        src, tgt = self.source, self.target
        S, T = src._tables, tgt._tables
        den, pi = self._table
        into, same, const = S.into, S.same, S.const
        for x in src.objects:
            want = {T.ids.get(tgt.unit_key(self.on_obj(x))): const(den)}
            if not same(dict(pi.get(S.ids.get(src.unit_key(x)), ())), want):
                return {"axiom": "functor-unit", "object": x}
        # each check brings its two sides to the scale S.den * den * T.den
        for f, key in enumerate(S.keys):
            if not same(into({}, S.dif[f], pi, const(T.den)),
                        into({}, pi[f], T.dif, const(S.den))):
                return {"axiom": "functor-chain-map", "f": key}
            for t in range(1, S.arity[f]):
                if not same(into({}, S.sym[t][f], pi, const(T.den)),
                            into({}, pi[f], T.sym[t], const(S.den))):
                    return {"axiom": "functor-symmetry", "f": key, "t": t}
        for f, fk in enumerate(S.keys):
            for g, gk in enumerate(S.keys):
                for i in S.slots[g].get(fk[1], ()):
                    rhs = {}  # at the scale S.den * den * den * T.den
                    for g2, c in pi[g]:
                        into(rhs, pi[f], T.outer.get((i, g2), {}), c * S.den)
                    if not same(into({}, S.outer.get((i, g), {}).get(f, ()),
                                     pi, const(den * T.den)), rhs):
                        return {"axiom": "functor-composition", "f": fk,
                                "g": gk, "i": i}
        return None


# ---------------------------------------------------------------------------
# dg categories and dg functors: views of 1-ary multicategories
# ---------------------------------------------------------------------------


def _multi_key(key):
    a, b, d, l = key
    return (a,), b, d, l


def _dg_key(key):
    (a,), b, d, l = key
    return a, b, d, l


def _flip(key):
    a, b, d, l = key
    return b, a, d, l


def _relabel(key_fn, lc) -> dict:
    return {key_fn(k): v for k, v in lc.items()}


def _one_ary(M, i, fkey):
    raise AssertionError("1-ary only")


class DgCategory:
    """A dg category read from the 1-ary multicategory `M` (module docstring).

    compose_fn(C, ukey, vkey) gives "u then v" in (a, b, d, l) keys.
    """

    ring = property(lambda self: self.M.ring)
    objects = property(lambda self: self.M.objects)
    units = property(lambda self: self.M.units)
    name = property(lambda self: self.M.name)

    def __init__(self, ring, objects, homs, compose_fn, units, name="C"):
        self._compose_fn = compose_fn
        self.M = MultiCat(
            ring, objects, 1, {((a,), b): c for (a, b), c in homs.items()},
            lambda M, f, i, g: _relabel(
                _multi_key, compose_fn(self, _dg_key(f), _dg_key(g))),
            _one_ary, units, name)
        self._op = None

    @property
    def homs(self):
        return {(xs[0], y): c for (xs, y), c in self.M.complexes.items()}

    def hom(self, a, b) -> ChainComplex | None:
        return self.M.complex((a,), b)

    def basis_keys(self, a, b):
        return [_dg_key(k) for k in self.M.basis_keys((a,), b)]

    def all_keys(self):
        return [k for ab in sorted(self.homs, key=repr)
                for k in self.basis_keys(*ab)]

    def unit_key(self, a):
        return (a, a, 0, self.units[a])

    def diff_key(self, key) -> dict:
        """d of a basis morphism."""
        return _relabel(_dg_key, self.M.diff_key(_multi_key(key)))

    def compose_keys(self, ukey, vkey) -> dict:
        """u then v, for u: a -> b and v: b -> c."""
        return _relabel(_dg_key, self.M.compose_keys(
            _multi_key(ukey), 1, _multi_key(vkey)))

    def compose(self, u: dict, v: dict) -> dict:
        return bilinear(self.ring, self.compose_keys, u, v)

    def op(self) -> "DgCategory":
        """C^op, built once: the same hom complexes and units, keys
        (a, b, d, l) -> (b, a, d, l), and "x then y" is (-1)^{|x||y|} times
        "y then x" in C.  C.op().op() is C."""
        if self._op is None:
            def compose_fn(_, x, y):
                neg = x[2] % 2 and y[2] % 2
                return {_flip(k): self.ring.neg(v) if neg else v for k, v in
                        self.compose_keys(_flip(y), _flip(x)).items()}

            self._op = DgCategory(
                self.ring, self.objects,
                {(b, a): c for (a, b), c in self.homs.items()}, compose_fn,
                self.units, name=f"{self.name}^op")
            self._op._op = self
        return self._op

    def validate(self):
        return self.M.validate()

    def __repr__(self):
        return f"DgCategory({self.name}, {len(self.objects)} objects)"


class DgFunctor:
    """A dg functor read from the MultiFunctor `F` between the `.M`s of its
    source and target; key_fn(F, key) gives its value in (a, b, d, l) keys."""

    name = property(lambda self: self.F.name)

    def __init__(self, source: DgCategory, target: DgCategory, obj_map, key_fn,
                 name="F"):
        self.source = source
        self.target = target
        self.F = MultiFunctor(
            source.M, target.M, obj_map,
            lambda F, k: _relabel(_multi_key, key_fn(self, _dg_key(k))), name)

    def on_obj(self, a):
        return self.F.on_obj(a)

    def on_key(self, key) -> dict:
        return _relabel(_dg_key, self.F.on_key(_multi_key(key)))

    def on_lc(self, lc: dict) -> dict:
        return linear(self.source.ring, self.on_key, lc)

    def validate(self):
        return self.F.validate()

    @staticmethod
    def identity(C: DgCategory) -> "DgFunctor":
        return DgFunctor(C, C, {a: a for a in C.objects},
                         lambda F, k: {k: C.ring.one}, name="id")

    def compose_with(self, other: "DgFunctor") -> "DgFunctor":
        """self after other."""
        if other.target is not self.source:
            raise EngineError("functor composition mismatch")
        return DgFunctor(
            other.source, self.target,
            {a: self.on_obj(other.on_obj(a)) for a in other.source.objects},
            lambda F, k: self.on_lc(other.on_key(k)),
            name=f"{self.name}o{other.name}",
        )


# ---------------------------------------------------------------------------
# The endomorphism multicategory (authoritative generator of valid fixtures)
# ---------------------------------------------------------------------------


def _hom_basis(sources, target):
    """Elementary maps: one basis tuple of the sources to one target label."""
    pools = []
    for c in sources:
        pools.append([(d, l) for d in c.degrees() for l in c.labels(d)])
    out = []
    for args in itertools.product(*pools):
        for od in target.degrees():
            for ol in target.labels(od):
                deg = od - sum(d for d, _ in args)
                out.append((deg, ("h", tuple(args), (od, ol))))
    return out


def endomorphism_multicat(ring, carriers: dict, arity_max: int, name="End"):
    """The endomorphism multicategory of a family of complexes, with a formal
    unit adjoined per object; returns (M, tautological MultiAlgebra).

    M(xs; y) has basis the elementary maps (args -> out) in
    Hom(C_{x_1} (x) ... (x) C_{x_n}, C_y); composition is composition of
    multilinear maps with Koszul signs, transpositions act by permuting the
    arguments.
    """
    objects = sorted(carriers, key=repr)
    complexes = {}
    for n in range(1, arity_max + 1):
        for xs in itertools.product(objects, repeat=n):
            for y in objects:
                basis = {}
                for deg, label in _hom_basis([carriers[x] for x in xs],
                                             carriers[y]):
                    basis.setdefault(deg, []).append(label)
                if n == 1 and xs[0] == y:
                    basis.setdefault(0, []).insert(0, ("u",))
                sources = [carriers[x] for x in xs]
                complexes[(xs, y)] = ChainComplex.from_labels(
                    ring, basis, lambda label: _hom_boundary(
                        ring, sources, carriers[y], label))

    def compose_fn(M, fkey, i, gkey):
        return _endo_compose(ring, fkey, i, gkey)

    def sym_fn(M, i, fkey):
        return _endo_transpose(ring, i, fkey)

    units = {x: ("u",) for x in objects}
    M = MultiCat(ring, objects, arity_max, complexes, compose_fn, sym_fn, units,
                 name=name)

    def action_fn(alg, fkey, args):
        label = fkey[3]
        if label == ("u",):
            return {args[0]: ring.one}
        _, fargs, out = label
        if tuple(args) == fargs:
            return {out: ring.one}
        return {}

    A = MultiAlgebra(M, carriers, action_fn, name=f"taut({name})")
    return M, A


def _hom_boundary(ring, sources, target, label) -> dict:
    """d F = d_target o F - (-1)^{|F|} F o d_tensor of an elementary map F."""
    out = {}
    if label == ("u",):
        return out
    _, args, (od, ol) = label
    for i2, v in target.d_mat(od).column(target.index(od, ol)).items():
        add_into(ring, out, ("h", args, (od - 1, target.labels(od - 1)[i2])), v)
    # F o d_tensor only sees tuples whose differential hits `args`: raise one
    # slot of args
    sgn_f = -1 if (od - sum(ad for ad, _ in args)) % 2 else 1
    pre = 0
    for t, (ad, al) in enumerate(args):
        src = sources[t]
        up, row = src.succ(ad), src.index(ad, al)
        dm = src.d_mat(up)
        for jj, lab in enumerate(src.labels(up)):
            coeff = dm.get(row, jj)
            if ring.is_zero(coeff):
                continue
            s = sgn_f * (-1 if pre % 2 else 1)
            add_into(ring, out, ("h", args[:t] + ((up, lab),) + args[t + 1:],
                                 (od, ol)), ring.mul(ring.from_int(-s), coeff))
        pre += ad
    return out


def _endo_compose(ring, fkey, i, gkey):
    # the composition map in the tensor order (f, g) carries the Koszul factor
    # (-1)^{|f||g|} relative to plain function composition g o (1 x f x 1)
    fl, gl = fkey[3], gkey[3]
    if fl == ("u",):
        return {gkey: ring.one}
    if gl == ("u",):
        return {fkey: ring.one}
    _, fargs, fout = fl
    _, gargs, gout = gl
    if gargs[i - 1] != fout:
        return {}
    pre_deg = sum(d for d, _ in gargs[:i - 1])
    exp = fkey[2] * gkey[2] + fkey[2] * pre_deg
    sign = -1 if exp % 2 else 1
    new_args = gargs[:i - 1] + fargs + gargs[i:]
    xs = gkey[0][:i - 1] + fkey[0] + gkey[0][i:]
    key = (xs, gkey[1], fkey[2] + gkey[2], ("h", new_args, gout))
    return {key: ring.from_int(sign)}


def _endo_transpose(ring, i, fkey):
    xs, y, d, label = fkey
    _, args, out = label
    sign = -1 if (args[i - 1][0] % 2 and args[i][0] % 2) else 1
    new_args = args[:i - 1] + (args[i], args[i - 1]) + args[i + 1:]
    new_xs = xs[:i - 1] + (xs[i], xs[i - 1]) + xs[i + 1:]
    return {(new_xs, y, d, ("h", new_args, out)): ring.from_int(sign)}


# ---------------------------------------------------------------------------
# The PROP category
# ---------------------------------------------------------------------------


def _surjections(n, m):
    if m > n:
        return
    for f in itertools.product(range(1, m + 1), repeat=n):
        if len(set(f)) == m:
            yield f


class PropData:
    """The PROP category of a multicategory, plus its permutation morphisms."""

    def __init__(self, M, cat, seq_len_max, identity_flags):
        self.M = M
        self.cat = cat
        self.seq_len_max = seq_len_max
        self.identity_flags = identity_flags


def aut_group(xs) -> list:
    """Aut(xs), the stabilizer of an object sequence: every permutation p
    of 1..n with xs[p(i)] = xs[i] for all i, as a Perm."""
    xs = tuple(xs)
    return [Perm(p) for p in itertools.permutations(range(1, len(xs) + 1))
            if tuple(xs[i - 1] for i in p) == xs]


def prop_of(M: MultiCat, seq_len_max: int) -> PropData:
    """May's PROP category on nondecreasing object sequences.

    Morphism complexes are direct sums over surjections f: [n] -> [m] of
    tensor products of multimorphism complexes; composition composes fiberwise
    and then applies the unique block shuffle aligning the domains, with
    Koszul signs throughout.
    """
    ring = M.ring
    order = {x: i for i, x in enumerate(M.objects)}
    seqs = [tuple(sorted(xs, key=lambda x: order[x]))
            for n in range(1, seq_len_max + 1)
            for xs in itertools.combinations_with_replacement(M.objects, n)]
    homs = {}
    for a in seqs:
        for b in seqs:
            basis = {}
            for f in _surjections(len(a), len(b)):
                pools = [M.basis_keys(tuple(a[t] for t in range(len(a))
                                            if f[t] == j + 1), y)
                         for j, y in enumerate(b)]
                for combo in itertools.product(*pools):
                    deg = sum(k[2] for k in combo)
                    basis.setdefault(deg, []).append(("s", f, combo))
            if basis:
                homs[(a, b)] = ChainComplex.from_labels(
                    ring, basis, lambda label: _prop_boundary(ring, M, label))

    def compose_fn(C, ukey, vkey):
        return _prop_compose(ring, M, C, ukey, vkey)

    units = {a: ("s", tuple(range(1, len(a) + 1)),
                 tuple(M.unit_key(x) for x in a)) for a in seqs}
    cat = DgCategory(ring, seqs, homs, compose_fn, units, name=f"P({M.name})")
    return PropData(M, cat, seq_len_max,
                    {a: _identity_flag(M, cat, a) for a in seqs})


def _prop_boundary(ring, M, label) -> dict:
    """d of a PROP basis label ("s", f, combo), by the Leibniz rule over the
    tensor factors."""
    _, f, combo = label
    out = {}
    pre = 0
    for t, key in enumerate(combo):
        s = -1 if pre % 2 else 1
        for k2, v in M.diff_key(key).items():
            add_into(ring, out, ("s", f, combo[:t] + (k2,) + combo[t + 1:]),
                     ring.mul(ring.from_int(s), v))
        pre += key[2]
    return out


def _prop_compose(ring, M, C, ukey, vkey):
    a, b = ukey[0], ukey[1]
    c = vkey[1]
    _, f, phis = ukey[3]
    _, g, psis = vkey[3]
    m, p = len(b), len(c)
    # Koszul: rearrange (phi_1..phi_m, psi_1..psi_p) into
    # (phis of g^{-1}(1), psi_1, phis of g^{-1}(2), psi_2, ...)
    degs = [k[2] for k in phis] + [k[2] for k in psis]
    fibers_g = [[t + 1 for t in range(m) if g[t] == k + 1] for k in range(p)]
    order = [o for k in range(p) for o in fibers_g[k] + [m + k + 1]]
    acc = {(): ring.from_int(koszul_sign(Perm(order), degs))}
    for k in range(p):
        fib = fibers_g[k]
        gam = M.gamma(psis[k], [phis[t - 1] for t in fib])
        # aligning shuffle: concatenated f-fibers vs sorted union
        concat = [s + 1 for t in fib for s in range(len(a)) if f[s] == t]
        rank = {v: i + 1 for i, v in enumerate(sorted(concat))}
        gam = M.act(Perm([rank[v] for v in concat]).inverse(), gam)
        # expand the tensor of the chi parts multilinearly
        acc = {combo + (kk,): ring.mul(cval, vv)
               for combo, cval in acc.items() for kk, vv in gam.items()}
    gf = tuple(g[f[s] - 1] for s in range(len(a)))
    out = {}
    target = C.hom(a, c)
    for combo, cval in acc.items():
        if ring.is_zero(cval):
            continue
        deg = sum(k[2] for k in combo)
        label = ("s", gf, combo)
        if target is None or not target.has_label(deg, label):
            raise EngineError(f"composite label missing: {label}")
        add_into(ring, out, (a, c, deg, label), cval)
    return out


def _identity_flag(M, cat, a) -> bool:
    """Does P(a, a) equal the group ring of Aut(a) on permutation morphisms?"""
    auts, hom = aut_group(a), cat.hom(a, a)
    units = tuple(M.unit_key(x) for x in a)
    return hom is not None and hom.degrees() == [0] and \
        hom.dim(0) == len(auts) and \
        all(hom.has_label(0, ("s", g.images, units)) for g in auts)


def perm_morphism(P: PropData, seq, perm: Perm):
    units = tuple(P.M.unit_key(x) for x in seq)
    return (tuple(seq), tuple(seq), 0, ("s", perm.images, units))


# ---------------------------------------------------------------------------
# Freeness report
# ---------------------------------------------------------------------------


class FreenessReport:
    def __init__(self, identity, freeness1, freeness2, details):
        self.identity = identity
        self.freeness1 = freeness1
        self.freeness2 = freeness2
        self.details = details

    def __repr__(self):
        return (f"FreenessReport(identity={self.identity}, "
                f"freeness1={self.freeness1}, freeness2={self.freeness2})")


def check_freeness(M: MultiCat, pi: MultiFunctor) -> FreenessReport:
    """The three conditions of the freeness hypothesis, within bounds: the
    prop of M on sequences of length at most 2.

    pi maps M to a one-object multicategory O; Freeness 2 concerns the right
    symmetric-group action on O(n) for n <= O.arity_max.
    """
    O = pi.target
    if len(O.objects) != 1:
        raise EngineError("the target of pi must have one object")
    prop = prop_of(M, 2)
    f1 = {}
    for a in prop.cat.objects:
        gens = _group_gens(aut_group(a))
        for b in prop.cat.objects:
            hom = prop.cat.hom(a, b)
            if hom is not None:
                f1[f"{a}->{b}"] = _is_free(
                    len(a), gens, hom,
                    lambda j, d, l, a=a, b=b, gens=gens: prop.cat.compose_keys(
                        perm_morphism(prop, a, gens[j]), (a, b, d, l)))
    f2 = {}
    star = O.objects[0]
    for n in range(1, O.arity_max + 1):
        xs = (star,) * n
        hom = O.complex(xs, star)
        # the zero complex and O(1) are free
        f2[n] = hom is None or n == 1 or _is_free(
            n, [Perm.transposition(n, i, i + 1) for i in range(1, n)], hom,
            lambda j, d, l, xs=xs: O.act_transposition(j + 1, (xs, star, d, l)))
    details = {"identity": {repr(k): v for k, v in prop.identity_flags.items()},
               "freeness1": f1, "freeness2": f2}
    return FreenessReport(all(prop.identity_flags.values()), all(f1.values()),
                          all(f2.values()), details)


def _is_free(n, gens, hom, act) -> bool:
    """Whether hom is a free right module over the subgroup of S_n that
    gens generate, gens[j] taking the label l of degree d to the lc
    act(j, d, l) of keys (..., label)."""
    maps = [ChainMap.from_label_fn2(
        hom, hom, 0, lambda d, l, j=j: [(k[3], v) for k, v in act(j, d, l).items()],
        validate=False) for j in range(len(gens))]
    return bool(is_free_module(GroupRingModule("right", n, gens, hom, maps)))


def _group_gens(elements):
    """A small generating set for an explicitly listed permutation group."""
    elements = sorted(elements, key=lambda p: p.images)
    n = elements[0].n
    gens = []
    have = {Perm.identity(n)}
    for g in elements:
        if g in have:
            continue
        gens.append(g)
        have = set(enumerate_group(gens, n))
        if len(have) == len(elements):
            break
    return gens
