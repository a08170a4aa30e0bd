"""The table validators against exhaustive Ring-arithmetic oracles.

`MultiCat.validate` checks on int tables: each composite, transposition and
differential read once, and every check in int arithmetic, with the checks
whose composite overflows arity_max skipped.  `_validate_unpruned` is the
exhaustive validator over Ring arithmetic: every unit, Leibniz,
associativity and equivariance check over all keys, with act(sigma, .) read
through `MultiCat.act`.  `MultiAlgebra.validate` and `MultiFunctor.validate`
check on the same tables, plus the algebra's action and carrier
differential and the functor's values; their oracles are
`algebra_validate_oracle` and `functor_validate_oracle` in genutil.  On
valid, planted and tampered structures over Z, Q, F_3 and two Novikov
rings, each validator must return its oracle's witness.
"""

import random
from fractions import Fraction

import pytest

from opbar.coeff import Ring
from opbar.complexes import ChainComplex, ChainMap
from opbar.errors import EngineError
from opbar.fixtures import (
    as_operad,
    bv_operad,
    planted_asymmetric,
    planted_nonassociative,
    projection_to_operad,
    projection_to_unit,
    sym_assoc_operad,
    two_object_kappa,
)
from opbar.lincomb import combine, eq as lc_eq, linear, scaled_int
from opbar.linalg import Mat
from opbar.multicat import MultiAlgebra, MultiCat, MultiFunctor, \
    endomorphism_multicat
from opbar.symgrp import Perm, block_perm

from .genutil import algebra_validate_oracle, arg_tuples, \
    functor_validate_oracle, slots

Z = Ring.Z()
Q = Ring.Q()
F3 = Ring.Fp(3)
NOV_Q = Ring.novikov(Q, 2, 2)
NOV_F3 = Ring.novikov(F3, 1, 3)


def _validate_unpruned(M):
    ring = M.ring
    one = ring.one
    keys = M.all_keys()
    for x in M.objects:
        uk = M.unit_key(x)
        c = M.complex((x,), x)
        if c is None or not c.has_label(0, uk[3]):
            return {"axiom": "unit-missing", "object": x}
        if M.diff_key(uk):
            return {"axiom": "unit-not-closed", "object": x}
    for g in keys:
        for i in range(1, M.arity(g) + 1):
            u = M.unit_key(g[0][i - 1])
            if not lc_eq(ring, M.compose_keys(u, i, g), {g: one}):
                return {"axiom": "eqMultComp3", "side": "unit-into", "g": g,
                        "i": i}
        u = M.unit_key(g[1])
        if not lc_eq(ring, M.compose_keys(g, 1, u), {g: one}):
            return {"axiom": "eqMultComp3", "side": "into-unit", "g": g}
    for f in keys:
        for g in keys:
            for i in slots(M, f, g):
                lhs = linear(ring, M.diff_key, M.compose_keys(f, i, g))
                rhs = combine(
                    ring, M.compose(M.diff_key(f), i, {g: one}),
                    scaled_int(ring, M.compose({f: one}, i, M.diff_key(g)),
                               -1 if M.key_degree(f) % 2 else 1))
                if not lc_eq(ring, lhs, rhs):
                    return {"axiom": "leibniz", "f": f, "g": g, "i": i}
    w = _assoc_unpruned(M, keys)
    return w if w is not None else _equivariance_unpruned(M, keys)


def _assoc_unpruned(M, keys):
    ring = M.ring
    one = ring.one
    for h in keys:
        for g in keys:
            for j in slots(M, g, h):
                inner = M.compose_keys(g, j, h)
                for f in keys:
                    for i in slots(M, f, g):
                        lhs = M.compose(M.compose_keys(f, i, g), j, {h: one})
                        rhs = M.compose({f: one}, i + j - 1, inner)
                        if not lc_eq(ring, lhs, rhs):
                            return {"axiom": "eqMultComp1", "f": f, "g": g,
                                    "h": h, "i": i, "j": j}
                    for i1 in slots(M, f, h):
                        if i1 >= j:
                            continue
                        lhs = M.compose({f: one}, i1, inner)
                        rhs = M.compose({g: one}, j + M.arity(f) - 1,
                                        M.compose_keys(f, i1, h))
                        sign = -1 if (M.key_degree(f) % 2
                                      and M.key_degree(g) % 2) else 1
                        if not lc_eq(ring, lhs, scaled_int(ring, rhs, sign)):
                            return {"axiom": "eqMultComp2", "f": f, "g": g,
                                    "h": h, "i1": i1, "i2": j}
    return None


def _equivariance_unpruned(M, keys):
    ring = M.ring
    one = ring.one
    for f in keys:
        n = M.arity(f)
        for i in range(1, n):
            tf = M.act_transposition(i, f)
            rhs = linear(ring, lambda k, t=i: M.act_transposition(t, k),
                         M.diff_key(f))
            if not lc_eq(ring, linear(ring, M.diff_key, tf), rhs):
                return {"axiom": "sym-chain-map", "f": f, "i": i}
            back = linear(ring, lambda k, t=i: M.act_transposition(t, k), tf)
            if not lc_eq(ring, back, {f: one}):
                return {"axiom": "sym-involution", "f": f, "i": i}
        for i in range(1, n - 1):
            if not lc_eq(ring, _act_word(M, (i, i + 1, i), f),
                         _act_word(M, (i + 1, i, i + 1), f)):
                return {"axiom": "sym-braid", "f": f, "i": i}
        for i in range(1, n):
            for j in range(i + 2, n):
                if not lc_eq(ring, _act_word(M, (i, j), f),
                             _act_word(M, (j, i), f)):
                    return {"axiom": "sym-commute", "f": f, "i": i, "j": j}
    for f in keys:
        nf = M.arity(f)
        for g in keys:
            for i in slots(M, f, g):
                base = M.compose_keys(f, i, g)
                for t in range(1, nf):
                    sigma = Perm.transposition(nf, t, t + 1)
                    lhs = M.compose(M.act(sigma, f), i, {g: one})
                    rhs = M.act(_embed_at(sigma, i, M.arity(g)), base)
                    if not lc_eq(ring, lhs, rhs):
                        return {"axiom": "eqSymAc2", "f": f, "g": g,
                                "i": i, "t": t}
    for g in keys:
        ng = M.arity(g)
        for t in range(1, ng):
            sigma = Perm.transposition(ng, t, t + 1)
            ag = M.act(sigma, g)
            for f in keys:
                for i in slots(M, f, g):
                    base = M.compose_keys(f, i, g)
                    lhs = M.compose({f: one}, sigma.inverse()(i), ag)
                    sizes = [1] * ng
                    sizes[i - 1] = M.arity(f)
                    rhs = M.act(block_perm(sizes, sigma).inverse(), base)
                    if not lc_eq(ring, lhs, rhs):
                        return {"axiom": "eqSymAc1", "f": f, "g": g,
                                "i": i, "t": t}
    return None


def _act_word(M, word, f):
    """The transpositions of word acting on f in list order."""
    acc = {f: M.ring.one}
    for t in word:
        acc = linear(M.ring, lambda k, t=t: M.act_transposition(t, k), acc)
    return acc


def _embed_at(sigma: Perm, i, outer_arity):
    """zeta_i: sigma acting on the length-|sigma| block starting at slot i."""
    k = sigma.n
    n = outer_arity + k - 1
    img = []
    for t in range(1, n + 1):
        if i <= t <= i + k - 1:
            img.append(i - 1 + sigma(t - i + 1))
        else:
            img.append(t)
    return Perm(img)


def _composite_arity(M, w):
    """Arity of the composite a witness names: f into g (into h)."""
    arity = M.arity(w["f"]) + M.arity(w["g"]) - 1
    return arity + M.arity(w["h"]) - 1 if "h" in w else arity


def planted_boundary(ring):
    """sym_assoc up to arity 3 with one wrong composite of arity exactly 3:
    w(1,2) into slot 2 of w(2,1) gives w(1,3,2) instead of w(2,3,1)."""
    base = sym_assoc_operad(ring, 3)

    def compose_fn(M, fkey, i, gkey):
        out = base._compose_fn(M, fkey, i, gkey)
        if fkey[3] == ("w", (1, 2)) and i == 2 and gkey[3] == ("w", (2, 1)):
            ((key, c),) = out.items()
            out = {key[:3] + (("w", tuple(reversed(key[3][1]))),): c}
        return out

    return MultiCat(ring, ["*"], 3, dict(base.complexes), compose_fn,
                    base._sym_fn, dict(base.units), name="sym_boundary")


@pytest.mark.parametrize("build", [
    lambda: planted_nonassociative(Z),
    lambda: planted_asymmetric(Z),
    lambda: planted_boundary(Z),
])
def test_planted_witnesses_match_unpruned_oracle(build):
    w = build().validate()
    assert w is not None
    assert w == _validate_unpruned(build())


@pytest.mark.parametrize("build,axiom", [
    (lambda: planted_boundary(Z), "eqSymAc2"),  # a pair f o_i g
    (lambda: planted_nonassociative(Z), "eqMultComp1"),  # a triple
])
def test_composite_of_arity_max_is_still_checked(build, axiom):
    M = build()
    w = M.validate()
    assert w is not None and w["axiom"] == axiom
    assert _composite_arity(M, w) == M.arity_max


@pytest.mark.parametrize("build", [
    lambda: as_operad(Z, 3),
    lambda: sym_assoc_operad(Q, 3),
    lambda: bv_operad(Q, 2)[0],
])
def test_valid_operads_pass_both(build):
    assert build().validate() is None
    assert _validate_unpruned(build()) is None


def _counted(monkeypatch, owner, attr):
    calls = []
    orig = getattr(owner, attr)

    def counting(self, *args):
        calls.append(args)
        return orig(self, *args)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_bv_validate_compose_keys_count(monkeypatch):
    # one call per (f, i, g) whose composite has arity <= 3: the 593 entries
    # that the Ring-arithmetic loops left in _compose_cache on this operad
    M = bv_operad(Q, 3)[0]
    calls = _counted(monkeypatch, MultiCat, "compose_keys")
    assert M.validate() is None
    assert len(calls) == len(set(calls)) == len(M._compose_cache) == 593


def test_bv_validate_reads_each_transposition_once(monkeypatch):
    M = bv_operad(Q, 3)[0]
    calls = _counted(monkeypatch, MultiCat, "act_transposition")
    acts = _counted(monkeypatch, MultiCat, "act")
    assert M.validate() is None
    assert len(calls) == len(set(calls)) == 40
    assert {(t, k) for t, k in calls} == {
        (t, k) for k in M.all_keys() for t in range(1, M.arity(k))}
    assert acts == []


def _arithmetic_calls(monkeypatch):
    """Counters of the Ring.mul/add/eq/neg and Fraction arithmetic calls."""
    return [_counted(monkeypatch, Ring, attr)
            for attr in ("mul", "add", "eq", "neg")] + \
        [_counted(monkeypatch, Fraction, attr)
         for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__eq__")]


def test_bv_validate_checks_make_no_ring_or_fraction_arithmetic(monkeypatch):
    M, A, _ = bv_operad(Q, 3)
    calls = _arithmetic_calls(monkeypatch)
    assert M.validate() is None
    assert [len(c) for c in calls] == [0] * 9
    assert A.validate() is None  # the tautological algebra
    assert [len(c) for c in calls] == [0] * 9


def _kan_fixture(name):
    """(A, pi) of the kan benchmark's inputs: the two-object model with
    rank-one carriers over symAs (Z) and As (Q), with degree-1 carriers
    over As (Z), and over the unit operad (Z)."""
    ring = Q if name == "as_q" else Z
    if name == "odd":
        c0, c1 = ChainComplex.single(Z, "c0", 1), ChainComplex.single(Z, "c1", 1)
        kappa = ChainMap.from_label_fn(c0, c1, 0, lambda l: [("c1", 1)])
        M, A, _ = two_object_kappa(Z, c0, c1, kappa)
    else:
        M, A, _ = two_object_kappa(ring)
    if name == "unit":
        return A, projection_to_unit(M)
    O = sym_assoc_operad(Z, 3) if name == "symas_z" else as_operad(ring, 3)
    return A, projection_to_operad(M, O)


@pytest.mark.parametrize("name", ["symas_z", "as_q", "odd", "unit"])
def test_kan_inputs_validate_with_no_ring_or_fraction_arithmetic(name,
                                                                 monkeypatch):
    A, pi = _kan_fixture(name)
    calls = _arithmetic_calls(monkeypatch)
    assert A.validate() is None and pi.validate() is None
    assert [len(c) for c in calls] == [0] * 9


def test_bv_operad_of_arity_4_is_valid():
    M = bv_operad(Q, 4)[0]
    assert len(M.all_keys()) == 61
    assert M.validate() is None


@pytest.mark.parametrize("build", [
    lambda: as_operad(NOV_Q, 3),
    lambda: sym_assoc_operad(NOV_F3, 3),
    lambda: bv_operad(NOV_Q, 2)[0],
    lambda: rescaled_sym_assoc(NOV_Q, 4),
    lambda: _endo(NOV_F3, _coeff(NOV_F3))[0],
], ids=["as_nov_q", "sym_assoc_nov_f3", "bv_nov_q", "sym_assoc_rescaled_nov_q",
        "endo_nov_f3"])
def test_valid_novikov_structures_pass(build):
    assert build().validate() is None
    assert _validate_unpruned(build()) is None


@pytest.mark.parametrize("build,axiom", [
    (lambda: planted_nonassociative(NOV_Q), "eqMultComp1"),
    (lambda: planted_asymmetric(NOV_F3), "sym-involution"),
    (lambda: _shifted_as(NOV_Q), "eqSymAc1"),
], ids=["nonassociative", "asymmetric", "shifted"])
def test_tampered_novikov_structures_are_witnessed(build, axiom):
    w = build().validate()
    assert w is not None and w["axiom"] == axiom
    assert w == _validate_unpruned(build())


def _shifted_as(ring):
    """As up to arity 3 with mu2 o_1 mu2 = T^(1/q) mu3, a composite whose
    one coefficient lies on slice 1."""
    base = as_operad(ring, 3)

    def compose_fn(M, fkey, i, gkey):
        out = base._compose_fn(M, fkey, i, gkey)
        if (fkey[3], i, gkey[3]) == ("mu2", 1, "mu2"):
            out = {k: ring.mul(_shift(ring), v) for k, v in out.items()}
        return out

    return MultiCat(ring, ["*"], 3, dict(base.complexes), compose_fn,
                    base._sym_fn, dict(base.units), name="as_shifted")


# -- coefficients other than +-1 ------------------------------------------------


def rescaled_as_operad(ring, scales):
    """As with the basis e_n = c_n mu_n, c_n = scales[n - 1] (c_1 = 1):
    e_k o_i e_m = (c_k c_m / c_{k+m-1}) e_{k+m-1}."""
    base = as_operad(ring, len(scales))
    c = [None] + [ring.divide(ring.from_int(Fraction(x).numerator),
                              ring.from_int(Fraction(x).denominator))
                  for x in scales]

    def compose_fn(M, fkey, i, gkey):
        ((key, _),) = base._compose_fn(M, fkey, i, gkey).items()
        k, m, n = len(fkey[0]), len(gkey[0]), len(key[0])
        return {key: ring.divide(ring.mul(c[k], c[m]), c[n])}

    return MultiCat(ring, ["*"], len(scales), dict(base.complexes),
                    compose_fn, base._sym_fn, dict(base.units),
                    name="as_rescaled")


# over Q the composites carry 1/3 (e_2 o e_2) and 2 (e_2 o e_3, e_3 o e_2);
# over F_3 they carry 2 and 1
AS_Q = (1, 1, 3, Fraction(3, 2))
AS_F3 = (1, 2, 2, 1)


def rescaled_sym_assoc(ring, seed):
    """sym_assoc over the basis c_w w, for seeded c_w (1 on the unit): the
    composites and transpositions carry c_f c_g / c_fg and c_f / c_tf."""
    base = sym_assoc_operad(ring, 3)
    rng = random.Random(seed)
    if ring.is_novikov:  # units: valuation 0
        t = _shift(ring)
        pool = [ring.from_int(2), ring.add(ring.one, t), ring.sub(t, ring.one)]
    elif ring.kind == "Fp":
        pool = [ring.from_int(n) for n in (1, 2, -1, -2)]
    else:
        pool = [Fraction(n, d) for n in (1, 2, -3) for d in (1, 2, 3)]
    c = {k: ring.one if len(k[0]) == 1 else rng.choice(pool)
         for k in base.all_keys()}

    def rebase(lc, scale):
        return {k: ring.divide(ring.mul(scale, v), c[k]) for k, v in lc.items()}

    return MultiCat(
        ring, ["*"], 3, dict(base.complexes),
        lambda M, f, i, g: rebase(base._compose_fn(M, f, i, g),
                                  ring.mul(c[f], c[g])),
        lambda M, t, f: rebase(base._sym_fn(M, t, f), c[f]),
        dict(base.units), name="sym_rescaled")


@pytest.mark.parametrize("build", [
    lambda: rescaled_as_operad(Q, AS_Q),
    lambda: rescaled_as_operad(F3, AS_F3),
    lambda: rescaled_sym_assoc(Q, 1),
    lambda: rescaled_sym_assoc(F3, 2),
], ids=["as_q", "as_f3", "sym_assoc_q", "sym_assoc_f3"])
def test_rescaled_operads_are_valid(build):
    assert build().validate() is None
    assert _validate_unpruned(build()) is None


def test_rescaled_as_composites_carry_the_scales():
    M = rescaled_as_operad(Q, AS_Q)
    mu = {len(k[0]): k for k in M.all_keys()}
    assert M.compose_keys(mu[2], 1, mu[2]) == {mu[3]: Fraction(1, 3)}
    assert M.compose_keys(mu[2], 2, mu[3]) == {mu[4]: 2}
    M = rescaled_as_operad(F3, AS_F3)
    mu = {len(k[0]): k for k in M.all_keys()}
    assert M.compose_keys(mu[2], 1, mu[2]) == {mu[3]: 2}


# -- planted failures -------------------------------------------------------------


def planted_parallel(ring):
    """The BV operad with the composite f o_i g negated when f is odd and i
    even: sequential associativity holds, parallel composition does not."""
    base = bv_operad(ring, 3)[0]

    def compose_fn(M, fkey, i, gkey):
        out = base._compose_fn(M, fkey, i, gkey)
        if fkey[2] % 2 and i % 2 == 0 and "u" not in (fkey[3][0], gkey[3][0]):
            out = {k: ring.neg(v) for k, v in out.items()}
        return out

    return MultiCat(ring, base.objects, 3, dict(base.complexes), compose_fn,
                    base._sym_fn, dict(base.units), name="bv_parallel")


def planted_braid(ring):
    """As up to arity 3 where t_1 fixes mu3 and t_2 negates it: both are
    involutions, but t_1 t_2 t_1 = -mu3 and t_2 t_1 t_2 = mu3."""
    base = as_operad(ring, 3)

    def sym_fn(M, t, fkey):
        if len(fkey[0]) == 3 and t == 2:
            return {fkey: ring.from_int(-1)}
        return {fkey: ring.one}

    return MultiCat(ring, ["*"], 3, dict(base.complexes), base._compose_fn,
                    sym_fn, dict(base.units), name="as_braid")


def planted_commute(ring):
    """As up to arity 4 with O(4) spanned by p1, p2, p3, on which t_1, t_2
    and t_3 act as the permutations (1 2), (2 3) and (1 3): involutions that
    satisfy both braid relations, while t_1 and t_3 do not commute."""
    base = as_operad(ring, 4)
    star = "*"
    complexes = dict(base.complexes)
    complexes[((star,) * 4, star)] = ChainComplex.free(
        ring, {0: ["p1", "p2", "p3"]}, {})
    moves = {1: {"p1": "p2", "p2": "p1"}, 2: {"p2": "p3", "p3": "p2"},
             3: {"p1": "p3", "p3": "p1"}}

    def compose_fn(M, fkey, i, gkey):
        if fkey[3] == "mu1":
            return {gkey: ring.one}
        if gkey[3] == "mu1":
            return {fkey: ring.one}
        n = len(fkey[0]) + len(gkey[0]) - 1
        return {((star,) * n, star, 0, "p1" if n == 4 else f"mu{n}"): ring.one}

    def sym_fn(M, t, fkey):
        label = fkey[3]
        if len(fkey[0]) == 4:
            label = moves[t].get(label, label)
        return {fkey[:3] + (label,): ring.one}

    return MultiCat(ring, [star], 4, complexes, compose_fn, sym_fn,
                    dict(base.units), name="as_commute")


def _tampered_rescaled_as(ring, scales, target, factor):
    """rescaled_as_operad with the composite at (arity f, i, arity g) scaled."""
    base = rescaled_as_operad(ring, scales)

    def compose_fn(M, fkey, i, gkey):
        out = base._compose_fn(M, fkey, i, gkey)
        if (len(fkey[0]), i, len(gkey[0])) == target:
            out = {k: ring.mul(ring.from_int(factor), v) for k, v in out.items()}
        return out

    return MultiCat(ring, ["*"], base.arity_max, dict(base.complexes),
                    compose_fn, base._sym_fn, dict(base.units), name="as_bad")


@pytest.mark.parametrize("build,axiom", [
    (lambda: planted_parallel(Q), "eqMultComp2"),
    (lambda: planted_braid(Z), "sym-braid"),
    (lambda: planted_commute(Z), "sym-commute"),
    (lambda: _tampered_rescaled_as(Q, AS_Q, (2, 1, 2), 2), "eqMultComp1"),
    (lambda: _tampered_rescaled_as(F3, AS_F3, (2, 2, 2), 2), "eqMultComp1"),
    (lambda: _tampered_rescaled_as(Q, AS_Q, (1, 1, 3), -1), "eqMultComp3"),
], ids=["parallel", "braid", "commute", "as_q", "as_f3", "as_q_unit"])
def test_planted_axioms_match_unpruned_oracle(build, axiom):
    w = build().validate()
    assert w is not None and w["axiom"] == axiom
    assert w == _validate_unpruned(build())


# -- seeded single-entry tampers ----------------------------------------------------


def _tamper(base, kind, rng):
    """A builder of base with one seeded table entry changed.

    kind: "sign", "double", "zero" or, over a Novikov ring, "shift" (one
    coefficient of one composite times -1, 2, 0 or T^(1/q)), "sym" (one
    coefficient or key of one transposition entry) or "diff" (one entry of
    one hom differential)."""
    ring = base.ring
    keys = base.all_keys()
    complexes = dict(base.complexes)
    compose_fn, sym_fn = base._compose_fn, base._sym_fn
    if kind in FACTORS:
        triples = [(f, i, g) for g in keys for f in keys
                   if base.arity(f) + base.arity(g) - 1 <= base.arity_max
                   for i in slots(base, f, g) if base.compose_keys(f, i, g)]
        at = rng.choice(triples)
        key = rng.choice(sorted(base.compose_keys(*at), key=repr))
        scale = _factor(ring, kind)

        def compose_fn(M, f, i, g):
            out = base._compose_fn(M, f, i, g)
            if (f, i, g) == at:
                out = dict(out)
                out[key] = ring.mul(scale, out[key])
            return out
    elif kind == "sym":
        at = rng.choice([(t, f) for f in keys for t in range(1, base.arity(f))])
        ((key, v),) = base.act_transposition(*at).items()
        others = [k for k in base.basis_keys(key[0], key[1])
                  if k[2] == key[2] and k != key]
        new = {key: ring.neg(v)} if not others or rng.random() < 0.5 \
            else {rng.choice(others): v}

        def sym_fn(M, t, f):
            return new if (t, f) == at else base._sym_fn(M, t, f)
    else:
        spots = [(sig, d) for sig, c in complexes.items() for d in c.degrees()
                 if c.dim(c.pred(d))]
        sig, d = rng.choice(spots)
        c = complexes[sig]
        ent = dict(c.d_mat(d).d)
        spot = (rng.randrange(c.dim(c.pred(d))), rng.randrange(c.dim(d)))
        ent[spot] = ring.add(ent.get(spot, ring.zero),
                             ring.from_int(rng.choice((1, -1, 2))))
        diff = dict(c.diff)
        diff[d] = Mat(ring, c.dim(c.pred(d)), c.dim(d), ent)
        complexes[sig] = ChainComplex(ring, c.grading, c.basis, diff,
                                      validate=False)
    return lambda: MultiCat(ring, base.objects, base.arity_max, complexes,
                            compose_fn, sym_fn, dict(base.units),
                            name="tampered")


FACTORS = ("sign", "double", "zero", "shift")


def _shift(ring):
    """T^(1/q), the grid step of a Novikov ring."""
    return ring.monomial(ring.base.one, Fraction(1, ring.grid))


def _factor(ring, kind):
    """The factor of a scaling tamper: -1, 2, 0 or T^(1/q)."""
    if kind == "shift":
        return _shift(ring)
    return ring.from_int({"sign": -1, "double": 2, "zero": 0}[kind])


def _coeff(ring):
    """A coefficient other than +-1: 2 over Z, 1/2 over a field, and
    1/2 + T^(1/q) over a Novikov ring."""
    if ring.kind == "Z":
        return 2
    half = ring.divide(ring.one, ring.from_int(2))
    return ring.add(half, _shift(ring)) if ring.is_novikov else half


def _endo(ring, coeff):
    """The endomorphism operad of R t -> R a (d t = coeff a), up to arity 2,
    and its tautological algebra."""
    c = ChainComplex.free(ring, {0: ["a"], 1: ["t"]}, {(1, "t", "a"): coeff})
    return endomorphism_multicat(ring, {"X": c}, 2)


def _endo_q2():
    """The endomorphism operad of Q t -> Q a (d t = a), up to arity 2."""
    return _endo(Q, 1)[0]


TAMPER_BASES = {
    "bv_q2": (lambda: bv_operad(Q, 2)[0],
              ("sign", "double", "zero", "sym", "diff")),
    "endo_q2": (_endo_q2, ("sign", "sym", "diff")),
    "as_q3": (lambda: rescaled_as_operad(Q, AS_Q[:3]),
              ("sign", "double", "zero")),
    "sym_assoc_z3": (lambda: sym_assoc_operad(Z, 3),
                     ("sign", "double", "zero", "sym")),
    "sym_assoc_f3": (lambda: rescaled_sym_assoc(F3, 3),
                     ("sign", "double", "zero", "sym")),
}

# fewer seeds: the oracle's Novikov arithmetic is slow
NOVIKOV_TAMPER_BASES = {
    "bv_nov_q2": (lambda: bv_operad(NOV_Q, 2)[0], ("shift", "sym", "diff")),
    "endo_nov_q2": (lambda: _endo(NOV_Q, _coeff(NOV_Q))[0], ("shift", "diff")),
    "sym_assoc_nov_f3": (lambda: rescaled_sym_assoc(NOV_F3, 3),
                         ("double", "shift", "sym")),
}


def test_tamper_sweep_matches_unpruned_oracle():
    reached = set()
    for bases, seeds in ((TAMPER_BASES, 8), (NOVIKOV_TAMPER_BASES, 4)):
        for name, (build, kinds) in bases.items():
            for kind in kinds:
                for seed in range(seeds):
                    rng = random.Random(f"{name}/{kind}/{seed}")
                    make = _tamper(build(), kind, rng)
                    w = make().validate()
                    assert w == _validate_unpruned(make()), (name, kind, seed)
                    reached.add(w and w["axiom"])
    assert reached >= {"leibniz", "eqMultComp1", "eqMultComp3",
                       "sym-chain-map", "sym-involution", "eqSymAc1",
                       "eqSymAc2"}, reached


# -- algebras and functors against their Ring-arithmetic oracles -----------------

SWEEP_RINGS = {"z": Z, "q": Q, "f3": F3, "nov_q": NOV_Q, "nov_f3": NOV_F3}


def _sweep_bases(ring):
    """(M, tautological algebra) of the endomorphism operad of a complex
    with a differential, and of the BV operad, both up to arity 2."""
    return {"endo": _endo(ring, _coeff(ring)), "bv": bv_operad(ring, 2)[:2]}


def _corrupted(ring, lc, others, rng):
    """lc with one seeded entry times -1, 2, 0 or (over a Novikov ring)
    T^(1/q), or moved to one of the keys others."""
    key = rng.choice(sorted(lc, key=repr))
    others = [k for k in others if k not in lc]
    kinds = ["sign", "double", "zero"] + ["shift"] * ring.is_novikov \
        + ["move"] * bool(others)
    kind = rng.choice(kinds)
    out = dict(lc)
    if kind == "move":
        out[rng.choice(others)] = out.pop(key)
    else:
        out[key] = ring.mul(_factor(ring, kind), out[key])
    return out


def _tampered_algebra(M, A, kind, rng):
    """A builder of A with one seeded corruption: kind "unit" or "action"
    corrupts the action of a unit or of another key on one tuple (unit,
    Leibniz, composition or symmetry); any other kind corrupts M's tables
    (`_tamper`) under the same action."""
    ring = M.ring
    if kind not in ("unit", "action"):
        make = _tamper(M, kind, rng)
        return lambda: MultiAlgebra(make(), A.carriers, A._action_fn)
    units = {M.unit_key(x) for x in M.objects}
    at = rng.choice([(k, args) for k in M.all_keys()
                     if (k in units) == (kind == "unit")
                     for args in arg_tuples(A, k[0]) if A.apply_key(k, args)])
    value = A.apply_key(*at)
    d = next(iter(value))[0]
    new = _corrupted(ring, value, [(d, l) for l in A.carrier(at[0][1]).labels(d)],
                     rng)

    def action_fn(alg, k, args):
        return new if (k, args) == at else A._action_fn(alg, k, args)
    return lambda: MultiAlgebra(M, A.carriers, action_fn)


def _tampered_functor(M, kind, rng):
    """A builder of the identity functor of M with one seeded corruption:
    kind "unit" or "value" corrupts its value on a unit or on another key;
    any other kind corrupts the target's tables (`_tamper`)."""
    ring = M.ring
    same_objects = {x: x for x in M.objects}
    if kind not in ("unit", "value"):
        make = _tamper(M, kind, rng)
        return lambda: MultiFunctor(M, make(), same_objects,
                                    lambda F, k: {k: ring.one})
    units = {M.unit_key(x) for x in M.objects}
    at = rng.choice([k for k in M.all_keys() if (k in units) == (kind == "unit")])
    new = _corrupted(ring, {at: ring.one},
                     [k for k in M.basis_keys(at[0], at[1]) if k[2] == at[2]],
                     rng)
    return lambda: MultiFunctor(M, M, same_objects, lambda F, k:
                                new if k == at else {k: ring.one})


def _sweep_kinds(ring, extra):
    return extra + ("sign", "double", "zero", "sym", "diff") \
        + ("shift",) * ring.is_novikov


@pytest.mark.parametrize("name", SWEEP_RINGS)
def test_algebra_tamper_sweep_matches_ring_oracle(name):
    ring = SWEEP_RINGS[name]
    reached = set()
    for base, (M, A) in _sweep_bases(ring).items():
        assert A.validate() is None and algebra_validate_oracle(A) is None
        for kind in _sweep_kinds(ring, ("unit", "action", "action")):
            for seed in range(3):
                rng = random.Random(f"{name}/{base}/{kind}/{seed}")
                make = _tampered_algebra(M, A, kind, rng)
                w = make().validate()
                assert w == algebra_validate_oracle(make()), (base, kind, seed)
                reached.add(w and w["axiom"])
    assert reached >= {"algebra-unit", "algebra-chain-map",
                       "algebra-composition", "eqSymAc-algebra"}, reached


@pytest.mark.parametrize("name", SWEEP_RINGS)
def test_functor_tamper_sweep_matches_ring_oracle(name):
    ring = SWEEP_RINGS[name]
    reached = set()
    for base, (M, _) in _sweep_bases(ring).items():
        for kind in _sweep_kinds(ring, ("unit", "value", "value")):
            for seed in range(3):
                rng = random.Random(f"{name}/{base}/{kind}/{seed}")
                make = _tampered_functor(M, kind, rng)
                w = make().validate()
                assert w == functor_validate_oracle(make()), (base, kind, seed)
                reached.add(w and w["axiom"])
    assert reached >= {"functor-unit", "functor-chain-map", "functor-symmetry",
                       "functor-composition"}, reached


def test_functor_value_naming_a_missing_label_raises():
    # mu2 to a degree-0 label "nu2" that As(2) lacks: on the signature, but
    # no key of the target
    M = as_operad(Z, 2)
    mu2 = (("*", "*"), "*", 0, "mu2")
    F = MultiFunctor(M, M, {"*": "*"}, lambda F, k: {
        (k[0], k[1], 0, "nu2") if k == mu2 else k: Z.one})
    with pytest.raises(EngineError, match=r"^functor value at .*'mu2'\) names 'nu2', "
                       "no label of the target$"):
        F.validate()
    assert F.on_key((("*",), "*", 0, "mu1")) == {(("*",), "*", 0, "mu1"): 1}


@pytest.mark.parametrize("ring", [Z, NOV_Q], ids=["z", "nov_q"])
def test_functor_composites_above_the_source_bound_are_checked(ring):
    # As up to arity 2 into As up to arity 3: mu2 o_1 mu2 is 0 in the source
    # and mu3 in the target
    S, T = as_operad(ring, 2), as_operad(ring, 3)
    F = MultiFunctor(S, T, {"*": "*"}, lambda F, k: {k: ring.one})
    w = F.validate()
    assert w is not None and w["axiom"] == "functor-composition"
    assert w == functor_validate_oracle(F)
