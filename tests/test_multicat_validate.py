"""MultiCat.validate against the exhaustive oracle `_validate_unpruned`.

`validate` checks on int tables: each composite, transposition and
differential read once, and every check in int arithmetic, with the checks
whose composite overflows arity_max skipped.  `_validate_unpruned` is the
exhaustive validator over Ring arithmetic: every unit, Leibniz,
associativity and equivariance check over all keys, with act(sigma, .) read
through `MultiCat.act`.  On valid, planted and tampered multicategories,
`validate` must return the same witness.
"""

import random
from fractions import Fraction

import pytest

from opbar.coeff import Ring
from opbar.complexes import ChainComplex
from opbar.errors import UnsupportedRing
from opbar.fixtures import (
    as_operad,
    bv_operad,
    planted_asymmetric,
    planted_nonassociative,
    sym_assoc_operad,
)
from opbar.lincomb import combine, eq as lc_eq, linear, scaled_int
from opbar.linalg import Mat
from opbar.multicat import MultiCat, endomorphism_multicat
from opbar.symgrp import Perm, block_perm

Z = Ring.Z()
Q = Ring.Q()
F3 = Ring.Fp(3)


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
            for i in M._slots(f, g):
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
            for j in M._slots(g, h):
                inner = M.compose_keys(g, j, h)
                for f in keys:
                    for i in M._slots(f, g):
                        lhs = M.compose(M.compose_keys(f, i, g), j, {h: one})
                        rhs = M.compose({f: one}, i + j - 1, inner)
                        if not lc_eq(ring, lhs, rhs):
                            return {"axiom": "eqMultComp1", "f": f, "g": g,
                                    "h": h, "i": i, "j": j}
                    for i1 in M._slots(f, h):
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
            for i in M._slots(f, g):
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
                for i in M._slots(f, g):
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


def test_bv_validate_checks_make_no_ring_or_fraction_arithmetic(monkeypatch):
    M = bv_operad(Q, 3)[0]
    ring_ops = [_counted(monkeypatch, Ring, attr)
                for attr in ("mul", "add", "eq", "neg")]
    fraction_ops = [_counted(monkeypatch, Fraction, attr)
                    for attr in ("__mul__", "__rmul__", "__add__", "__radd__",
                                 "__eq__")]
    assert M.validate() is None
    assert [len(c) for c in ring_ops + fraction_ops] == [0] * 9


def test_bv_operad_of_arity_4_is_valid():
    M = bv_operad(Q, 4)[0]
    assert len(M.all_keys()) == 61
    assert M.validate() is None


def test_validate_refuses_novikov_coefficients():
    with pytest.raises(UnsupportedRing):
        as_operad(Ring.novikov(Q, 2, 2), 2).validate()


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
    pool = [ring.from_int(n) for n in (1, 2, -1, -2)] if ring.kind == "Fp" \
        else [Fraction(n, d) for n in (1, 2, -3) for d in (1, 2, 3)]
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

    kind: "sign", "double" or "zero" (one coefficient of one composite),
    "sym" (one coefficient or key of one transposition entry) or "diff"
    (one entry of one hom differential)."""
    ring = base.ring
    keys = base.all_keys()
    complexes = dict(base.complexes)
    compose_fn, sym_fn = base._compose_fn, base._sym_fn
    if kind in ("sign", "double", "zero"):
        triples = [(f, i, g) for g in keys for f in keys
                   if base.arity(f) + base.arity(g) - 1 <= base.arity_max
                   for i in base._slots(f, g) if base.compose_keys(f, i, g)]
        at = rng.choice(triples)
        key = rng.choice(sorted(base.compose_keys(*at), key=repr))
        scale = ring.from_int({"sign": -1, "double": 2, "zero": 0}[kind])

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


def _endo_q2():
    """The endomorphism operad of Q t -> Q a (d t = a), up to arity 2."""
    c = ChainComplex.free(Q, {0: ["a"], 1: ["t"]}, {(1, "t", "a"): 1})
    return endomorphism_multicat(Q, {"X": c}, 2)[0]


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


def test_tamper_sweep_matches_unpruned_oracle():
    reached = set()
    for name, (build, kinds) in TAMPER_BASES.items():
        for kind in kinds:
            for seed in range(8):
                rng = random.Random(f"{name}/{kind}/{seed}")
                make = _tamper(build(), kind, rng)
                w = make().validate()
                assert w == _validate_unpruned(make()), (name, kind, seed)
                reached.add(w and w["axiom"])
    assert reached >= {"leibniz", "eqMultComp1", "eqMultComp3",
                       "sym-chain-map", "sym-involution", "eqSymAc1",
                       "eqSymAc2"}, reached
