"""MultiCat.validate skips the checks that zero truncation makes trivial.

`_validate_unpruned` is the exhaustive validator as it was before the skip:
every unit, Leibniz, associativity and equivariance check over all keys.  It
is the oracle: on valid and on planted multicategories, `validate` must
return the same witness.
"""

import pytest

from opbar.coeff import Ring
from opbar.fixtures import (
    as_operad,
    bv_operad,
    planted_asymmetric,
    planted_nonassociative,
    sym_assoc_operad,
)
from opbar.lincomb import combine, eq as lc_eq, linear, scaled_int
from opbar.multicat import MultiCat, _embed_at
from opbar.symgrp import Perm, block_perm

Z = Ring.Z()
Q = Ring.Q()


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
                lhs = M._diff_lc(M.compose_keys(f, i, g))
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
            if not lc_eq(ring, M._diff_lc(tf), rhs):
                return {"axiom": "sym-chain-map", "f": f, "i": i}
            back = linear(ring, lambda k, t=i: M.act_transposition(t, k), tf)
            if not lc_eq(ring, back, {f: one}):
                return {"axiom": "sym-involution", "f": f, "i": i}
        for i in range(1, n - 1):
            a = Perm.transposition(n, i, i + 1)
            b = Perm.transposition(n, i + 1, i + 2)
            if not lc_eq(ring, M.act(a.compose(b).compose(a), f),
                         M.act(b.compose(a).compose(b), f)):
                return {"axiom": "sym-braid", "f": f, "i": i}
        for i in range(1, n):
            for j in range(i + 2, n):
                a = Perm.transposition(n, i, i + 1)
                b = Perm.transposition(n, j, j + 1)
                if not lc_eq(ring, M.act(a.compose(b), f),
                             M.act(b.compose(a), f)):
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


def test_bv_validate_compose_keys_count(monkeypatch):
    # validate composes only when the composite has arity <= 3, where
    # _validate_unpruned makes 251 268 calls on this operad
    M = bv_operad(Q, 3)[0]
    calls = []
    orig = MultiCat.compose_keys

    def counting(self, fkey, i, gkey):
        calls.append(1)
        return orig(self, fkey, i, gkey)

    monkeypatch.setattr(MultiCat, "compose_keys", counting)
    assert M.validate() is None
    assert len(calls) == 22276
