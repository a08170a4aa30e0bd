"""dg categories and dg functors against the validators they used to carry,
and the one-sided module validators.

A `DgCategory` is validated through its 1-ary multicategory `C.M` and a
`DgFunctor` through its `MultiFunctor`.  The oracles below are the checks
those classes ran before, in `Ring` arithmetic over (a, b, d, l) keys; both
sides must agree on every fixture: both None, or witnesses of the same
axiom.
"""

import pytest

from opbar.coeff import Ring
from opbar.dgcat import (
    DgFunctor,
    LeftModule,
    RightModule,
    group_ring_category,
    poset_category,
    table_category,
    trivial_left_module,
    trivial_right_module,
    under_functor_left_module,
)
from opbar.errors import UnsupportedRing
from opbar.fixtures import as_operad, poset_multicat
from opbar.lincomb import bilinear, combine, eq as lc_eq, linear, scaled_int
from opbar.multicat import prop_of
from opbar.symgrp import Perm

from .test_bar_structure import _interval_category

Z = Ring.Z()
Q = Ring.Q()
F3 = Ring.Fp(3)
S3 = [Perm((2, 1, 3)), Perm((2, 3, 1))]
Z3 = [Perm((2, 3, 1))]


def dg_validate_oracle(C):
    """The unit, Leibniz and associativity checks of a dg category."""
    ring = C.ring
    keys = C.all_keys()
    for a in C.objects:
        uk = C.unit_key(a)
        c = C.hom(a, a)
        if c is None or not c.has_label(0, uk[3]):
            return {"axiom": "unit-missing", "object": a}
        if C.diff_key(uk):
            return {"axiom": "unit-not-closed", "object": a}
    for u in keys:
        if not lc_eq(ring, C.compose_keys(C.unit_key(u[0]), u), {u: ring.one}):
            return {"axiom": "unit-left", "u": u}
        if not lc_eq(ring, C.compose_keys(u, C.unit_key(u[1])), {u: ring.one}):
            return {"axiom": "unit-right", "u": u}
    for u in keys:
        for v in keys:
            if u[1] != v[0]:
                continue
            lhs = linear(ring, C.diff_key, C.compose_keys(u, v))
            rhs = combine(
                ring,
                C.compose(C.diff_key(u), {v: ring.one}),
                scaled_int(ring, C.compose({u: ring.one}, C.diff_key(v)),
                           -1 if u[2] % 2 else 1),
            )
            if not lc_eq(ring, lhs, rhs):
                return {"axiom": "leibniz", "u": u, "v": v}
            for w in keys:
                if v[1] != w[0]:
                    continue
                lhs = C.compose(C.compose_keys(u, v), {w: ring.one})
                rhs = C.compose({u: ring.one}, C.compose_keys(v, w))
                if not lc_eq(ring, lhs, rhs):
                    return {"axiom": "associativity", "u": u, "v": v, "w": w}
    return None


def dg_functor_validate_oracle(F):
    """The unit, chain-map and composition checks of a dg functor."""
    S, T = F.source, F.target
    ring = S.ring
    for a in S.objects:
        if not lc_eq(ring, F.on_key(S.unit_key(a)),
                     {T.unit_key(F.on_obj(a)): ring.one}):
            return {"axiom": "functor-unit", "object": a}
    for u in S.all_keys():
        if not lc_eq(ring, F.on_lc(S.diff_key(u)),
                     linear(ring, T.diff_key, F.on_key(u))):
            return {"axiom": "functor-chain-map", "u": u}
        for v in S.all_keys():
            if u[1] != v[0]:
                continue
            lhs = F.on_lc(S.compose_keys(u, v))
            rhs = bilinear(ring, T.compose_keys, F.on_key(u), F.on_key(v))
            if not lc_eq(ring, lhs, rhs):
                return {"axiom": "functor-composition", "u": u, "v": v}
    return None


# the multicategory axiom that names each oracle failure
AXIOM = {"unit-missing": "unit-missing", "unit-not-closed": "unit-not-closed",
         "unit-left": "eqMultComp3", "unit-right": "eqMultComp3",
         "leibniz": "leibniz", "associativity": "eqMultComp1"}


def _z3_table(**changed):
    """Z/3 = {e, a, b} from its multiplication table, with entries replaced."""
    comp = {}
    for x, i in (("e", 0), ("a", 1), ("b", 2)):
        for y, j in (("e", 0), ("a", 1), ("b", 2)):
            comp[(x, y)] = [(1, "eab"[(i + j) % 3])]
    comp.update({tuple(xy): hits for xy, hits in changed.items()})
    return table_category(Z, ["*"], {("*", "*"): {0: ["e", "a", "b"]}}, {},
                          comp, {"*": "e"}, name="Z/3 planted")


def _planted_leibniz():
    """e the unit, d x = y and y y = y, every other product 0: d(y x) = 0
    but (d y) x + y (d x) = y."""
    comp = {("e", l): [(1, l)] for l in "exy"}
    comp.update({(l, "e"): [(1, l)] for l in "xy"})
    comp[("y", "y")] = [(1, "y")]
    return table_category(Z, ["*"], {("*", "*"): {0: ["e", "y"], 1: ["x"]}},
                          {("*", "*", "x"): [(1, "y")]}, comp, {"*": "e"},
                          name="Leibniz planted")


CATEGORIES = {
    **{f"s3_{name}": (lambda r=r: group_ring_category(r, 3, S3))
       for name, r in (("z", Z), ("q", Q), ("f3", F3))},
    **{f"z3_{name}": (lambda r=r: group_ring_category(r, 3, Z3))
       for name, r in (("z", Z), ("q", Q), ("f3", F3))},
    "poset2": lambda: poset_category(Z, 2),
    "interval": _interval_category,
    "prop_poset1": lambda: prop_of(poset_multicat(Z, 1), 2).cat,
    "prop_as2": lambda: prop_of(as_operad(Z, 2), 2).cat,
    "planted_unit": lambda: _z3_table(ea=[(2, "a")]),
    "planted_leibniz": _planted_leibniz,
    "planted_assoc": lambda: _z3_table(bb=[(1, "b")]),
}


@pytest.mark.parametrize("name", CATEGORIES)
def test_category_validate_agrees_with_oracle(name):
    C = CATEGORIES[name]()
    want, got = dg_validate_oracle(C), C.validate()
    assert (want is None) == (got is None), (want, got)
    if want is not None:
        assert AXIOM[want["axiom"]] == got["axiom"]
    assert (want is None) == (not name.startswith("planted"))


def _planted_functor(name):
    if name == "unit":
        C = poset_category(Z, 1)
        return DgFunctor(C, C, {0: 0, 1: 1},
                         lambda F, k: {k: Z.from_int(2)}, name="twice")
    if name == "chain_map":  # c -> b, so F(d a) = 0 but d F(a) = b - c
        C = _interval_category()
        return DgFunctor(C, C, {0: 0, 1: 1}, lambda F, k: {
            (k[0], k[1], k[2], "b" if k[3] == "c" else k[3]): Z.one},
            name="c_to_b")
    C = _z3_table()  # b -> a: a a = b goes to a, but F(a) F(a) = b
    keys = {k[3]: k for k in C.all_keys()}
    return DgFunctor(C, C, {"*": "*"}, lambda F, k: {
        keys["a" if k[3] == "b" else k[3]]: Z.one}, name="b_to_a")


FUNCTORS = {
    **{f"id_{name}": (lambda build=build: DgFunctor.identity(build()))
       for name, build in CATEGORIES.items()},
    **{f"planted_{name}": (lambda name=name: _planted_functor(name))
       for name in ("unit", "chain_map", "composition")},
}


@pytest.mark.parametrize("name", FUNCTORS)
def test_functor_validate_agrees_with_oracle(name):
    F = FUNCTORS[name]()
    want, got = dg_functor_validate_oracle(F), F.validate()
    assert (want is None) == (got is None), (want, got)
    if want is not None:
        assert want["axiom"] == got["axiom"]
        assert got["axiom"] == "functor-" + name[len("planted_"):].replace(
            "_", "-")
    else:
        assert name.startswith("id_")


def test_validate_raises_over_novikov():
    C = group_ring_category(Ring.novikov(Q, 2, 2), 2, [Perm((2, 1))])
    with pytest.raises(UnsupportedRing):
        C.validate()


# -- module validators ----------------------------------------------------------


@pytest.mark.parametrize("ring", [Z, Q], ids=["z", "q"])
def test_trivial_and_regular_left_modules_validate(ring):
    C = group_ring_category(ring, 3, S3)
    regular = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    assert trivial_left_module(C).validate() is None
    assert regular.validate() is None
    assert trivial_right_module(C).validate() is None


@pytest.mark.parametrize("c_obj", [0, 1])
def test_under_functor_module_on_the_interval_validates(c_obj):
    C = _interval_category()
    L = under_functor_left_module(DgFunctor.identity(C), c_obj)
    assert any(L.complex(a).diff for a in C.objects) == (c_obj == 1)
    assert L.validate() is None


def test_planted_left_module_is_witnessed():
    C = group_ring_category(Z, 3, Z3)
    regular = under_functor_left_module(DgFunctor.identity(C), C.objects[0])
    u = next(k for k in C.all_keys() if k != C.unit_key("*"))
    y0 = regular.elem_keys("*")[0]

    def action(L, ukey, ykey):
        out = regular.act_key(ukey, ykey)
        if (ukey, ykey) == (u, y0):
            return {k: 2 * v for k, v in out.items()}
        return out

    w = LeftModule(C, regular.complexes, action).validate()
    assert w is not None and w["axiom"] in ("module-assoc", "module-unit")


def test_planted_right_module_is_witnessed():
    C = group_ring_category(Z, 3, Z3)
    trivial = trivial_right_module(C)
    u = next(k for k in C.all_keys() if k != C.unit_key("*"))

    def action(R, mkey, ukey):
        out = trivial.act_key(mkey, ukey)
        return {k: 2 * v for k, v in out.items()} if ukey == u else out

    w = RightModule(C, trivial.complexes, action).validate()
    assert w is not None and w["axiom"] in ("module-assoc", "module-unit")
