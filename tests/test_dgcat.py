"""dg categories, dg functors and one-sided modules against the validators
they used to carry.

A `DgCategory` is validated through its 1-ary multicategory `C.M`, a
`DgFunctor` through its `MultiFunctor`, and a right or left module through
its algebra `R.A` over `C.M` or `C.op().M`.  The oracles below are the
checks those classes ran before, in `Ring` arithmetic over (a, b, d, l) and
(object, degree, label) keys; both sides must agree on every fixture: both
None, or witnesses of the same axiom.
"""

import re
from fractions import Fraction

import pytest

from opbar import dgcat
from opbar.coeff import Ring
from opbar.complexes import ChainComplex
from opbar.dgcat import (
    DgFunctor,
    LeftModule,
    RightModule,
    corepresented_right_module,
    group_ring_category,
    poset_category,
    pullback_right_module,
    table_category,
    trivial_left_module,
    trivial_right_module,
    under_functor_left_module,
)
from opbar.errors import EngineError
from opbar.fixtures import as_operad, poset_multicat
from opbar.lincomb import bilinear, combine, eq as lc_eq, linear, scaled_int
from opbar.multicat import prop_of
from opbar.symgrp import Perm

from .genutil import acts_by_one_oracle
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


def _z3_table(ring=Z, **changed):
    """R[Z/3] = {e, a, b} from its multiplication table, with entries
    replaced."""
    comp = {}
    for x, i in (("e", 0), ("a", 1), ("b", 2)):
        for y, j in (("e", 0), ("a", 1), ("b", 2)):
            comp[(x, y)] = [(1, "eab"[(i + j) % 3])]
    comp.update({tuple(xy): hits for xy, hits in changed.items()})
    return table_category(ring, ["*"], {("*", "*"): {0: ["e", "a", "b"]}}, {},
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
def test_opposite_category_validates_as_the_category(name):
    C = CATEGORIES[name]()
    op = C.op()
    assert op.op() is C and C.op() is op
    assert op.homs == {(b, a): c for (a, b), c in C.homs.items()}
    assert op.units == C.units
    want, got = C.validate(), op.validate()
    assert (want is None) == (got is None), (want, got)
    if want is not None:
        assert want["axiom"] == got["axiom"]


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


NOV = Ring.novikov(Q, 2, 2)
T_HALF = NOV.monomial(1, Fraction(1, 2))


def test_validate_over_novikov():
    """Over Nov(Q, 2, 2) a valid category, functor and modules pass, and
    each tampered one is witnessed as its oracle says."""
    C = group_ring_category(NOV, 3, S3)
    assert C.validate() is None and dg_validate_oracle(C) is None
    F = DgFunctor.identity(C)
    assert F.validate() is None and dg_functor_validate_oracle(F) is None
    for R in (trivial_right_module(C), corepresented_right_module(C, "*")):
        assert R.validate() is None and right_module_oracle(R) is None
    L = trivial_left_module(C)
    assert L.validate() is None and left_module_oracle(L) is None
    # a a = T^(1/2) b in place of b
    P = _z3_table(NOV, aa=[(T_HALF, "b")])
    assert P.validate()["axiom"] == AXIOM[dg_validate_oracle(P)["axiom"]] \
        == "eqMultComp1"
    # every basis morphism to (1 + T^(1/2)) times itself
    F = DgFunctor(C, C, {"*": "*"},
                  lambda F, k: {k: NOV.add(NOV.one, T_HALF)}, name="unipotent")
    assert F.validate()["axiom"] == dg_functor_validate_oracle(F)["axiom"] \
        == "functor-unit"
    # each morphism acts on r by T^(1/2)
    R = RightModule(C, {"*": ChainComplex.single(NOV, "r")},
                    lambda R, m, u: {(u[1], 0, "r"): T_HALF}, name="shifted")
    assert MODULE_AXIOM[right_module_oracle(R)["axiom"]] \
        == R.validate()["axiom"] == "algebra-unit"


# -- module validators ----------------------------------------------------------


def right_module_oracle(R):
    """The unit, Leibniz and associativity checks of a right module."""
    ring, cat = R.ring, R.cat
    for a in cat.objects:
        for m in R.elem_keys(a):
            got = R.act_key(m, cat.unit_key(a))
            if not lc_eq(ring, got, {m: ring.one}):
                return {"axiom": "module-unit", "m": m}
    for a in cat.objects:
        for m in R.elem_keys(a):
            for u in cat.all_keys():
                if u[0] != a:
                    continue
                lhs = linear(ring, R.diff_key, R.act_key(m, u))
                rhs = combine(
                    ring,
                    bilinear(ring, R.act_key, R.diff_key(m), {u: ring.one}),
                    scaled_int(ring,
                               bilinear(ring, R.act_key, {m: ring.one},
                                        cat.diff_key(u)),
                               -1 if m[1] % 2 else 1),
                )
                if not lc_eq(ring, lhs, rhs):
                    return {"axiom": "module-leibniz", "m": m, "u": u}
                for v in cat.all_keys():
                    if v[0] != u[1]:
                        continue
                    lhs2 = bilinear(ring, R.act_key, R.act_key(m, u),
                                    {v: ring.one})
                    rhs2 = bilinear(ring, R.act_key, {m: ring.one},
                                    cat.compose_keys(u, v))
                    if not lc_eq(ring, lhs2, rhs2):
                        return {"axiom": "module-assoc", "m": m, "u": u, "v": v}
    return None


def left_module_oracle(L):
    """The unit, Leibniz and associativity checks of a left module."""
    ring, cat = L.ring, L.cat
    for b in cat.objects:
        for y in L.elem_keys(b):
            got = L.act_key(cat.unit_key(b), y)
            if not lc_eq(ring, got, {y: ring.one}):
                return {"axiom": "module-unit", "y": y}
            for u in cat.all_keys():
                if u[1] != b:
                    continue
                lhs = linear(ring, L.diff_key, L.act_key(u, y))
                rhs = combine(
                    ring,
                    bilinear(ring, L.act_key, cat.diff_key(u), {y: ring.one}),
                    scaled_int(ring,
                               bilinear(ring, L.act_key, {u: ring.one},
                                        L.diff_key(y)),
                               -1 if u[2] % 2 else 1),
                )
                if not lc_eq(ring, lhs, rhs):
                    return {"axiom": "module-leibniz", "y": y, "u": u}
                for v in cat.all_keys():
                    if v[1] != u[0]:
                        continue
                    lhs2 = bilinear(ring, L.act_key, {v: ring.one},
                                    L.act_key(u, y))
                    rhs2 = bilinear(ring, L.act_key, cat.compose_keys(v, u),
                                    {y: ring.one})
                    if not lc_eq(ring, lhs2, rhs2):
                        return {"axiom": "module-assoc", "y": y, "u": u, "v": v}
    return None


# the algebra axiom that names each module oracle failure
MODULE_AXIOM = {"module-unit": "algebra-unit",
                "module-leibniz": "algebra-chain-map",
                "module-assoc": "algebra-composition"}


def _dual_numbers():
    """Z[eps]/eps^2 on one object, eps in degree 0."""
    comp = {("e", l): [(1, l)] for l in ("e", "eps")}
    comp[("eps", "e")] = [(1, "eps")]
    return table_category(Z, ["*"], {("*", "*"): {0: ["e", "eps"]}}, {}, comp,
                          {"*": "e"}, name="Z[eps]")


def _exterior():
    """The exterior algebra on odd x, y on one object: xy = -yx."""
    comp = {("e", l): [(1, l)] for l in ("e", "x", "y", "xy")}
    comp.update({(l, "e"): [(1, l)] for l in ("x", "y", "xy")})
    comp[("x", "y")] = [(1, "xy")]
    comp[("y", "x")] = [(-1, "xy")]
    return table_category(Z, ["*"], {("*", "*"): {0: ["e"], 1: ["x", "y"],
                                                  2: ["xy"]}}, {}, comp,
                          {"*": "e"}, name="Lambda(x,y)")


MODULE_CATEGORIES = {
    "s3_z": CATEGORIES["s3_z"],
    "s3_q": CATEGORIES["s3_q"],
    "interval": _interval_category,
    "dual": _dual_numbers,
    "exterior": _exterior,
}

MODULES = {
    "corepresented": lambda C: corepresented_right_module(C, C.objects[0]),
    "under_identity": lambda C: under_functor_left_module(
        DgFunctor.identity(C), C.objects[-1]),
    "pullback": lambda C: pullback_right_module(
        DgFunctor.identity(C), corepresented_right_module(C, C.objects[0])),
    "trivial_right": trivial_right_module,
    "trivial_left": trivial_left_module,
}


def _verdict(check, axiom=lambda a: a):
    """None, the (translated) axiom of the witness, or "raises"."""
    try:
        w = check()
    except EngineError:
        return "raises"
    return None if w is None else axiom(w["axiom"])


def _corruptions(R):
    """R with one non-unit action scaled by -1, 0 and 2, and R with every
    action m.u (u.y) multiplied by the Koszul sign (-1)^{|m||u|}."""
    ring, C = R.ring, R.cat
    right = isinstance(R, RightModule)
    if right:
        pairs = [(m, u) for u in C.all_keys() if u != C.unit_key(u[0])
                 for m in R.elem_keys(u[0])]
    else:
        pairs = [(u, y) for u in C.all_keys() if u != C.unit_key(u[0])
                 for y in R.elem_keys(u[1])]
    hit = next((p for p in pairs if R.act_key(*p)), None)

    def module(fn):
        return type(R)(C, R.complexes, fn)

    def scaled(c):
        def action(_, x, y):
            out = R.act_key(x, y)
            if (x, y) == hit:
                return {k: ring.mul(ring.from_int(c), v) for k, v in out.items()}
            return out
        return module(action)

    def koszul(_, x, y):
        out = R.act_key(x, y)
        odd = (x[1] * y[2] if right else x[2] * y[1]) % 2
        return {k: ring.neg(v) for k, v in out.items()} if odd else out

    out = {f"x{c}": scaled(c) for c in (-1, 0, 2)} if hit else {}
    out["koszul"] = module(koszul)
    return out


# the EngineError of a trivial module on a category where acting by 1 is no
# module: the first odd basis morphism, or the first composite that is not
# one basis morphism with coefficient 1
TRIVIAL_MODULE_ERRORS = {
    "interval": re.escape("basis morphism (0, 1, 1, 'a') has degree 1"),
    "exterior": re.escape("basis morphism ('*', '*', 1, 'x') has degree 1"),
    "dual": re.escape("('*', '*', 0, 'eps') then ('*', '*', 0, 'eps') is {}"),
}


def _acting_by_one(C, right):
    """The action of the trivial module, built without its builder's check."""
    ring = C.ring
    if right:
        return RightModule(C, {a: ChainComplex.single(ring, "r") for a in C.objects},
                           lambda R, m, u: {(u[1], 0, "r"): ring.one})
    return LeftModule(C, {a: ChainComplex.single(ring, "l") for a in C.objects},
                      lambda L, u, y: {(u[0], 0, "l"): ring.one})


@pytest.mark.parametrize("module", MODULES)
@pytest.mark.parametrize("cat", MODULE_CATEGORIES)
def test_module_validate_agrees_with_oracle(cat, module):
    C = MODULE_CATEGORIES[cat]()
    trivial_fails = module.startswith("trivial") and cat not in ("s3_z", "s3_q")
    if trivial_fails:
        # acting by 1 misses the degree of an odd morphism and does not
        # annihilate eps * eps = 0: the builder refuses, and the same action
        # built directly fails validate() as it fails the oracle
        with pytest.raises(EngineError, match=TRIVIAL_MODULE_ERRORS[cat]):
            MODULES[module](C)
        R = _acting_by_one(C, module == "trivial_right")
    else:
        R = MODULES[module](C)
    oracle = right_module_oracle if isinstance(R, RightModule) \
        else left_module_oracle
    got = _verdict(R.validate)
    cases = {"as built": R, **(_corruptions(R) if got is None else {})}
    verdicts = {}
    for name, S in cases.items():
        verdicts[name] = _verdict(lambda: oracle(S), MODULE_AXIOM.get)
        assert _verdict(S.validate) == verdicts[name], name
    assert (got is None) == (not trivial_fails)
    if got is None:
        # over the dual numbers the one nonzero non-unit action is by eps, and
        # scaling it is the pullback along eps -> c eps: still a module.  Only
        # the exterior algebra has odd elements acted on by odd morphisms.
        assert all((verdicts[f"x{c}"] is None) == (cat == "dual")
                   for c in (-1, 0, 2))
        assert (verdicts["koszul"] is None) == (cat != "exterior")


@pytest.mark.parametrize("xx", [[(2, "e")], [(1, "e"), (1, "x")]],
                         ids=["twice_the_unit", "two_terms"])
def test_trivial_modules_need_composites_of_coefficient_one(xx):
    """Z[x] with x * x = 2 or 1 + x: acting by 1 on x is no module."""
    comp = {("e", "e"): [(1, "e")], ("e", "x"): [(1, "x")], ("x", "e"): [(1, "x")],
            ("x", "x"): xx}
    C = table_category(Z, ["*"], {("*", "*"): {0: ["e", "x"]}}, {}, comp,
                       {"*": "e"})
    for build in (trivial_right_module, trivial_left_module):
        with pytest.raises(EngineError, match=re.escape(
                "('*', '*', 0, 'x') then ('*', '*', 0, 'x') is {")):
            build(C)


def _x_squared(ring, xx):
    """ring[x] on one object with x * x = xx (pairs (coefficient, label))."""
    comp = {("e", "e"): [(1, "e")], ("e", "x"): [(1, "x")], ("x", "e"): [(1, "x")],
            ("x", "x"): xx}
    return table_category(ring, ["*"], {("*", "*"): {0: ["e", "x"]}}, {}, comp,
                          {"*": "e"})


ACTS_BY_ONE_CATEGORIES = {
    **{name: CATEGORIES[name] for name in ("s3_z", "s3_q", "s3_f3", "z3_q", "poset2",
                                           "planted_unit", "planted_assoc")},
    **{name: MODULE_CATEGORIES[name] for name in ("interval", "dual", "exterior")},
    "s3_nov": lambda: group_ring_category(NOV, 3, S3),
    "poset3_q": lambda: poset_category(Q, 3),
    "x_squared_one_q": lambda: _x_squared(Q, [(1, "e")]),
    "x_squared_half_q": lambda: _x_squared(Q, [(Fraction(1, 2), "e")]),
    "x_squared_three_f2": lambda: _x_squared(Ring.Fp(2), [(3, "e")]),
    "x_squared_two_f3": lambda: _x_squared(F3, [(2, "e")]),
    "x_squared_zero": lambda: _x_squared(Z, [(2, "e"), (-2, "e")]),
    "x_squared_two_terms": lambda: _x_squared(Z, [(1, "e"), (1, "x")]),
    "x_squared_t_half_nov": lambda: _x_squared(NOV, [(T_HALF, "e")]),
    "x_squared_one_plus_t_nov": lambda: _x_squared(NOV, [(NOV.add(NOV.one, T_HALF), "e")]),
    "x_squared_one_nov": lambda: _x_squared(NOV, [(NOV.one, "e")]),
}


@pytest.mark.parametrize("name", ACTS_BY_ONE_CATEGORIES)
def test_acts_by_one_matches_the_ring_oracle(name):
    """The table check that the trivial modules exist raises as the Ring
    oracle does, message for message, on group rings, posets and tampered
    categories over Z, Q, F_p and Nov(Q, 2, 2)."""
    C = ACTS_BY_ONE_CATEGORIES[name]()

    def verdict(check):
        try:
            check(C)
        except EngineError as err:
            return str(err)
        return None
    want = verdict(acts_by_one_oracle)
    assert verdict(dgcat._acts_by_one) == want
    passes = name.startswith(("s3", "z3", "poset")) or name in (
        "planted_assoc", "x_squared_one_q", "x_squared_three_f2", "x_squared_one_nov")
    assert (want is None) == passes, want


def test_act_key_returns_the_builders_values():
    """The twist goes in and comes out: act_key is action_fn, and `A` holds
    u(m) = (-1)^{|m||u|} m.u."""
    C = _exterior()
    R = corepresented_right_module(C, "*")
    x, y = (k for k in C.all_keys() if k[3] in ("x", "y"))
    m = ("*", 1, "x")
    assert R.act_key(m, y) == {("*", 2, "xy"): 1}
    assert R.A.apply_key((("*",), "*", 1, "y"), ((1, "x"),)) == {(2, "xy"): -1}
    L = under_functor_left_module(DgFunctor.identity(C), "*")
    assert L.act_key(y, ("*", 1, "x")) == {("*", 2, "xy"): -1}
    assert L.A.M is C.op().M
    assert C.op().compose_keys(x, y) == {("*", "*", 2, "xy"): 1}


def test_module_action_off_object_raises():
    C = poset_category(Z, 1)
    R = RightModule(C, {0: ChainComplex.single(Z, "r"),
                        1: ChainComplex.single(Z, "r")},
                    lambda R, m, u: {(u[0], 0, "r"): Z.one})
    u = C.basis_keys(0, 1)[0]
    with pytest.raises(EngineError, match="module action off-signature"):
        R.act_key((0, 0, "r"), u)
    with pytest.raises(EngineError, match="module action mismatch"):
        R.act_key((1, 0, "r"), u)


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
    assert w is not None and w["axiom"] == "algebra-composition"


def test_planted_right_module_is_witnessed():
    C = group_ring_category(Z, 3, Z3)
    trivial = trivial_right_module(C)
    u = next(k for k in C.all_keys() if k != C.unit_key("*"))

    def action(R, mkey, ukey):
        out = trivial.act_key(mkey, ukey)
        return {k: 2 * v for k, v in out.items()} if ukey == u else out

    w = RightModule(C, trivial.complexes, action).validate()
    assert w is not None and w["axiom"] == "algebra-composition"
