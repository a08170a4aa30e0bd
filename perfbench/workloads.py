"""The benchmark's workloads: fixtures, seeded inputs, op lists and oracles.

Each workload stresses a different part of `opbar` and barely touches the
rest:

* `kan`: the operadic Kan extension of the paper's two-object model
  (`bar`, `complexes.tensor_many`, `Mat.column`); no Smith normal form.
* `group_homology`: integer group homology through the bar construction, with
  the basis order of each degree permuted by the seed (`linalg` Z routines).
  `bar` is never entered.
* `hocolim`: field, Novikov and quotient paths plus structure checks
  (`barcat`, `complexes` over Q and Novikov rings, `multicat.validate`).

A workload provides `fixtures(ob)` (fresh engine objects; built once per rep,
so that no rep sees caches a previous rep filled), `validate(fx)` (the set-up
checks) and `ops(ob, fx, rng)`.  An op prepares its inputs outside the timed
region, runs one engine call, and is then checked against an oracle, its
recorded digest, or both.  Probes are known engine defects: they run in the
timed op list like any op and are tallied on their own.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

DEFAULT_SEED = 0


class Op:
    """One engine call: prepare() -> args (untimed), run(args) (timed),
    check(value) -> None or a failure reason, digest(value) -> payload."""

    __slots__ = ("name", "prepare", "run", "check", "digest", "sizes",
                 "seeded", "probe")

    def __init__(self, name, run, prepare=None, check=None, digest=None,
                 sizes=None, seeded=False, probe=False):
        self.name = name
        self.prepare = prepare or (lambda: None)
        self.run = run
        self.check = check
        self.digest = digest
        self.sizes = sizes
        self.seeded = seeded
        self.probe = probe


class SetupError(Exception):
    """A fixture failed its own validation."""


def digest_of(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:20]


def complex_payload(C):
    """Labels and differential entries of a complex, in basis order."""
    return [(d, [repr(l) for l in C.labels(d)],
             sorted((i, j, repr(v)) for (i, j), v in C.d_mat(d).d.items()))
            for d in C.degrees()]


def map_payload(f):
    return [(d, sorted((i, j, repr(v)) for (i, j), v in f.mat(d).d.items()))
            for d in f.source.degrees()]


def dims(C):
    return {d: C.dim(d) for d in C.degrees()}


def _validated(**things):
    for name, thing in things.items():
        witness = thing.validate()
        if witness is not None:
            raise SetupError(f"fixture {name} fails validation: {witness}")


def _ok(cond, reason):
    return None if cond else reason


# ---------------------------------------------------------------------------
# kan
# ---------------------------------------------------------------------------


class Kan:
    """`operadic_kan` on `two_object_kappa` with rank-1 degree-0 carriers and
    all checks on, then homology on the reliable degrees; plus two probes.

    The inputs are the paper's two-object model and do not depend on the
    seed, so every output is checked against its recorded digest."""

    name = "kan"

    @staticmethod
    def fixtures(ob):
        Ring, fix, C = ob.coeff.Ring, ob.fixtures, ob.complexes
        Z, Q = Ring.Z(), Ring.Q()
        fx = {}
        M, A, _ = fix.two_object_kappa(Z)
        O = fix.sym_assoc_operad(Z, 3)
        fx["symas_z"] = (M, O, A, fix.projection_to_operad(M, O))
        M, A, _ = fix.two_object_kappa(Q)
        O = fix.as_operad(Q, 3)
        fx["as_q"] = (M, O, A, fix.projection_to_operad(M, O))
        # probe: one degree-1 generator per carrier, zero differential
        C0 = C.ChainComplex.single(Z, "c0", 1)
        C1 = C.ChainComplex.single(Z, "c1", 1)
        kappa = C.ChainMap.from_label_fn(C0, C1, 0, lambda l: [("c1", 1)])
        M, A, _ = fix.two_object_kappa(Z, C0, C1, kappa)
        O = fix.as_operad(Z, 3)
        fx["odd"] = (M, O, A, fix.projection_to_operad(M, O))
        # probe: the unit operad as target
        M, A, _ = fix.two_object_kappa(Z)
        pi = fix.projection_to_unit(M)
        fx["unit"] = (M, pi.target, A, pi)
        return fx

    @staticmethod
    def validate(ob, fx):
        for key, (M, O, A, pi) in fx.items():
            _validated(**{f"{key}.M": M, f"{key}.O": O, f"{key}.A": A,
                          f"{key}.pi": pi})

    @staticmethod
    def ops(ob, fx, rng):
        # Engine functions are looked up when an op runs, so that the tracer's
        # wrappers (installed around each op) see the calls.
        def kan_op(name, key, n_max):
            M, O, A, pi = fx[key]

            def run(_):
                real, structure = ob.bar.operadic_kan(pi, A, n_max)
                hs = [ob.complexes.homology(real.complex, d)
                      for d in real.reliable_degrees]
                return real, structure, hs

            def payload(value):
                real, _, hs = value
                return complex_payload(real.complex), [h.as_dict() for h in hs]

            return Op(name, run, digest=payload, sizes=kan_sizes)

        def probe(name, key, n_max):
            M, O, A, pi = fx[key]
            return Op(name, lambda _: ob.bar.operadic_kan(pi, A, n_max),
                      probe=True,
                      check=lambda value: None)

        return [kan_op("symas_z_n1", "symas_z", 1),
                kan_op("as_q_n2", "as_q", 2),
                probe("probe_odd_carrier", "odd", 1),
                probe("probe_unit_target", "unit", 2)]


def kan_sizes(value):
    """Level and realized dims, and the columns of the mu domain
    (realized^(x2) (x) O(2)) and of its truncation window."""
    real, structure, _ = value
    simp = real.simplicial
    levels = {n: simp.level(n).total_dim() for n in range(simp.n_max + 1)}
    star = structure.O.objects[0]
    o2 = structure.O.complex((star, star), star)
    o2_dim = o2.total_dim() if o2 is not None else 0
    total = sum(levels.values())
    window = sum(levels[a] * levels[b] for a in levels for b in levels
                 if a + b <= simp.n_max - 1)
    return {"level_dims": levels, "realized_dims": dims(real.complex),
            "mu_domain_cols": total * total * o2_dim,
            "mu_window_cols": window * o2_dim}


# ---------------------------------------------------------------------------
# group_homology
# ---------------------------------------------------------------------------

# (name, n, generators of G <= S_n, n_max, homology oracle, |G|)
GROUPS = [
    ("z3", 3, [(2, 3, 1)], 6, "cyclic", 3),
    ("z2", 2, [(2, 1)], 8, "cyclic", 2),
    ("s3", 3, [(2, 1, 3), (2, 3, 1)], 4, "s3", 6),
]


def integral_homology(kind, order, degree):
    """(free rank, torsion) of H_degree(G; Z) in closed form.

    Z/m: H_0 = Z, H_odd = Z/m, H_even>0 = 0 (periodic resolution).
    S_3: H_0 = Z, H_1 = Z/2, H_2 = 0.
    """
    if degree < 0:
        return 0, []
    if degree == 0:
        return 1, []
    if kind == "cyclic":
        return (0, [order]) if degree % 2 else (0, [])
    return {1: (0, [2]), 2: (0, [])}[degree]


def mod_p_dim(kind, order, degree, p):
    """dim H_degree(G; F_p) by the universal coefficient theorem."""
    rank, torsion = integral_homology(kind, order, degree)
    _, below = integral_homology(kind, order, degree - 1)
    return rank + sum(1 for t in torsion if t % p == 0) \
        + sum(1 for t in below if t % p == 0)


def permuted(ob, C, rng):
    """C with a seeded basis order in each degree: each disjoint pair of
    neighbours (0 1), (2 3), ... is swapped with probability 1/2.  The pivot
    path of elimination changes; a full shuffle would also change the fill-in
    so much that one seed's cost differs from the next by 20%."""
    Mat = ob.linalg.Mat
    pos, basis = {}, {}
    for d in C.degrees():
        order = list(range(C.dim(d)))
        for i in range(0, len(order) - 1, 2):
            if rng.random() < 0.5:
                order[i], order[i + 1] = order[i + 1], order[i]
        basis[d] = [C.labels(d)[i] for i in order]
        pos[d] = {old: new for new, old in enumerate(order)}
    diff = {}
    for d, m in C.diff.items():
        pd = C.pred(d)
        pm = Mat.zeros(C.ring, m.nrows, m.ncols)
        pm.d = {(pos[pd][i], pos[d][j]): v for (i, j), v in m.d.items()}
        diff[d] = pm
    return ob.complexes.ChainComplex(C.ring, C.grading, basis, diff,
                                     validate=False)


class GroupHomology:
    """B(Z, Z[G], Z) for Z/3 (n_max 6), Z/2 (n_max 8) and S_3 (n_max 4);
    integer homology in every reliable degree on a seeded basis order,
    then F_2 and F_3 homology of the same complexes.  Every homology is
    checked against its closed form or the universal-coefficient theorem;
    the bar complexes themselves do not depend on the seed and are checked
    against their recorded digests."""

    name = "group_homology"

    @staticmethod
    def fixtures(ob):
        Perm = ob.symgrp.Perm
        return {name: (n, [Perm(g) for g in gens], n_max, kind, order)
                for name, n, gens, n_max, kind, order in GROUPS}

    @staticmethod
    def validate(ob, fx):
        for name, (n, gens, _, _, order) in fx.items():
            got = len(ob.symgrp.enumerate_group(gens, n))
            if got != order:
                raise SetupError(f"group {name} has order {got}")

    @staticmethod
    def ops(ob, fx, rng):
        Ring = ob.coeff.Ring
        Z = Ring.Z()
        built = {}
        ops = []
        for name, (n, gens, n_max, kind, order) in fx.items():

            def bar_run(_, n=n, gens=gens, n_max=n_max, name=name):
                built[name] = ob.barcat.group_bar_complex(Z, n, gens, n_max)
                return built[name]

            ops.append(Op(f"bar_{name}", bar_run,
                          digest=lambda bar: complex_payload(bar.complex),
                          sizes=lambda bar: {
                              "realized_dims": dims(bar.complex),
                              "level_dims": {k: bar.simplicial.level(k).total_dim()
                                             for k in range(bar.n_max + 1)}}))

            def z_prepare(name=name):
                bar = built[name]
                built[name, "P"] = permuted(ob, bar.complex, rng)
                return built[name, "P"], bar.realized.reliable_degrees

            def z_run(args):
                P, degrees = args
                return [ob.complexes.homology(P, d) for d in degrees]

            def z_check(hs, kind=kind, order=order):
                for h in hs:
                    rank, torsion = integral_homology(kind, order, h.degree)
                    if (h.free_rank, h.invariant_factors) != (rank, torsion):
                        return f"H_{h.degree} = {h.format()}"
                return None

            ops.append(Op(f"hz_{name}", z_run, prepare=z_prepare, check=z_check,
                          digest=lambda hs: [h.as_dict() for h in hs],
                          sizes=lambda hs: {"degrees": [h.degree for h in hs]}))

            def fp_prepare(name=name):
                P = built[name, "P"]
                out = []
                for p in (2, 3):
                    F = Ring.Fp(p)
                    out.append((p, P.map_coefficients(F, lambda v, p=p: v % p)))
                return out, built[name].realized.reliable_degrees

            def fp_run(args):
                complexes, degrees = args
                return [(p, [ob.complexes.homology(C, d) for d in degrees])
                        for p, C in complexes]

            def fp_check(result, kind=kind, order=order):
                for p, hs in result:
                    for h in hs:
                        want = mod_p_dim(kind, order, h.degree, p)
                        if h.dimension != want:
                            return f"H_{h.degree}(F_{p}) = {h.format()}, want {want}"
                return None

            ops.append(Op(f"hfp_{name}", fp_run, prepare=fp_prepare,
                          check=fp_check,
                          digest=lambda r: [(p, [h.as_dict() for h in hs])
                                            for p, hs in r]))
        return ops


# ---------------------------------------------------------------------------
# hocolim
# ---------------------------------------------------------------------------

S3_GENS = [(2, 1, 3), (2, 3, 1)]
NOVIKOV_RANK = 5        # the acyclic Novikov complex has dims 5, 10, 5
TELESCOPE_LENGTH = 3    # C^0 -> ... -> C^3
TELESCOPE_DIMS = (2, 2)  # dims of each two-term complex in degrees 0, 1


def random_two_term(ob, ring, rng, n0, n1, tag):
    """A two-term complex whose differential is a rank-1 matrix of seeded
    signs: the seed never picks the shape, rank, sparsity or size of the
    entries, so that neither the homology nor the cost depends on it."""
    Mat = ob.linalg.Mat
    u = [rng.choice((-1, 1)) for _ in range(n0)]
    v = [rng.choice((-1, 1)) for _ in range(n1)]
    m = Mat.zeros(ring, n0, n1)
    for i in range(n0):
        for j in range(n1):
            m.set(i, j, ring.from_int(u[i] * v[j]))
    basis = {0: [f"{tag}y{i}" for i in range(n0)],
             1: [f"{tag}x{i}" for i in range(n1)]}
    return ob.complexes.ChainComplex(ring, "Z", basis, {1: m})


def unitriangular(ob, ring, rng, n, entry):
    """A seeded upper unitriangular matrix, full above the diagonal, and its
    inverse (back substitution)."""
    Mat = ob.linalg.Mat
    U = Mat.identity(ring, n)
    for i in range(n):
        for j in range(i + 1, n):
            U.set(i, j, entry())
    inv = Mat.identity(ring, n)
    for col in range(n):
        x = {}
        for i in range(n - 1, -1, -1):
            acc = ring.one if i == col else ring.zero
            for j in range(i + 1, n):
                u = U.d.get((i, j))
                if u is not None and j in x:
                    acc = ring.sub(acc, ring.mul(u, x[j]))
            if not ring.is_zero(acc):
                x[i] = acc
        for i, v in x.items():
            inv.set(i, col, v)
    return U, inv


def telescope_inputs(ob, Q, rng):
    """C^0 seeded; C^{i+1} = C^i conjugated by seeded unitriangular changes
    of basis, which are the maps C^i -> C^{i+1} (chain isomorphisms)."""
    ChainComplex, ChainMap = ob.complexes.ChainComplex, ob.complexes.ChainMap
    n0, n1 = TELESCOPE_DIMS
    cs = [random_two_term(ob, Q, rng, n0, n1, "c0")]
    maps = []

    def entry():
        return Q.from_int(rng.choice((-1, 1)))

    for t in range(1, TELESCOPE_LENGTH + 1):
        prev = cs[-1]
        U0, _ = unitriangular(ob, Q, rng, n0, entry)
        U1, U1inv = unitriangular(ob, Q, rng, n1, entry)
        d = U0.mul(prev.d_mat(1)).mul(U1inv)
        basis = {0: [f"c{t}y{i}" for i in range(n0)],
                 1: [f"c{t}x{i}" for i in range(n1)]}
        nxt = ChainComplex(Q, "Z", basis, {1: d})
        maps.append(ChainMap(prev, nxt, 0, {0: U0, 1: U1}))
        cs.append(nxt)
    return cs, maps


def novikov_acyclic(ob, nov, rng):
    """A seeded acyclic complex over Nov(Q, 2, 2) with positive-valuation
    entries: the cone of the identity of a seeded two-term complex, with a
    seeded unitriangular change of basis in every degree."""
    Mat = ob.linalg.Mat
    ChainComplex, ChainMap = ob.complexes.ChainComplex, ob.complexes.ChainMap
    n = NOVIKOV_RANK
    half = Fraction(1, 2)

    def element(min_exp):
        terms = [(Fraction(k, 2), Fraction(rng.choice((-1, 1))))
                 for k in range(int(min_exp * 2), 4)]
        return nov.canon(terms)

    m = Mat.zeros(nov, n, n)
    for i in range(n):
        for j in range(n):
            m.set(i, j, element(0))
    m.set(0, 0, nov.monomial(rng.choice((-1, 1)), half))
    B = ChainComplex(nov, "Z", {0: [f"y{i}" for i in range(n)],
                                1: [f"x{i}" for i in range(n)]}, {1: m})
    C = ob.complexes.cone(ChainMap.identity(B))
    change = {d: unitriangular(ob, nov, rng, C.dim(d), lambda: element(half))
              for d in C.degrees()}
    diff = {}
    for d in C.degrees():
        if C.d_mat(d).is_zero():
            continue
        diff[d] = change[C.pred(d)][1].mul(C.d_mat(d)).mul(change[d][0])
    return ChainComplex(nov, "Z", C.basis, diff)


def graded_power_dims(C, k_max):
    """Degree dims of C + C^(x2) + ... + C^(x k_max)."""
    base = dims(C)
    total, power = {}, {0: 1}
    for _ in range(k_max):
        nxt = {}
        for d1, a in power.items():
            for d2, b in base.items():
                nxt[d1 + d2] = nxt.get(d1 + d2, 0) + a * b
        power = nxt
        for d, v in power.items():
            total[d] = total.get(d, 0) + v
    return {d: v for d, v in sorted(total.items()) if v}


class Hocolim:
    """Telescope vs bar hocolim over Q; two-sided bars of the trivial and
    regular modules of Q[S_3] and Z[S_3] with their augmentation; a null
    homotopy and completion tower over Nov(Q, 2, 2); the BV operad's
    validation; the free sym-assoc algebra; and one probe."""

    name = "hocolim"

    @staticmethod
    def fixtures(ob):
        Ring, dg, fix = ob.coeff.Ring, ob.dgcat, ob.fixtures
        Perm = ob.symgrp.Perm
        fx = {"Q": Ring.Q(), "Z": Ring.Z(), "nov": Ring.novikov(Ring.Q(), 2, 2)}
        for key in ("Q", "Z"):
            C = dg.group_ring_category(fx[key], 3, [Perm(g) for g in S3_GENS])
            fx[f"s3_{key}"] = (
                C, dg.trivial_right_module(C), dg.trivial_left_module(C),
                dg.under_functor_left_module(dg.DgFunctor.identity(C),
                                             C.objects[0]))
        fx["bv"] = fix.bv_operad(fx["Q"], 3)[0]
        fx["symas_q2"] = fix.sym_assoc_operad(fx["Q"], 2)
        fx["as_z3"] = fix.as_operad(fx["Z"], 3)
        fx["probe_carrier"] = ob.complexes.ChainComplex.free(
            fx["Z"], {0: ["y"], 1: ["x"]}, {(1, "x", "y"): 1})
        return fx

    @staticmethod
    def validate(ob, fx):
        for key in ("Q", "Z"):
            C, Mr, Mt, Mreg = fx[f"s3_{key}"]
            _validated(**{f"S3_{key}": C, f"trivial_right_{key}": Mr,
                          f"trivial_left_{key}": Mt, f"regular_{key}": Mreg})
        _validated(symas_q2=fx["symas_q2"], as_z3=fx["as_z3"])

    @staticmethod
    def ops(ob, fx, rng):
        cx, barcat = ob.complexes, ob.barcat
        Q, nov = fx["Q"], fx["nov"]
        ops = []

        # -- telescope vs hocolim ------------------------------------------
        def tel_check(value):
            rep, last = value
            if not rep.verdict.ok:
                return f"telescope comparison is not a quasi-iso: {rep.verdict}"
            for d in (0, 1):
                if cx.homology(rep.telescope, d) != cx.homology(last, d):
                    return f"telescope homology differs from C^k in degree {d}"
            return None

        def tel_run(args):
            cs, maps = args
            return barcat.telescope_vs_hocolim(cs, maps, 5), cs[-1]

        ops.append(Op("telescope_q", tel_run, seeded=True,
                      prepare=lambda: telescope_inputs(ob, Q, rng),
                      check=tel_check,
                      digest=lambda v: (complex_payload(v[0].hocolim.complex),
                                        map_payload(v[0].comparison)),
                      sizes=lambda v: {
                          "telescope_dims": dims(v[0].telescope),
                          "realized_dims": dims(v[0].hocolim.complex)}))

        # -- two-sided bars of Q[S_3] and Z[S_3] -----------------------------
        for key in ("Q", "Z"):
            C, Mr, Mtriv, Mreg = fx[f"s3_{key}"]
            for module, Ml in (("trivial", Mtriv), ("regular", Mreg)):
                # B(k, k[S_3], k[S_3]) ~ k always; B(k, k[S_3], k) ~ k only
                # rationally: over Z the cone has H_1 = H_1(S_3) = Z/2.
                expect_qi = not (module == "trivial" and key == "Z")

                def bar_run(_, C=C, Mr=Mr, Ml=Ml):
                    bar = barcat.two_sided_bar(Mr, C, Ml, 3)
                    p, f, q, tensor, const = bar.augmentation_maps()
                    window = [d for d in bar.realized.reliable_degrees if d >= 0]
                    return bar, tensor, cx.is_quasi_iso(p, window)

                def bar_check(value, expect_qi=expect_qi):
                    _, tensor, verdict = value
                    if tensor.total_dim() != 1:
                        return f"Mr (x)_C Ml has dim {tensor.total_dim()}, want 1"
                    if verdict.ok != expect_qi:
                        return f"augmentation quasi-iso verdict {verdict}"
                    if not expect_qi and (verdict.witness or {}).get(
                            "cone_homology") != "Z/2":
                        return f"witness {verdict.witness}, want Z/2 in the cone"
                    return None

                ops.append(Op(
                    f"bar_{module}_{key.lower()}", bar_run, check=bar_check,
                    digest=lambda v: (complex_payload(v[0].complex),
                                      complex_payload(v[1]), v[2].ok),
                    sizes=lambda v: {"realized_dims": dims(v[0].complex),
                                     "tensor_dims": dims(v[1])}))

        # -- Novikov: null homotopy and completion tower -----------------------
        acyclic = {}

        def nh_prepare():
            acyclic["C"] = novikov_acyclic(ob, nov, rng)
            return acyclic["C"]

        def nh_check(h):
            C = h.source
            for d in C.degrees():
                lhs = C.d_mat(C.succ(d)).mul(h.mat(d)).add(
                    h.mat(C.pred(d)).mul(C.d_mat(d)))
                if lhs != ob.linalg.Mat.identity(nov, C.dim(d)):
                    return f"d h + h d != id in degree {d}"
            return None

        ops.append(Op("novikov_null_homotopy", lambda C: cx.null_homotopy(C),
                      seeded=True,
                      prepare=nh_prepare, check=nh_check, digest=map_payload,
                      sizes=lambda h: {"dims": dims(h.source)}))

        cutoffs = [Fraction(1, 2), 1, Fraction(3, 2), 2]

        def tower_prepare():
            C = acyclic["C"]
            u = nov.add(nov.one, nov.monomial(rng.choice((-2, -1, 1, 2)),
                                              Fraction(1, 2)))
            f = cx.ChainMap(C, C, 0, {d: ob.linalg.Mat.identity(nov, C.dim(d))
                                      .scale(u) for d in C.degrees()})
            positive = sum(1 for m in C.diff.values()
                           if any(nov.valuation(v) > 0 for v in m.d.values()))
            return f, 2 * positive

        def tower_run(args):
            f, want_flags = args
            return barcat.complete_tower(f, cutoffs, range(-1, 4)), want_flags

        def tower_check(value):
            rep, want_flags = value
            if not rep.all_quasi_iso:
                return "an automorphism failed the tower quasi-iso test"
            return _ok(len(rep.flags) == want_flags,
                       f"{len(rep.flags)} torsion flags, want {want_flags}")

        ops.append(Op("novikov_tower", tower_run, seeded=True,
                      prepare=tower_prepare, check=tower_check,
                      digest=lambda v: ([bool(x.ok) for x in v[0].verdicts.values()],
                                        len(v[0].flags))))

        # -- BV operad validation, free algebra, probe ------------------------
        ops.append(Op("bv_validate", lambda M: M.validate(),
                      prepare=lambda: fx["bv"],
                      check=lambda w: _ok(w is None, f"BV witness {w}")))

        def free_prepare():
            return random_two_term(ob, Q, rng, 2, 2, "fa")

        def free_run(C):
            return ob.bar.free_algebra(fx["symas_q2"], {"*": C}), C

        def free_check(value):
            res, C = value
            got = dims(res.complexes["*"])
            want = graded_power_dims(C, 2)
            return _ok(got == want, f"free algebra dims {got}, want {want}")

        ops.append(Op("free_algebra_symas_q2", free_run, prepare=free_prepare,
                      seeded=True, check=free_check,
                      digest=lambda v: complex_payload(v[0].complexes["*"]),
                      sizes=lambda v: {"dims": dims(v[0].complexes["*"])}))

        ops.append(Op("probe_free_as_z3",
                      lambda C: ob.bar.free_algebra(fx["as_z3"], {"*": C}),
                      prepare=lambda: fx["probe_carrier"], probe=True,
                      check=lambda value: None))
        return ops


WORKLOADS = {w.name: w for w in (Kan, GroupHomology, Hocolim)}
