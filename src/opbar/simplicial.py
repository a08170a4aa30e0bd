"""Truncated simplicial objects in chain complexes and their realizations.

The realization is semisimplicial: `complexes.total` over the levels, level
n shifted by n with labels ("lv", n, l), and one arrow (-1)^i d_i per face,
so the total differential is

    d  =  (-1)^n d_int  +  sum_{i=0..n} (-1)^i d_i      (on the level-n part)

(the internal twist makes the cross terms cancel; d^2 = 0 is asserted on
the int form that `total` sums from the levels' and faces' forms).  A
normalized variant quotients by the degeneracy images, which in this engine
are always basis labels, so the quotient stays free and exact over any ring;
it is built by `quotient.by_classes`, the one place quotients are assembled.

Homology of a truncated realization is only meaningful in low degrees: the
degree-d differential sees levels <= d + 1 only, so with internal degrees
bounded below by d_min, degrees d <= n_max + d_min - 2 are reliable.
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex, ChainMap, check_chain_maps, \
    first_difference, total
from .errors import EngineError, TruncationTooSmall
from .linalg import _cols, form
from .quotient import by_classes


class SimplicialComplexObj:
    """Levels (chain complexes) with faces d_i and degeneracies s_i.  With
    validate, a failing simplicial identity raises EngineError with
    `check_identities`'s dict as ``.witness``."""

    def __init__(self, n_max, levels, faces, degens, validate=True):
        if n_max < 1:
            raise TruncationTooSmall("need at least one simplicial level")
        self.n_max = n_max
        self.levels = dict(levels)
        self.faces = dict(faces)
        self.degens = dict(degens)
        if validate:  # the identities reuse the chain-map checks' forms
            check_chain_maps([*self.faces.values(), *self.degens.values()])
            w = self.check_identities()
            if w is not None:
                raise EngineError(f"simplicial identities fail: {w}", witness=w)

    def level(self, n) -> ChainComplex:
        return self.levels[n]

    def face(self, n, i) -> ChainMap:
        return self.faces[(n, i)]

    def degen(self, n, i) -> ChainMap:
        return self.degens[(n, i)]

    def check_identities(self):
        """Check every simplicial identity among the stored maps:
        d_i d_j = d_{j-1} d_i (i < j), d_i s_j = id (i = j, j + 1),
        d_i s_j = s_{j-1} d_i (i < j), d_i s_j = s_j d_{i-1} (i > j + 1) and
        s_i s_j = s_{j+1} s_i (i <= j).

        Returns None, or the first failing identity as {"identity": "dd",
        "ds=id", "ds" or "ss", "n", "i", "j"}.  Each face and degeneracy
        keeps its column form, so it is formed once (a row map never);
        composites: `complexes.first_difference`."""
        def degree(x):  # of a stored map or a pair (outer, inner)
            return x.degree if isinstance(x, ChainMap) else x[0].degree + x[1].degree

        def same(lhs, rhs):
            return degree(lhs) == degree(rhs) and \
                first_difference(lhs, rhs) is None

        face, degen = self.face, self.degen
        for n in range(2, self.n_max + 1):
            for j in range(0, n + 1):
                for i in range(0, j):
                    if not same((face(n - 1, i), face(n, j)),
                                (face(n - 1, j - 1), face(n, i))):
                        return {"identity": "dd", "n": n, "i": i, "j": j}
        for n in range(0, self.n_max):
            unit = ChainMap.identity(self.level(n))
            for j in range(0, n + 1):
                if (n, j) not in self.degens:
                    continue
                s = degen(n, j)
                for i in range(0, n + 2):
                    lhs = (face(n + 1, i), s)
                    if i == j or i == j + 1:
                        if not same(lhs, unit):
                            return {"identity": "ds=id", "n": n, "i": i, "j": j}
                    elif i < j:
                        if not same(lhs, (degen(n - 1, j - 1), face(n, i))):
                            return {"identity": "ds", "n": n, "i": i, "j": j}
                    elif not same(lhs, (degen(n - 1, j), face(n, i - 1))):
                        return {"identity": "ds", "n": n, "i": i, "j": j}
                if n + 2 <= self.n_max:
                    for i in range(0, j + 1):
                        if (n + 1, i) not in self.degens or (n, i) not in self.degens:
                            continue
                        if not same((degen(n + 1, i), s),
                                    (degen(n + 1, j + 1), degen(n, i))):
                            return {"identity": "ss", "n": n, "i": i, "j": j}
        return None


class RealizedComplex:
    """The realization, with provenance back to (level, label)."""

    def __init__(self, simplicial: SimplicialComplexObj):
        self.simplicial = simplicial
        levels = [simplicial.level(n) for n in range(simplicial.n_max + 1)]
        self.complex = total(  # checks d^2 = 0
            levels[0].ring, [(("lv", n), lv, n) for n, lv in enumerate(levels)],
            [(n, n - 1, simplicial.face(n, i), -1 if i % 2 else 1)
             for n in range(1, len(levels)) for i in range(n + 1)])
        self.d_min = min(min(lv.degrees(), default=0) for lv in levels)

    @property
    def reliable_degrees(self):
        top = self.simplicial.n_max + self.d_min - 2
        lo = self.d_min - 1
        return list(range(lo, top + 1))


def realize(simplicial: SimplicialComplexObj) -> RealizedComplex:
    return RealizedComplex(simplicial)


def normalized_realization(simplicial: SimplicialComplexObj):
    """Quotient by degeneracy images; returns (complex, projection from the
    semisimplicial realization).

    Requires every degeneracy to send basis labels to basis labels (true for
    all constructions in this engine); the quotient is then free on the
    non-degenerate labels.  Each degeneracy is read off its kept form, over
    a Novikov ring off slice 0, where the entries 1 lie, every other slice
    being None.
    """
    C = realize(simplicial).complex
    degenerate = set()
    for (n, i), s in simplicial.degens.items():
        for d in simplicial.level(n).degrees():
            m = s.mat(d)
            f = form(m)
            if m.ring.is_novikov:
                if any(f[1:]):
                    raise EngineError("degeneracy has a non-unit coefficient")
                f = f[0] or (1, [{}] * m.ncols, [])  # None: no column has a label
            den, _, rows = f
            if any(len(col) != 1 for col in _cols(f)):
                raise EngineError("degeneracy is not label-to-label")
            if rows is None or den != 1:
                raise EngineError("degeneracy has a non-unit coefficient")
            degenerate.update(("lv", n + 1, s.target.labels(d)[r]) for r in rows)
    return by_classes(C, {d: [None if l in degenerate else (j, 1)
                              for j, l in enumerate(C.labels(d))]
                          for d in C.degrees()})


# ---------------------------------------------------------------------------
# Eilenberg-Zilber shuffles
# ---------------------------------------------------------------------------


def shuffles(p, q):
    """(p,q)-shuffles as (sign, x_degeneracy_word, y_degeneracy_word).

    The words list simplicial degeneracy indices in increasing order (applied
    first-to-last); x receives the complementary positions of y and vice
    versa, following the standard shuffle formula for the EZ map
    X_p (x) Y_q -> (X x Y)_{p+q}.
    """
    out = []
    total = p + q
    for mu in itertools.combinations(range(total), p):
        nu = tuple(k for k in range(total) if k not in mu)
        # sign: parity of the shuffle permutation (mu, nu)
        seq = list(mu) + list(nu)
        inv = sum(1 for a in range(total) for b in range(a + 1, total)
                  if seq[a] > seq[b])
        sign = -1 if inv % 2 else 1
        out.append((sign, nu, mu))
    return out


def constant_simplicial(C: ChainComplex, n_max) -> SimplicialComplexObj:
    """The constant simplicial object on C (all faces/degeneracies identity)."""
    levels = {n: C for n in range(0, n_max + 1)}
    faces = {}
    degens = {}
    for n in range(1, n_max + 1):
        for i in range(0, n + 1):
            faces[(n, i)] = ChainMap.identity(C)
    for n in range(0, n_max):
        for i in range(0, n + 1):
            degens[(n, i)] = ChainMap.identity(C)
    return SimplicialComplexObj(n_max, levels, faces, degens, validate=False)
