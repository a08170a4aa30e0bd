"""Quotients of free complexes by relation spans, with their projections.

`_assemble` builds every quotient in the engine.  From the quotient basis, a
projection P_d: C_d -> Q_d and a section S_d: Q_d -> C_d with P_d S_d = 1 in
each degree, the quotient differential is P d S.  That is the induced
differential exactly when the relations (the kernel of P) span a subcomplex,
which is checked as P d = d_Q P; d^2 = 0 is then checked on the quotient.

Three front ends compute the basis, P and S:

* `by_classes`, over any ring: each basis index goes to +-rep or to 0.  The
  caller picks the representatives: `barcat._free_quotient` by union-find
  (the least label of a class in `repr` order), `symgrp.coinvariants` the
  least index of an orbit, `simplicial.normalized_realization` every
  non-degenerate label.  The quotient basis is the representatives' labels
  in basis order.
* `by_span`, over a field: the relations in fully reduced row echelon
  form, from the one field elimination of `linalg` (`eliminate` over plain
  ints, then `reduced_echelon`); the quotient basis is the non-pivot
  labels.
* `by_z_span`, over Z: one Smith diagonalization of the relation matrix
  (the unit phase, then the dense loop) that tracks the row transform U
  and its inverse; the quotient must be free (torsion raises
  UnsupportedRing), with basis labels ("q", degree, t).

The engine-wide free-quotient convention: a class on which the relations
force x = -x (an orbit whose stabilizer acts by a sign) is sent to 0, so
the quotient stays free and its 2-torsion is dropped.
"""

from __future__ import annotations

from .complexes import ChainComplex, ChainMap
from .errors import DegreeMismatch, UnsupportedRing
from .linalg import Mat, _ZWorker, eliminate, reduced_echelon, row_map


def _assemble(C: ChainComplex, basis: dict, proj: dict, section: dict):
    """(quotient, projection) from {degree: quotient labels} and the
    matrices P_d and S_d for every degree of C.  When the relations span no
    subcomplex, DegreeMismatch keeps the failing label's ``.witness``."""
    diff = {d: proj[C.pred(d)].mul(C.d_mat(d)).mul(section[d])
            for d, ls in basis.items() if ls and basis.get(C.pred(d))}
    quot = ChainComplex(C.ring, "Z", basis, diff, validate=False)
    p = ChainMap(C, quot, 0, proj, validate=False)
    try:
        p.validate()
    except DegreeMismatch as err:
        raise DegreeMismatch(f"relation span is not a subcomplex: {err}",
                             witness=err.witness) from None
    return quot.validate(), p


def by_classes(C: ChainComplex, classes: dict):
    """Quotient by x_i = s x_rep; classes[d][i] is (rep, s) with s = +-1,
    or None for an index sent to 0.  The representatives are the indices
    whose class is (i, 1)."""
    ring = C.ring
    sign = {1: ring.one, -1: ring.from_int(-1)}
    basis, proj, section = {}, {}, {}
    for d in C.degrees():
        cls = classes[d]
        reps = [i for i, c in enumerate(cls) if c == (i, 1)]
        pos = {i: k for k, i in enumerate(reps)}
        basis[d] = [C.labels(d)[i] for i in reps]
        proj[d] = Mat(ring, len(reps), len(cls), {
            (pos[c[0]], j): sign[c[1]] for j, c in enumerate(cls) if c is not None})
        section[d] = row_map(ring, len(cls), reps)
    return _assemble(C, basis, proj, section)


def by_span(C: ChainComplex, spans: dict):
    """Quotient by the per-degree spans {d: [{index: coeff}]} over a field.

    Each span is put in fully reduced row echelon form (`linalg.eliminate`,
    then `linalg.reduced_echelon`); a kept (non-pivot) index projects to
    itself and a pivot index j to minus the rest of its row."""
    ring = C.ring
    basis, proj, section = {}, {}, {}
    for d in C.degrees():
        pivots = reduced_echelon(ring, eliminate(ring, spans.get(d, ()))[1])
        keep = [j for j in range(C.dim(d)) if j not in pivots]
        pos = {j: k for k, j in enumerate(keep)}
        basis[d] = [C.labels(d)[j] for j in keep]
        entries = {(k, j): ring.one for k, j in enumerate(keep)}
        entries.update(((pos[kk], j), ring.neg(v)) for j, row in pivots.items()
                       for kk, v in row.items() if kk != j)
        proj[d] = Mat(ring, len(keep), C.dim(d), entries)
        section[d] = row_map(ring, C.dim(d), keep)
    return _assemble(C, basis, proj, section)


def by_z_span(C: ChainComplex, spans: dict):
    """Quotient by the per-degree spans {d: [{index: int}]} over Z.

    With U R V = diag (Smith normal form, r nonzero entries; U from the
    unit phase and the dense loop of `_ZWorker`, its pivot rows first), the
    rows r.. of U annihilate R and project, and the columns r.. of U^-1,
    tracked next to U, are the section."""
    ring = C.ring
    basis, proj, section = {}, {}, {}
    for d in C.degrees():
        n = C.dim(d)
        rels = spans.get(d, [])
        worker = _ZWorker(Mat(ring, n, len(rels),
                              {(i, j): v for j, vec in enumerate(rels)
                               for i, v in vec.items()}), track_u=True)
        diag = worker.diagonalize()
        if any(abs(x) != 1 for x in diag):
            raise UnsupportedRing("integer quotient has torsion")
        r = len(diag)
        basis[d] = [("q", d, t) for t in range(n - r)]
        proj[d] = Mat(ring, n - r, n, {(i - r, k): v
                                       for i, row in worker.U.items() if i >= r
                                       for k, v in row.items()})
        section[d] = Mat(ring, n, n - r, {(i, k - r): v
                                          for k, col in worker.Uinv.items()
                                          if k >= r for i, v in col.items()})
    return _assemble(C, basis, proj, section)
