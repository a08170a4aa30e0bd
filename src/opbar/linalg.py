"""Sparse exact linear algebra over the coefficient rings.

Matrices are stored as {(row, col): value} dicts with explicit shape, and
hold no 0: every builder drops zeros, and only this module writes `Mat.d`.
Vectors are {index: value} dicts.  No floats anywhere.  One kernel per job:

* products, sums and exact checks -- `column_form` writes a matrix in int
  form, `column_product` multiplies forms, `_placed_sum` sums placed ones
  (under `block_matrix` and `form_sum`; below).  Each matrix keeps its
  form: `form` computes it on first use, `from_form` (`Mat.mul`,
  `block_matrix`) builds a matrix from its form and restores the values
  once (`_restore`), and `row_map` (identities, the bar's faces and
  degeneracies: every column one entry (r, 1)) sets it at construction,
  so no matrix is formed twice and `Mat.set` alone drops it.
  Every exact check decides on the forms (`columns_equal` or an emptiness
  test) and restores values only to name a witness;
* field elimination -- one forward elimination over plain ints
  (`eliminate`: primitive integer rows over Q, monic residues over F_p,
  over Z the rank over Q) and one back-reduction (`reduced_echelon`),
  which restores values once.  `field_rank` counts the pivots (all
  homology); `field_solve_mat` fully reduces the matrix with every
  right-hand side, once per degree for the null homotopy's splitting;
  `quotient.by_span` reduces the relation spans;
* the integer routines -- one Smith diagonalization (`_ZWorker`) whose
  swap loop's pivot is the first +-1 entry of the trailing block, or
  without one the smallest-magnitude entry with the fewest fill.
  `snf_diagonal` (the invariant factors d1 | d2 | ..., integer homology's
  torsion) tracks no transform: a unit phase first takes the +-1 pivots by
  row operations and drops their rows and columns, leaving the loop the
  torsion block; `quotient.by_z_span` tracks the row transform U and its
  inverse, on the swap loop alone.

Products and sums run over plain ints, never in `Ring` arithmetic: over Q
every entry is an int over den, the lcm of the matrix's denominators (a
kept product's den is its operands' dens multiplied, a sum's their lcm);
over F_p a residue; over a truncated Novikov ring an int polynomial in the
grid step, c T^e as the term (k, n) with k = e * q (off the grid raises
`NonGridExponent`), truncated at k < ceil(c * q).
Canonical forms are unique, so on canonical operands a restored product
or sum equals, value for value and type for type, the one computed entry
by entry in `Ring` arithmetic.

The grid-slice view (`slices`) regroups a Novikov int form by grid step
into base-field column forms; the null homotopy's lift, cutoff reduction
and residues run on it, with the base-field kernels, and `from_slices`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coeff import Ring
from .errors import MixedRings, NonGridExponent


def xgcd(a: int, b: int):
    """Extended euclid: returns (x, y, g) with x*a + y*b == g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class Mat:
    """A sparse matrix over an exact ring, zero-free: no entry of `d` is 0.

    Only linalg writes `d`; `set` drops the kept column form (`form`)."""

    __slots__ = ("ring", "nrows", "ncols", "d", "_form")

    def __init__(self, ring: Ring, nrows: int, ncols: int, entries=None):
        """entries: {(row, col): canonical value}; the zeros (0, Fraction(0)
        or the empty Novikov tuple, all falsy) are dropped."""
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.d = {k: v for k, v in entries.items() if v} if entries else {}
        self._form = None

    @staticmethod
    def zeros(ring, nrows, ncols) -> "Mat":
        return Mat(ring, nrows, ncols)

    @staticmethod
    def identity(ring, n) -> "Mat":
        return row_map(ring, n, list(range(n)))

    @staticmethod
    def from_rows(ring, rows) -> "Mat":
        return Mat(ring, len(rows), len(rows[0]) if rows else 0,
                   {(i, j): ring.canon(v) for i, row in enumerate(rows)
                    for j, v in enumerate(row)})

    def get(self, i, j):
        return self.d.get((i, j), self.ring.zero)

    def set(self, i, j, v):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        self._form = None
        if self.ring.is_zero(v):
            self.d.pop((i, j), None)
        else:
            self.d[(i, j)] = v

    def add_to(self, i, j, v):
        self.set(i, j, self.ring.add(self.get(i, j), v))

    def clone(self) -> "Mat":
        m = Mat(self.ring, self.nrows, self.ncols)
        m.d, m._form = dict(self.d), self._form
        return m

    def is_zero(self) -> bool:
        return not self.d

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.d == other.d
        )

    def __hash__(self):
        raise TypeError("Mat is mutable")

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {len(self.d)} entries)"

    def add(self, other: "Mat") -> "Mat":
        self._check(other)
        out = self.clone()
        for (i, j), v in other.d.items():
            out.add_to(i, j, v)
        return out

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.neg())

    def neg(self) -> "Mat":
        out = Mat(self.ring, self.nrows, self.ncols)
        out.d = {k: self.ring.neg(v) for k, v in self.d.items()}
        return out

    def scale(self, c) -> "Mat":
        return Mat(self.ring, self.nrows, self.ncols,
                   {k: self.ring.mul(c, v) for k, v in self.d.items()})

    def scale_int(self, n: int) -> "Mat":
        return self.scale(self.ring.from_int(n))

    def mul(self, other: "Mat") -> "Mat":
        """The product self * other: the `column_product` of both operands'
        kept forms (`form`), restored to canonical entries without zeros
        (see the module docstring); the product keeps its form too."""
        if self.ring != other.ring:
            raise MixedRings("matrix product over different rings")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.ncols} vs {other.nrows}")
        if not (self.d and other.d):
            return Mat(self.ring, self.nrows, other.ncols)
        return from_form(self.ring, self.nrows,
                         column_product(self.ring, form(self), form(other)))

    def transpose(self) -> "Mat":
        out = Mat(self.ring, self.ncols, self.nrows)
        out.d = {(j, i): v for (i, j), v in self.d.items()}
        return out

    def column(self, j) -> dict:
        """Column j as {row: value}.

        Each call scans every nonzero entry, O(nnz): use it for a single
        lookup, never in a loop over all columns (use `columns` there)."""
        return {i: v for (i, jj), v in self.d.items() if jj == j}

    def columns(self) -> dict:
        """{col: {row: value}} for every nonzero column, from one walk."""
        out = {}
        for (i, j), v in self.d.items():
            out.setdefault(j, {})[i] = v
        return out

    def map_ring(self, new_ring: Ring, fn) -> "Mat":
        return Mat(new_ring, self.nrows, self.ncols,
                   {k: new_ring.canon(fn(v)) for k, v in self.d.items()})

    def to_rows(self):
        rows = [[self.ring.zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.d.items():
            rows[i][j] = v
        return rows

    def _check(self, other: "Mat"):
        if self.ring != other.ring:
            raise MixedRings("matrices over different rings")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")


# ---------------------------------------------------------------------------
# Products over plain ints, column by column
# ---------------------------------------------------------------------------


def _int_form(ring: Ring, entries: dict):
    """(den, ints) with entries == ints / den; den is 1 unless over Q."""
    if ring.kind != "Q":
        return 1, entries
    den = math.lcm(*{v.denominator for v in entries.values()})
    if den == 1:
        return 1, {key: v.numerator for key, v in entries.items()}
    return den, {key: v.numerator * (den // v.denominator)
                 for key, v in entries.items()}


def _fraction_restorer(den: int):
    """n -> Fraction(n, den), one object per distinct n."""
    restored = {}

    def restore(n):
        f = restored.get(n)
        if f is None:
            f = restored[n] = Fraction(n, den)
        return f
    return restore


def _nov_int_form(ring: Ring, entries: dict):
    """(den, {key: ((k, n), ...)}): each term c T^e becomes the grid step
    k = e * grid and the int n = c * den, den the lcm of the coefficient
    denominators (1 over F_p).  Raises NonGridExponent off the grid."""
    q = ring.grid
    den = math.lcm(*{c.denominator for v in entries.values() for _, c in v})
    out = {}
    for key, v in entries.items():
        terms = []
        for e, c in v:
            k, r = divmod(e.numerator * q, e.denominator)
            if r or k < 0:
                raise NonGridExponent(f"exponent {e} not on grid (1/{q})Z>=0")
            terms.append((k, c.numerator * (den // c.denominator)))
        out[key] = tuple(terms)
    return den, out


def column_form(ring: Ring, m: Mat):
    """(den, cols, rows): m in int form (see the module docstring), as one
    {row: int} dict per column, {} for a zero column; over Novikov each int
    is a tuple of grid-step terms (k, n).  rows lists, column by column, the
    row r of a map whose every column is the single int entry (r, 1), as
    faces and degeneracies mostly are; it is None otherwise.  `form` calls
    it once per matrix and keeps the result.

    Forms share columns: the columns of maps with rows are the interned
    unit columns (`_unit_columns`), and `column_product` hands an operand's
    column on as the product's, so no column of a form may be mutated."""
    if ring.kind == "nov":
        den, ints = _nov_int_form(ring, m.d)
    else:
        den, ints = _int_form(ring, m.d)
    one = _int_one(ring)
    at = {j: i for i, j in ints} if all(w == one for w in ints.values()) else {}
    if len(at) == len(ints) == m.ncols:  # every column one entry (r, 1)
        rows = [at[j] for j in range(m.ncols)]
        return den, _unit_columns(rows, one), rows
    cols = [{} for _ in range(m.ncols)]
    for (i, j), w in ints.items():
        cols[j][i] = w
    return den, cols, None


def _int_one(ring: Ring):
    return ((0, 1),) if ring.kind == "nov" else 1


_units = {}  # (row, int one) -> the unit column {row: one}, one dict each


def _unit_columns(rows, one):
    """The columns {r: one} of a map with rows, interned in `_units`."""
    return [_units.get((r, one)) or _units.setdefault((r, one), {r: one})
            for r in rows]


def form(m: Mat):
    """The `column_form` of m, computed on first use and kept with m (a
    product or a row map keeps its form from construction)."""
    if m._form is None:
        m._form = column_form(m.ring, m)
    return m._form


def from_form(ring: Ring, nrows: int, form) -> Mat:
    """The matrix of a zero-free column form: values restored once, form kept."""
    m = Mat(ring, nrows, len(form[1]))
    m.d, m._form = _restore(ring, form), form
    return m


def row_map(ring: Ring, nrows: int, rows) -> Mat:
    """The nrows x len(rows) matrix whose column j is the single entry
    (rows[j], 1), as identities, faces and degeneracies mostly are, with its
    column form set at construction, as `column_form` would compute it."""
    m = Mat(ring, nrows, len(rows))
    m.d = {(r, j): ring.one for j, r in enumerate(rows)}
    m._form = (1, _unit_columns(rows, _int_one(ring)), rows)
    return m


def column_product(ring: Ring, g, f):
    """The column form of g * f, from the column forms of g and f.

    Column j of the product is g's column r itself when column j of f is
    the single int entry (r, 1), whatever f's denominator: the product's
    ints are g's ints times f's, over den_g * den_f.  Otherwise g's columns
    are scaled or accumulated over plain ints, zeros dropped."""
    den_g, g_cols, _ = g
    den_f, f_cols, f_rows = f
    if f_rows is not None:
        return den_g * den_f, [g_cols[r] for r in f_rows], None
    nov = ring.kind == "nov"
    p = ring.base.p if nov else ring.p
    one = _int_one(ring)
    out = []
    for col in f_cols:
        if len(col) == 1:
            ((r, c),) = col.items()
            if c == one:
                out.append(g_cols[r])
                continue
            if not nov:
                if p:
                    out.append({i: c * w % p for i, w in g_cols[r].items()})
                else:
                    out.append({i: c * w for i, w in g_cols[r].items()})
                continue
        if not col:
            out.append({})
        elif nov:
            out.append(_nov_column(ring, g_cols, col))
        else:
            acc = {}
            get = acc.get
            for r, c in col.items():
                for i, w in g_cols[r].items():
                    acc[i] = get(i, 0) + c * w
            if p:
                out.append({i: n % p for i, n in acc.items() if n % p})
            else:
                out.append({i: n for i, n in acc.items() if n})
    return den_g * den_f, out, None


def _nov_column(ring: Ring, g_cols, col):
    """One column of a Novikov product: a sum of int polynomials in the
    grid step, truncated to k1 + k2 < ceil(c * q), terms sorted by k."""
    steps = math.ceil(ring.cutoff * ring.grid)
    p = ring.base.p
    acc = {}
    for r, c in col.items():
        for i, w in g_cols[r].items():
            poly = acc.get(i)
            if poly is None:
                poly = acc[i] = {}
            for k1, n1 in c:
                for k2, n2 in w:
                    e = k1 + k2
                    if e < steps:
                        poly[e] = poly.get(e, 0) + n1 * n2
    return {i: t for i, poly in acc.items() if (t := _terms(poly, p))}


def _terms(poly: dict, p) -> tuple:
    """{grid step k: int n} as Novikov int terms (k, n), n != 0 mod p."""
    if p:
        return tuple((k, poly[k] % p) for k in sorted(poly) if poly[k] % p)
    return tuple((k, poly[k]) for k in sorted(poly) if poly[k])


def _restore(ring: Ring, form) -> dict:
    """The canonical entries {(row, col): value} of a column form: n / den
    as a `Fraction` (one object per distinct n), the residue over F_p, and
    over Novikov each grid step k as the exponent k / q."""
    den, cols, _ = form
    if ring.kind == "Q":
        restore = _fraction_restorer(den)
        return {(i, j): restore(n)
                for j, col in enumerate(cols) for i, n in col.items()}
    if ring.kind != "nov":
        return {(i, j): n for j, col in enumerate(cols) for i, n in col.items()}
    q = ring.grid
    exponents = {}
    if ring.base.kind == "Q":
        coeff = _fraction_restorer(den)
    else:
        def coeff(n):
            return n
    out = {}
    for j, col in enumerate(cols):
        for i, terms in col.items():
            restored = []
            for k, n in terms:
                e = exponents.get(k)
                if e is None:
                    e = exponents[k] = Fraction(k, q)
                restored.append((e, coeff(n)))
            out[(i, j)] = tuple(restored)
    return out


def slices(m: Mat) -> list:
    """The grid-slice view of a Novikov matrix m: [S_0, ..., S_{K-1}], K =
    ceil(c * q), S_k the base-field column form of the T^(k/q) coefficients
    (None when they are all 0), over the one den of m's int form, regrouped
    from m's kept `form`."""
    den, cols, _ = form(m)
    out = [[{} for _ in range(m.ncols)]
           for _ in range(math.ceil(m.ring.cutoff * m.ring.grid))]
    for j, col in enumerate(cols):
        for i, terms in col.items():
            for k, n in terms:
                out[k][j][i] = n
    return [(den, cols, None) if any(cols) else None for cols in out]


def from_slices(ring: Ring, forms, nrows: int, ncols: int) -> Mat:
    """The Novikov matrix sum_k T^(k/q) S_k of base-field column forms S_k
    (None: zero), restored once over the lcm of their dens; over a field,
    the one S_0."""
    if ring.kind != "nov":
        return Mat(ring, nrows, ncols, forms[0] and _restore(ring, forms[0]))
    forms = [(k, f) for k, f in enumerate(forms) if f]
    den = math.lcm(*(f[0] for _, f in forms))
    cols = [{} for _ in range(ncols)]
    for k, (d, f_cols, _) in forms:
        for col, f_col in zip(cols, f_cols):
            for i, n in f_col.items():
                col.setdefault(i, []).append((k, n * (den // d)))
    return Mat(ring, nrows, ncols, _restore(ring, (den, cols, None)))


def form_sum(ring: Ring, forms):
    """The column form of a sum of column forms of one shape, or None if 0."""
    s = _placed_sum(ring, len(forms[0][1]) if forms else 0,
                    [(f, 0, 0, 1) for f in forms])
    return s if any(s[1]) else None


def columns_equal(ring: Ring, a, b) -> bool:
    """Whether two column forms hold the same matrix: plain equality of the
    column lists when their denominators agree, otherwise each side scaled
    by the other's denominator."""
    den_a, a_cols, _ = a
    den_b, b_cols, _ = b
    if den_a == den_b:
        return a_cols == b_cols
    if len(a_cols) != len(b_cols):
        return False
    if ring.kind == "nov":
        def scaled(col, s):
            return {i: [(k, n * s) for k, n in t] for i, t in col.items()}
    else:
        def scaled(col, s):
            return {i: n * s for i, n in col.items()}
    return all(scaled(x, den_b) == scaled(y, den_a)
               for x, y in zip(a_cols, b_cols))


def block_matrix(ring: Ring, nrows: int, ncols: int, blocks) -> Mat:
    """For `complexes.total`, its one caller: the sum of sign * m (sign +-1)
    over placed blocks (m, row_offset, col_offset, sign), summed from their
    kept forms (`_placed_sum`) and kept with its own (`from_form`)."""
    return from_form(ring, nrows, _placed_sum(
        ring, ncols, [(form(m), r0, c0, sign) for m, r0, c0, sign in blocks]))


def _placed_sum(ring: Ring, ncols: int, placed):
    """The zero-free form, ncols wide, of sum sign * f over placed forms (f,
    row_offset, col_offset, sign), over ints at the lcm of their dens (a row
    map's as +-den at each (r, j)), per grid step over Novikov, mod p."""
    den = math.lcm(*(f[0] for f, _, _, _ in placed))
    cols = [{} for _ in range(ncols)]
    for (d, f_cols, f_rows), r0, c0, sign in placed:
        s = sign * (den // d)
        if ring.kind == "nov":
            for col, f_col in zip(cols[c0:], f_cols):
                for i, terms in f_col.items():
                    poly = col.setdefault(i + r0, {})
                    for k, n in terms:
                        poly[k] = poly.get(k, 0) + s * n
        elif f_rows is not None:  # no column walk
            for j, i in enumerate(f_rows, c0):
                cols[j][i + r0] = cols[j].get(i + r0, 0) + s
        else:
            for col, f_col in zip(cols[c0:], f_cols):
                for i, n in f_col.items():
                    col[i + r0] = col.get(i + r0, 0) + s * n
    if ring.kind == "nov":
        cols = [{i: t for i, poly in col.items() if (t := _terms(poly, ring.base.p))}
                for col in cols]
    elif ring.p:
        cols = [{i: n % ring.p for i, n in col.items() if n % ring.p} for col in cols]
    else:
        cols = [{i: n for i, n in col.items() if n} for col in cols]
    return den, cols, None


# ---------------------------------------------------------------------------
# Field routines: one elimination over plain ints
# ---------------------------------------------------------------------------


def _int_row(ring: Ring, row: dict) -> dict:
    """The row {col: value} as plain ints: over F_p a copy (the values are
    residues), over Q a new primitive integer row, over Z the row itself."""
    if ring.p:
        return dict(row)
    if ring.kind != "Q":
        return row
    den = math.lcm(*(v.denominator for v in row.values()))
    row = {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}
    g = math.gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _clear(row: dict, prow: dict, j: int, p) -> dict:
    """row with its entry at column j cleared by the pivot row prow: over
    F_p row - c * prow, prow monic, in place; over Q and Z a new row
    a * row - c * prow (a, c the entries of prow and row at j over their
    gcd), divided by its content."""
    c = row[j]
    if p:
        for k, v in prow.items():
            w = (row.get(k, 0) - c * v) % p
            if w:
                row[k] = w
            else:
                del row[k]
        return row
    a = prow[j]
    g = math.gcd(a, c)
    a, c = a // g, c // g
    row = {k: a * v for k, v in row.items()}
    for k, v in prow.items():
        w = row.get(k, 0) - c * v
        if w:
            row[k] = w
        else:
            del row[k]
    g = math.gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def eliminate(ring: Ring, rows) -> tuple:
    """(kept, pivots): forward elimination of the rows {col: value} over Q,
    F_p or Z (there over Q), in order, on plain ints (`_int_row`), without
    back-reduction.  Each row is cleared at its least column until that
    column has no pivot row, then inserted there, monic over F_p.  kept
    lists the positions of the rows independent of the rows before them;
    pivots maps each leading column to its int row."""
    p = ring.p
    kept, pivots = [], {}
    for t, row in enumerate(rows):
        row = _int_row(ring, row)
        while row:
            j = min(row)
            prow = pivots.get(j)
            if prow is None:
                if p:
                    inv = pow(row[j], -1, p)
                    row = {k: v * inv % p for k, v in row.items()}
                pivots[j] = row
                kept.append(t)
                break
            row = _clear(row, prow, j, p)
    return kept, pivots


def reduced_echelon(ring: Ring, pivots: dict) -> dict:
    """The fully reduced row echelon form of `eliminate`'s pivot rows over
    Q or F_p: {pivot column: row}, each row 1 at its pivot and 0 at every
    other pivot column.  The rows are back-reduced from the last pivot over
    plain ints, then their values restored once."""
    out = {}
    for j in sorted(pivots, reverse=True):
        row = dict(pivots[j])
        for k in [k for k in row if k != j and k in out]:
            row = _clear(row, out[k], k, ring.p)
        out[j] = row
    if ring.p:
        return out
    return {j: {k: Fraction(v, row[j]) for k, v in row.items()}
            for j, row in out.items()}


def _rows_of(mat: Mat):
    """{row: {col: value}} of mat's entries."""
    rows = {}
    for (i, j), v in mat.d.items():
        rows.setdefault(i, {})[j] = v
    return rows


def field_rank(mat: Mat) -> int:
    """The rank over Q (of an integer or rational matrix) or over F_p: the
    number of pivots of `eliminate`, without back-reduction."""
    ring = mat.ring
    if ring.kind not in ("Q", "Z", "Fp"):
        raise ValueError(f"field_rank needs Q, Z or F_p, not {ring!r}")
    return len(eliminate(ring, _rows_of(mat).values())[1])


def field_solve_mat(mat: Mat, rhs: Mat):
    """One solution X of mat @ X = rhs over a field, free variables 0, from
    one elimination of [mat | rhs], column c of rhs under the key
    mat.ncols + c; None if any column of rhs is outside the column space of
    mat, which is when some pivot falls in rhs."""
    ring, n = mat.ring, mat.ncols
    rows = _rows_of(mat)
    for (i, c), v in rhs.d.items():
        rows.setdefault(i, {})[n + c] = v
    pivots = eliminate(ring, rows.values())[1]
    if pivots and max(pivots) >= n:
        return None
    return Mat(ring, n, rhs.ncols,
               {(j, k - n): v for j, row in reduced_echelon(ring, pivots).items()
                for k, v in row.items() if k >= n})


# ---------------------------------------------------------------------------
# Integer routines (Smith normal form)
# ---------------------------------------------------------------------------


def _addmul(vecs, dst, src, c):
    """vecs[dst] += c * vecs[src], on a dict of sparse int vectors."""
    vdst = vecs.setdefault(dst, {})
    for k, v in vecs.get(src, {}).items():
        acc = vdst.get(k, 0) + c * v
        if acc:
            vdst[k] = acc
        else:
            vdst.pop(k, None)


def _mix(vecs, i1, i2, a, b, c, d):
    """vecs[i1], vecs[i2] <- a vecs[i1] + b vecs[i2], c vecs[i1] + d vecs[i2]."""
    v1, v2 = vecs.get(i1, {}), vecs.get(i2, {})
    new1, new2 = {}, {}
    for k in v1.keys() | v2.keys():
        x, y = v1.get(k, 0), v2.get(k, 0)
        s, t = a * x + b * y, c * x + d * y
        if s:
            new1[k] = s
        if t:
            new2[k] = t
    vecs[i1], vecs[i2] = new1, new2


class _ZWorker:
    """Row/column reduction over Z, optionally tracking the row transform.

    Maintains A as dict-of-rows plus a column-occupancy index.  With
    track_u, each row operation E is applied to U (rows), so U @ A_orig
    tracks the row history, and E^-1 to U^-1 (columns) as the inverse
    column operation, so U @ Uinv stays the identity.  Without it,
    `diagonalize` runs the unit phase (`_take_units`) before the swap loop.
    """

    def __init__(self, mat: Mat, track_u=False):
        self.m = mat.nrows
        self.n = mat.ncols
        self.rows = {}
        self.colocc = {}
        for (i, j), v in mat.d.items():
            self.rows.setdefault(i, {})[j] = v
            self.colocc.setdefault(j, set()).add(i)
        # U as row -> {col: val}, Uinv as col -> {row: val}; both start as I
        self.U = {i: {i: 1} for i in range(self.m)} if track_u else None
        self.Uinv = {i: {i: 1} for i in range(self.m)} if track_u else None

    # -- elementary ops (row ops also applied to U and U^-1) ---------------

    def _set(self, i, j, v):
        row = self.rows.setdefault(i, {})
        if v == 0:
            if j in row:
                del row[j]
                occ = self.colocc.get(j)
                occ.discard(i)
                if not occ:
                    del self.colocc[j]
            if not row:
                del self.rows[i]
        else:
            row[j] = v
            self.colocc.setdefault(j, set()).add(i)

    def swap_rows(self, i1, i2):
        if i1 == i2:
            return
        r1 = self.rows.pop(i1, {})
        r2 = self.rows.pop(i2, {})
        for j in r1:
            self.colocc[j].discard(i1)
        for j in r2:
            self.colocc[j].discard(i2)
        if r2:
            self.rows[i1] = r2
            for j in r2:
                self.colocc.setdefault(j, set()).add(i1)
        if r1:
            self.rows[i2] = r1
            for j in r1:
                self.colocc.setdefault(j, set()).add(i2)
        # every column of r1 or r2 got i2 or i1 back, so none is left empty
        if self.U is not None:
            for vecs in (self.U, self.Uinv):
                vecs[i1], vecs[i2] = vecs.get(i2, {}), vecs.get(i1, {})

    def swap_cols(self, j1, j2):
        if j1 == j2:
            return
        occ = self.colocc.get(j1, set()) | self.colocc.get(j2, set())
        for i in occ:
            row = self.rows.get(i, {})
            a, b = row.get(j1), row.get(j2)
            self._set(i, j1, b or 0)
            self._set(i, j2, a or 0)

    def addmul_row(self, dst, src, c):
        """row[dst] += c * row[src] (dst != src); on U^-1, col[src] -= c *
        col[dst].  Each column of row src keeps src, so none goes empty."""
        if c == 0:
            return
        row, colocc = self.rows.setdefault(dst, {}), self.colocc
        for j, v in self.rows.get(src, {}).items():
            w = row.get(j, 0) + c * v
            if w:
                row[j] = w
                colocc[j].add(dst)
            else:
                del row[j]
                colocc[j].discard(dst)
        if not row:
            del self.rows[dst]
        if self.U is not None:
            _addmul(self.U, dst, src, c)
            _addmul(self.Uinv, src, dst, -c)

    def addmul_col(self, dst, src, c):
        """col[dst] += c * col[src]"""
        if c == 0:
            return
        for i in list(self.colocc.get(src, set())):
            v = self.rows.get(i, {}).get(src, 0)
            cur = self.rows.get(i, {}).get(dst, 0)
            self._set(i, dst, cur + c * v)

    def gcd_rows(self, i1, i2, j):
        """Unimodular 2x2 row op making A[i1,j] = gcd, A[i2,j] = 0."""
        a = self.rows.get(i1, {}).get(j, 0)
        b = self.rows.get(i2, {}).get(j, 0)
        if b == 0:
            return
        if a != 0 and b % a == 0:
            self.addmul_row(i2, i1, -(b // a))
            return
        if a == 0:
            self.swap_rows(i1, i2)
            return
        x, y, g = xgcd(a, b)
        ag, bg = a // g, b // g
        r1 = dict(self.rows.get(i1, {}))
        r2 = dict(self.rows.get(i2, {}))
        for jj in set(r1) | set(r2):
            aa, bb = r1.get(jj, 0), r2.get(jj, 0)
            self._set(i1, jj, x * aa + y * bb)
            self._set(i2, jj, -bg * aa + ag * bb)
        if self.U is not None:
            # [[x, y], [-b/g, a/g]] has inverse [[a/g, -y], [b/g, x]]
            _mix(self.U, i1, i2, x, y, -bg, ag)
            _mix(self.Uinv, i1, i2, ag, bg, -y, x)

    def gcd_cols(self, j1, j2, i):
        a = self.rows.get(i, {}).get(j1, 0)
        b = self.rows.get(i, {}).get(j2, 0)
        if b == 0:
            return
        if a != 0 and b % a == 0:
            self.addmul_col(j2, j1, -(b // a))
            return
        if a == 0:
            self.swap_cols(j1, j2)
            return
        x, y, g = xgcd(a, b)
        ag, bg = a // g, b // g
        occ = set(self.colocc.get(j1, set())) | set(self.colocc.get(j2, set()))
        for ii in occ:
            row = self.rows.get(ii, {})
            aa, bb = row.get(j1, 0), row.get(j2, 0)
            self._set(ii, j1, x * aa + y * bb)
            self._set(ii, j2, -bg * aa + ag * bb)

    # -- main loop --------------------------------------------------------

    def _take_units(self):
        """The unit phase: one sweep over the columns takes in each column
        j its +-1 entry of the shortest row i, if any, as a pivot.  Row
        operations clear column j in the other rows; then row i and column j
        leave A, with no swap and no column operation.  Exact: column j is
        now +-e_i, so the column operations clearing row i touch row i
        alone: SNF(A) = 1 (+) SNF(the rest).  Returns the pivots taken."""
        rows, colocc = self.rows, self.colocc
        taken = 0
        for j in range(self.n):
            occ = colocc.get(j, ())
            units = [(len(rows[i]), i) for i in occ if rows[i][j] in (1, -1)]
            if not units:
                continue
            i = min(units)[1]
            u = rows[i][j]
            for r in [r for r in occ if r != i]:
                self.addmul_row(r, i, -u * rows[r][j])
            for c in rows.pop(i):
                colocc[c].discard(i)
                if not colocc[c]:
                    del colocc[c]
            taken += 1
        return taken

    def diagonalize(self):
        """Bring A to diagonal form; returns the list of nonzero diagonals.
        Without track_u, the unit phase (`_take_units`) first takes the +-1
        pivots, a 1 each; the swap loop then sees the rest, which holds every
        invariant factor other than 1, the rows and columns the phase
        emptied being zero.  With track_u the swap loop runs on all of A."""
        diag = [1] * self._take_units() if self.U is None else []
        k = 0
        limit = min(self.m, self.n)
        while k < limit:
            piv = self._pick_pivot(k)
            if piv is None:
                break
            pi, pj = piv
            self.swap_rows(k, pi)
            self.swap_cols(k, pj)
            # a gcd step keeps A[k, k] != 0 and clears A[i, k] (A[k, j]),
            # touching rows k and i (columns k and j) alone
            while True:
                for i in sorted(i for i in self.colocc[k] if i > k):
                    self.gcd_rows(k, i, k)
                row_cols = sorted(j for j in self.rows[k] if j > k)
                if not row_cols:
                    break
                for j in row_cols:
                    self.gcd_cols(k, j, k)
                if not any(i > k for i in self.colocc[k]):
                    break
            diag.append(abs(self.rows[k][k]))
            k += 1
        return diag

    def _pick_pivot(self, k):
        """The first +-1 entry of the trailing block; without one, the
        smallest-magnitude entry with the fewest fill as tie-break."""
        best = None
        rows = self.rows
        for j, occ in self.colocc.items():
            if j < k:
                continue
            for i in occ:
                if i < k:
                    continue
                v = abs(rows[i][j])
                if v == 1:
                    return i, j
                key = (v, len(rows[i]) + len(occ), i, j)
                if best is None or key < best:
                    best = key
        return best and best[2:]


def snf_diagonal(mat: Mat):
    """Nonzero diagonal of the Smith normal form, as a divisibility chain:
    one `_ZWorker.diagonalize` (unit phase, then swap loop), then the chain."""
    if mat.ring.kind != "Z":
        raise ValueError("snf_diagonal is an integer routine")
    return _divisibility_chain(_ZWorker(mat).diagonalize())


def _divisibility_chain(diag):
    """The invariant factors d1 | d2 | ... of a diagonal, by gcd/lcm passes."""
    diag = sorted(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                _, _, g = xgcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
        diag.sort()
    return diag
