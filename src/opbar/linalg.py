"""Sparse exact linear algebra over the coefficient rings.

Matrices are stored as {(row, col): value} dicts with explicit shape, and
hold no 0: every builder drops zeros, and only this module writes `Mat._d`.
Vectors are {index: value} dicts.  No floats anywhere.  One kernel per job:

* products, sums and exact checks -- `column_form` writes a matrix in int
  form, `column_product` multiplies forms, `_placed_sum` sums placed ones
  (under `block_matrix` and `form_sum`; below).  Each matrix keeps its
  form: `form` computes it on first use, and `from_form` builds a matrix
  from its form alone (products, placed sums, slice prefixes and
  `row_map`: identities, the bar's faces and degeneracies), whose values
  `Mat.d` restores (`_restore`) when something first reads them.  So no
  matrix is formed twice, and `Mat.set` alone drops a form.  A row map's
  form is (den, None, rows): its unit columns are built only when a
  kernel needs them (`_cols`), and a product of two is composed on their
  rows.  Every exact check decides on the forms (`columns_equal` or an
  emptiness test) and restores values only to name a witness;
* field elimination -- one forward elimination over plain ints
  (`eliminate`: primitive integer rows over Q, monic residues over F_p,
  over Z the rank over Q) and one back-reduction (`reduced_echelon`),
  which restores values once.  `field_rank` counts the pivots (all
  homology); `field_solve_mat` fully reduces the matrix with every
  right-hand side, once per degree for the null homotopy's splitting;
  `quotient.by_span` reduces the relation spans;
* the integer routines -- one Smith diagonalization (`_ZWorker`), on one
  path: a unit phase takes the +-1 pivots by row operations on the sparse
  rows and drops their rows and columns; a dense Smith loop diagonalizes
  the small block they leave, its pivot the smallest nonzero |entry| of
  the trailing block, cleared by 2x2 unimodular steps.  `snf_diagonal`
  (the invariant factors d1 | d2 | ..., integer homology's torsion) tracks
  no transform; `quotient.by_z_span` tracks the row transform U and its
  inverse through both phases.

Products and sums run over plain ints, never in `Ring` arithmetic: over Q
every entry is an int over den, the lcm of the matrix's denominators (a
kept product's den is its operands' dens multiplied, a sum's their lcm);
over F_p a residue.  Over a truncated Novikov ring K[t]/(t^N) (t = T^(1/q),
N = ceil(c * q)) a form is the slice list [S_0, ..., S_{N-1}]: S_k is the
base-field form of the T^(k/q) coefficients, with its own den and row
detection, or None when they are all 0 (an exponent off the grid raises
`NonGridExponent`).  Each kernel branches once on it and runs the
base-field kernel slice by slice; the residue is S_0 and the reduction to
a cutoff c' the first ceil(c' * q) slices.
Canonical forms are unique, so on canonical operands a restored product
or sum equals, value for value and type for type, the one computed entry
by entry in `Ring` arithmetic.
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

    Each keeps its int column form (`form`); one built from it (`row_map`,
    `from_form`) restores `d` from it on first read (`_d` is None until
    then).  Only linalg writes `_d`; `set` restores `d`, then drops the form."""

    __slots__ = ("ring", "nrows", "ncols", "_d", "_form")

    def __init__(self, ring: Ring, nrows: int, ncols: int, entries=None):
        """entries: {(row, col): canonical value}; the zeros (0, Fraction(0)
        or the empty Novikov tuple, all falsy) are dropped."""
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self._d = {k: v for k, v in entries.items() if v} if entries else {}
        self._form = None

    @property
    def d(self) -> dict:
        """The entries {(row, col): value}, restored on first read; a write
        replaces them and drops the kept form."""
        if self._d is None:
            self._d = _restore(self.ring, self._form)
        return self._d

    @d.setter
    def d(self, entries):
        self._d, self._form = entries, None

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
        d = self.d
        self._form = None
        if self.ring.is_zero(v):
            d.pop((i, j), None)
        else:
            d[(i, j)] = v

    def add_to(self, i, j, v):
        self.set(i, j, self.ring.add(self.get(i, j), v))

    def clone(self) -> "Mat":
        m = Mat(self.ring, self.nrows, self.ncols)
        m._d, m._form = None if self._d is None else dict(self._d), self._form
        return m

    def is_zero(self) -> bool:
        return _is_zero_form(self.ring, self._form) if self._d is None else not self._d

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
        if self.ring != other.ring:
            raise MixedRings("matrices over different rings")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.clone()
        for (i, j), v in other.d.items():
            out.add_to(i, j, v)
        return out

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.neg())

    def neg(self) -> "Mat":
        return Mat(self.ring, self.nrows, self.ncols,
                   {k: self.ring.neg(v) for k, v in self.d.items()})

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
        if self.is_zero() or other.is_zero():
            return Mat(self.ring, self.nrows, other.ncols)
        return from_form(self.ring, self.nrows, other.ncols,
                         column_product(self.ring, form(self), form(other)))

    def transpose(self) -> "Mat":
        return Mat(self.ring, self.ncols, self.nrows,
                   {(j, i): v for (i, j), v in self.d.items()})

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


# ---------------------------------------------------------------------------
# Products over plain ints, column by column
# ---------------------------------------------------------------------------


def _steps(ring: Ring) -> int:
    """N = ceil(c * q), the number of slices of a Novikov form over ring."""
    return math.ceil(ring.cutoff * ring.grid)


def column_form(ring: Ring, m: Mat):
    """(den, cols, rows): m in int form (see the module docstring), as one
    {row: int} dict per column, {} for a zero column, and rows None; or,
    when every column is the single int entry (r, 1), as faces and
    degeneracies mostly are, cols None and rows the row r of each column
    (`_cols` builds its unit columns on demand).  Over Novikov the slice
    list of such forms (`_slice_forms`).  `form` calls it once per matrix
    and keeps the result.

    Forms share columns: unit columns are interned (`_unit_columns`), and
    `column_product` hands an operand's column on as the product's, so no
    column of a form may be mutated."""
    if ring.kind == "nov":
        return _slice_forms(ring, m.d, m.ncols)
    return _base_form(ring, m.d, m.ncols)


def _base_form(ring: Ring, entries: dict, ncols: int):
    """The `column_form` of entries {(row, col): value} over Z, Q or F_p;
    over Q the ints are the values times den, the lcm of their denominators."""
    den, cols = 1, [{} for _ in range(ncols)]
    if ring.kind == "Q":
        den = math.lcm(*{v.denominator for v in entries.values()})
        entries = {k: v.numerator * (den // v.denominator) for k, v in entries.items()}
    for (i, j), w in entries.items():
        cols[j][i] = w
    return _with_rows(den, cols)


def _with_rows(den: int, cols: list):
    """The form (den, cols, None), or (den, None, rows) when every column
    is the single int entry (r, 1)."""
    rows = []
    for col in cols:
        if len(col) != 1 or 1 not in col.values():
            return den, cols, None
        rows += col
    return den, None, rows


def _slice_forms(ring: Ring, entries: dict, ncols: int) -> list:
    """The slice list of Novikov entries: each term c T^e goes to slice k =
    e * q as the base-field value c, and each nonzero slice is formed as a
    base-field matrix (`_base_form`).  Raises NonGridExponent off the grid."""
    q = ring.grid
    by_step = [{} for _ in range(_steps(ring))]
    for key, v in entries.items():
        for e, c in v:
            k, r = divmod(e.numerator * q, e.denominator)
            if r or k < 0:
                raise NonGridExponent(f"exponent {e} not on grid (1/{q})Z>=0")
            by_step[k][key] = c
    return [_base_form(ring.base, s, ncols) if s else None for s in by_step]


_units = {}  # row -> the unit column {row: 1}, one dict each


def _unit_columns(rows):
    """The columns {r: 1} of a map with rows, interned in `_units`."""
    return [_units.get(r) or _units.setdefault(r, {r: 1}) for r in rows]


def _cols(f) -> list:
    """The columns of a base-field form; a row map's are built here."""
    return f[1] if f[1] is not None else _unit_columns(f[2])


def _is_zero_form(ring: Ring, f) -> bool:
    """Whether a zero-free form holds no entry (over Novikov: no slice)."""
    if ring.kind == "nov":
        return not any(f)
    return not (any(f[1]) if f[1] is not None else f[2])


def form(m: Mat):
    """The `column_form` of m, computed on first use and kept with m (a
    product or a row map keeps its form from construction)."""
    if m._form is None:
        m._form = column_form(m.ring, m)
    return m._form


def from_form(ring: Ring, nrows: int, ncols: int, form) -> Mat:
    """The matrix of a zero-free column form, which it keeps; `d` restores
    its values on first read.  None (a zero slice) gives the zero matrix."""
    m = Mat(ring, nrows, ncols)
    if form is not None:
        m._d, m._form = None, form
    return m


def row_map(ring: Ring, nrows: int, rows) -> Mat:
    """The nrows x len(rows) matrix whose column j is the single entry
    (rows[j], 1), as identities, faces and degeneracies mostly are, built
    from its form (`from_form`) as `column_form` would compute it: (1,
    None, rows), over Novikov that in slice 0 and None above it (None too
    without columns)."""
    f = (1, None, rows)
    if ring.kind == "nov":
        f = [f if rows else None] + [None] * (_steps(ring) - 1)
    return from_form(ring, nrows, len(rows), f)


def column_product(ring: Ring, g, f):
    """The column form of g * f, from the column forms of g and f.

    Column j of the product is g's column r itself when column j of f is
    the single int entry (r, 1), whatever f's denominator: the product's
    ints are g's ints times f's, over den_g * den_f; when g is a row map
    too, the product's rows are g's rows read at f's, and no column is
    built.  Otherwise g's columns are scaled or accumulated over plain
    ints, zeros dropped.  Over Novikov slice k is the `form_sum` of the
    base-field products G_a F_b, a + b = k."""
    if ring.kind == "nov":
        return [form_sum(ring.base, [column_product(ring.base, G, F)
                                     for G, F in zip(g[:k + 1], f[k::-1]) if G and F])
                for k in range(len(g))]
    den_g, _, g_rows = g
    den_f, f_cols, f_rows = f
    if f_rows is not None and g_rows is not None:
        return den_g * den_f, None, [g_rows[r] for r in f_rows]
    g_cols = _cols(g)
    if f_rows is not None:
        return den_g * den_f, [g_cols[r] for r in f_rows], None
    p = ring.p
    out = []
    for col in f_cols:
        if len(col) == 1:
            ((r, c),) = col.items()
            if c == 1:
                out.append(g_cols[r])
            elif p:
                out.append({i: c * w % p for i, w in g_cols[r].items()})
            else:
                out.append({i: c * w for i, w in g_cols[r].items()})
        elif not col:
            out.append({})
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


def _restore(ring: Ring, form) -> dict:
    """The canonical entries {(row, col): value} of a column form: n / den
    as a `Fraction` (one object per distinct n), the residue over F_p; over
    Novikov the slices' restored values merged into term tuples, slice k
    at the exponent k / q."""
    if ring.kind == "nov":
        terms = {}
        for k, s in enumerate(form):
            if s is not None:
                e = Fraction(k, ring.grid)
                for key, c in _restore(ring.base, s).items():
                    terms.setdefault(key, []).append((e, c))
        return {key: tuple(t) for key, t in terms.items()}
    den, cols = form[0], _cols(form)
    if ring.kind == "Q":
        fr = {}  # n -> Fraction(n, den); n is never 0
        return {(i, j): fr.get(n) or fr.setdefault(n, Fraction(n, den))
                for j, col in enumerate(cols) for i, n in col.items()}
    return {(i, j): n for j, col in enumerate(cols) for i, n in col.items()}


def form_sum(ring: Ring, forms):
    """The column form of a sum of base-field column forms of one shape, or
    None if 0; a single form is its own sum."""
    s = forms[0] if len(forms) == 1 else _placed_sum(
        ring, len(_cols(forms[0])) if forms else 0, [(f, 0, 0, 1) for f in forms])
    return None if _is_zero_form(ring, s) else s


def columns_equal(ring: Ring, a, b) -> bool:
    """Whether two column forms hold the same matrix: when both are row
    maps, equal rows (at one den, unless without columns); else plain
    equality of the column lists when their denominators agree, otherwise
    each side scaled by the other's denominator; over Novikov per slice."""
    if ring.kind == "nov":
        return all(x is y or x and y and columns_equal(ring.base, x, y)
                   for x, y in zip(a, b))
    den_a, _, a_rows = a
    den_b, _, b_rows = b
    if a_rows is not None and b_rows is not None:
        return a_rows == b_rows and (den_a == den_b or not a_rows)
    a_cols, b_cols = _cols(a), _cols(b)
    if den_a == den_b:
        return a_cols == b_cols
    if len(a_cols) != len(b_cols):
        return False
    return all({i: n * den_b for i, n in x.items()} ==
               {i: n * den_a for i, n in y.items()}
               for x, y in zip(a_cols, b_cols))


def block_matrix(ring: Ring, nrows: int, ncols: int, blocks) -> Mat:
    """For `complexes.total`, its one caller: the sum of sign * m (sign +-1)
    over placed blocks (m, row_offset, col_offset, sign), summed from their
    kept forms (`_placed_sum`) and kept with its own (`from_form`)."""
    return from_form(ring, nrows, ncols, _placed_sum(
        ring, ncols, [(form(m), r0, c0, sign) for m, r0, c0, sign in blocks]))


def _placed_sum(ring: Ring, ncols: int, placed):
    """The zero-free form, ncols wide, of sum sign * f over placed forms (f,
    row_offset, col_offset, sign), over ints at the lcm of their dens (a row
    map's as +-den at each (r, j)), mod p, with rows when it is a row map
    (`_with_rows`); an entry is dropped where its sum cancels to 0 (mod p).
    Over Novikov slice by slice, None where the slice sums to 0."""
    if ring.kind == "nov":
        sums = [_placed_sum(ring.base, ncols, [(f[k], r0, c0, sign)
                                               for f, r0, c0, sign in placed if f[k]])
                for k in range(_steps(ring))]
        return [None if _is_zero_form(ring.base, s) else s for s in sums]
    den, p = math.lcm(*(f[0] for f, _, _, _ in placed)), ring.p
    cols = [{} for _ in range(ncols)]
    for (d, f_cols, f_rows), r0, c0, sign in placed:
        s = sign * (den // d)
        if f_rows is not None:  # no column walk
            for j, i in enumerate(f_rows, c0):
                col, i = cols[j], i + r0
                w = col.get(i, 0) + s
                if p:
                    w %= p
                if w:
                    col[i] = w
                else:
                    del col[i]
        else:
            for col, f_col in zip(cols[c0:], f_cols):
                for i, n in f_col.items():
                    i += r0
                    w = col.get(i, 0) + s * n
                    if p:
                        w %= p
                    if w:
                        col[i] = w
                    else:
                        del col[i]
    return _with_rows(den, cols)


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


def _unimodular(a: int, b: int):
    """(p, q, r, s) of determinant 1 with r a + s b = 0, for a != 0: when
    a | b the subtraction (1, 0, -b/a, 1), since xgcd(a, a) would swap;
    otherwise p a + q b = gcd(a, b) from `xgcd`."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    x, y, g = xgcd(a, b)
    return x, y, -(b // g), a // g


class _ZWorker:
    """Smith diagonalization over Z, optionally tracking the row transform.

    One path: the unit phase (`_take_units`) takes the +-1 pivots on A kept
    as dict-of-rows with a column-occupancy index; a dense Smith loop then
    diagonalizes the block of rows and columns it leaves.  With track_u,
    each row operation E is applied to U (rows), so U @ A_orig tracks the
    row history, and E^-1 to U^-1 (columns), so U @ Uinv stays the
    identity; track_u changes no pivot.  Column operations are not tracked.
    """

    def __init__(self, mat: Mat, track_u=False):
        self.m = mat.nrows
        self.n = mat.ncols
        self.rows = {}
        self.colocc = {}
        for (i, j), v in mat.d.items():
            self.rows.setdefault(i, {})[j] = v
            self.colocc.setdefault(j, set()).add(i)
        self.pivots = []  # the row of each pivot, in the order taken
        # U as row -> {col: val}, Uinv as col -> {row: val}; both start as I
        self.U = {i: {i: 1} for i in range(self.m)} if track_u else None
        self.Uinv = {i: {i: 1} for i in range(self.m)} if track_u else None

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

    def _take_units(self):
        """The unit phase: one sweep over the columns takes in each column
        j its +-1 entry of the shortest row i, if any, as a pivot.  Row
        operations clear column j in the other rows; then row i and column j
        leave A, with no swap and no column operation.  Exact: column j is
        now +-e_i, so the column operations clearing row i touch row i
        alone: SNF(A) = 1 (+) SNF(the rest).  Records each pivot row in
        `pivots`; returns how many it took."""
        rows, colocc = self.rows, self.colocc
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
            self.pivots.append(i)
        return len(self.pivots)

    def diagonalize(self):
        """Bring A to diagonal form; returns the list of nonzero diagonals.
        The unit phase takes the +-1 pivots, a 1 each.  The rows and columns
        it leaves, which hold every other invariant factor (those it emptied
        being zero), are copied into a dense block; at each step the
        smallest nonzero |entry| of the trailing block is the pivot, and
        2x2 unimodular steps (`_unimodular`) clear its column (row steps,
        mirrored on U and U^-1) and its row (column steps) until both are
        clear.  With track_u the pivot rows are then moved first, so the
        rows r.. of U annihilate A, r the number of pivots."""
        diag = [1] * self._take_units()
        ids = sorted(self.rows)
        cols = sorted({j for row in self.rows.values() for j in row})
        block = [[self.rows[i].get(j, 0) for j in cols] for i in ids]
        m, n = len(ids), len(cols)
        for k in range(min(m, n)):
            nonzero = [(abs(v), a, b) for a in range(k, m)
                       for b, v in enumerate(block[a][k:], k) if v]
            if not nonzero:
                break
            _, a, b = min(nonzero)
            block[k], block[a], ids[k], ids[a] = block[a], block[k], ids[a], ids[k]
            for row in block:
                row[k], row[b] = row[b], row[k]
            # each step keeps the pivot nonzero, and a column step that
            # refills column k lowers |pivot|, so the loop ends
            while True:
                for a in range(k + 1, m):
                    if block[a][k]:
                        p, q, r, s = _unimodular(block[k][k], block[a][k])
                        x, y = block[k], block[a]
                        block[k] = [p * u + q * v for u, v in zip(x, y)]
                        block[a] = [r * u + s * v for u, v in zip(x, y)]
                        if self.U is not None:
                            _mix(self.U, ids[k], ids[a], p, q, r, s)
                            _mix(self.Uinv, ids[k], ids[a], s, -r, -q, p)
                for b in range(k + 1, n):
                    if block[k][b]:
                        p, q, r, s = _unimodular(block[k][k], block[k][b])
                        for row in block:
                            x, y = row[k], row[b]
                            row[k], row[b] = p * x + q * y, r * x + s * y
                if not any(block[a][k] for a in range(k + 1, m)):
                    break
            diag.append(abs(block[k][k]))
            self.pivots.append(ids[k])
        if self.U is not None:
            order = self.pivots + sorted(set(range(self.m)) - set(self.pivots))
            self.U = {t: self.U[i] for t, i in enumerate(order)}
            self.Uinv = {t: self.Uinv[i] for t, i in enumerate(order)}
        return diag


def snf_diagonal(mat: Mat):
    """Nonzero diagonal of the Smith normal form, as a divisibility chain:
    one `_ZWorker.diagonalize` (unit phase, then dense loop), then the chain."""
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
