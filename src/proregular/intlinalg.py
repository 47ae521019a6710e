"""Exact linear algebra over the integers.

Everything here works on arbitrary-precision Python ints, so there is no
overflow and no modular shortcut: normal forms are computed by classical
unimodular row/column operations.  The three workhorses are

* ``hermite_normal_form`` -- row echelon form ``U*M = H`` with unimodular
  ``U``, positive pivots and reduced entries above each pivot,
* ``smith_normal_form``  -- ``U*M*V = D`` diagonal with the divisibility
  chain ``d1 | d2 | ...``, nonnegative entries and zeros trailing,
* ``column_style_hermite`` -- the transposed variant ``M*V = H`` used for
  solving and kernel computations; ``hnf_solver`` back-substitutes through
  the pivots of a column HNF, so a stored one answers membership as it is.

All matrices are immutable ``Mat`` values; operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix with explicit shape (entries may be any ring)."""

    nrows: int
    ncols: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows) -> "Mat":
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        return Mat(len(rows), ncols, rows)

    @staticmethod
    def identity(n: int, one=1, zero=0) -> "Mat":
        return Mat(n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Mat":
        return Mat(self.ncols, self.nrows, tuple(self.col(i) for i in range(self.ncols)))

    def __iter__(self):
        return iter(self.rows)


def mat_from_cols(cols, nrows: int) -> Mat:
    """Assemble a matrix from a list of columns (each of length ``nrows``)."""
    for c in cols:
        if len(c) != nrows:
            raise ValueError("column length mismatch")
    return Mat(nrows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(nrows)))


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


# ---------------------------------------------------------------------------
# Hermite normal form (row style)


def hermite_normal_form(m: Mat):
    """Return ``(H, U)`` with ``U*M = H``, ``U`` unimodular, ``H`` in row HNF.

    Pivots are positive, entries above a pivot lie in ``[0, pivot)`` and
    zero rows are trailing.

    >>> H, U = hermite_normal_form(Mat.from_rows([[2], [3]]))
    >>> H.rows
    ((1,), (0,))
    """
    a = [list(r) for r in m.rows]
    u = [list(r) for r in Mat.identity(m.nrows).rows]
    prow = 0
    for col in range(m.ncols):
        if prow >= m.nrows:
            break
        # gcd-eliminate below prow in this column
        while True:
            nz = [r for r in range(prow, m.nrows) if a[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: (abs(a[r][col]), r))
            if r0 != prow:
                a[prow], a[r0] = a[r0], a[prow]
                u[prow], u[r0] = u[r0], u[prow]
            done = True
            for r in range(prow + 1, m.nrows):
                if a[r][col] == 0:
                    continue
                q = a[r][col] // a[prow][col]
                a[r] = [x - q * y for x, y in zip(a[r], a[prow])]
                u[r] = [x - q * y for x, y in zip(u[r], u[prow])]
                if a[r][col] != 0:
                    done = False
            if done:
                break
        if a[prow][col] == 0:
            continue
        if a[prow][col] < 0:
            a[prow] = [-x for x in a[prow]]
            u[prow] = [-x for x in u[prow]]
        p = a[prow][col]
        for r in range(prow):
            q = a[r][col] // p
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[prow])]
                u[r] = [x - q * y for x, y in zip(u[r], u[prow])]
        prow += 1
    return Mat.from_rows(a) if a else Mat(0, m.ncols, ()), Mat.from_rows(u) if u else Mat(0, 0, ())


def column_style_hermite(m: Mat):
    """Return ``(H, V)`` with ``M*V = H`` in column HNF (unimodular ``V``)."""
    ht, ut = hermite_normal_form(m.transpose())
    return ht.transpose(), ut.transpose()


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    """Decomposition ``U*M*V = D`` with unimodular transforms.

    ``D`` is diagonal with nonnegative entries, ``d1 | d2 | ...`` and zeros
    trailing.
    """

    u: Mat
    d: Mat
    v: Mat

    def diagonal(self) -> list:
        return [self.d.entry(i, i) for i in range(min(self.d.nrows, self.d.ncols))]


def smith_normal_form(m: Mat) -> SnfResult:
    n, s = m.nrows, m.ncols
    a = [list(r) for r in m.rows]
    u = [list(r) for r in Mat.identity(n).rows]
    v = [list(r) for r in Mat.identity(s).rows]

    def row_combine(i1, i2, x, y, xx, yy):
        # rows i1, i2 <- x*i1 + y*i2, xx*i1 + yy*i2 (det of coeffs = +-1)
        a[i1], a[i2] = ([x * p + y * q for p, q in zip(a[i1], a[i2])],
                        [xx * p + yy * q for p, q in zip(a[i1], a[i2])])
        u[i1], u[i2] = ([x * p + y * q for p, q in zip(u[i1], u[i2])],
                        [xx * p + yy * q for p, q in zip(u[i1], u[i2])])

    def col_combine(j1, j2, x, y, xx, yy):
        for r in a:
            r[j1], r[j2] = x * r[j1] + y * r[j2], xx * r[j1] + yy * r[j2]
        for r in v:
            r[j1], r[j2] = x * r[j1] + y * r[j2], xx * r[j1] + yy * r[j2]

    t = 0
    while True:
        # locate smallest nonzero entry in the working block
        best = None
        for i in range(t, n):
            for j in range(t, s):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for r in a:
                r[t], r[bj] = r[bj], r[t]
            for r in v:
                r[t], r[bj] = r[bj], r[t]
        while True:
            # clear column t
            for i in range(t + 1, n):
                if a[i][t] == 0:
                    continue
                p, q = a[t][t], a[i][t]
                if q % p == 0:
                    f = q // p
                    a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - f * y for x, y in zip(u[i], u[t])]
                else:
                    g, x, y = _xgcd(p, q)
                    row_combine(t, i, x, y, -(q // g), p // g)
            # clear row t
            for j in range(t + 1, s):
                if a[t][j] == 0:
                    continue
                p, q = a[t][t], a[t][j]
                if q % p == 0:
                    f = q // p
                    for r in a:
                        r[j] -= f * r[t]
                    for r in v:
                        r[j] -= f * r[t]
                else:
                    g, x, y = _xgcd(p, q)
                    col_combine(t, j, x, y, -(q // g), p // g)
            if any(a[i][t] for i in range(t + 1, n)):
                continue
            if any(a[t][j] for j in range(t + 1, s)):
                continue
            # enforce divisibility: pivot must divide the remaining block
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, s):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return SnfResult(Mat.from_rows(u) if n else Mat(0, 0, ()),
                     Mat.from_rows(a) if n else Mat(0, s, ()),
                     Mat.from_rows(v) if s else Mat(0, 0, ()))


# ---------------------------------------------------------------------------
# kernels, solving, membership


def kernel_basis(m: Mat) -> Mat:
    """Basis of the integer kernel ``{v : M v = 0}`` as matrix columns.

    The basis spans the full (saturated) kernel lattice; columns are
    sign-normalized so that the first nonzero entry is positive.
    """
    h, vt = column_style_hermite(m)
    cols = []
    for j in range(m.ncols):
        if all(h.entry(i, j) == 0 for i in range(m.nrows)):
            c = vt.col(j)
            lead = next((x for x in c if x != 0), 1)
            if lead < 0:
                c = tuple(-x for x in c)
            cols.append(c)
    return mat_from_cols(cols, m.ncols)


def hnf_solver(h: Mat):
    """Back-substitution through the pivots of ``H``, a column HNF: returns a
    function that maps a target column ``b`` to the coordinates ``y`` with
    ``H y = b``, or to ``None`` when ``b`` is not in the column span."""
    pivots = []
    for j in range(h.ncols):
        i = next((i for i in range(h.nrows) if h.entry(i, j) != 0), None)
        if i is not None:
            pivots.append((i, j))

    def coordinates(b):
        target = list(b)
        y = [0] * h.ncols
        for i, j in pivots:
            q, rem = divmod(target[i], h.entry(i, j))
            if rem != 0:
                return None
            if q:
                y[j] = q
                for r in range(h.nrows):
                    target[r] -= q * h.entry(r, j)
        return None if any(target) else y
    return coordinates


def solve_columns(m: Mat, b: Mat):
    """Solve ``M X = B`` over the integers; return ``X`` or ``None``.

    ``B`` holds the targets as columns.
    """
    if b.nrows != m.nrows:
        raise ValueError("shape mismatch in solve")
    h, v = column_style_hermite(m)
    coordinates = hnf_solver(h)
    xcols = []
    for jb in range(b.ncols):
        y = coordinates(b.col(jb))
        if y is None:
            return None
        xcols.append(tuple(sum(v.entry(r, j) * y[j] for j in range(h.ncols))
                           for r in range(m.ncols)))
    return mat_from_cols(xcols, m.ncols)


def canonical_column_form(m: Mat) -> Mat:
    """Canonical generating set for the column lattice (column HNF, no zeros)."""
    h, _ = column_style_hermite(m)
    cols = [h.col(j) for j in range(h.ncols) if any(h.col(j))]
    return mat_from_cols(cols, m.nrows)

