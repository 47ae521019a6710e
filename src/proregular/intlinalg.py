"""Exact linear algebra over the integers.

Everything here works on arbitrary-precision Python ints, so there is no
overflow and no modular shortcut: normal forms are computed by classical
unimodular row/column operations.  The three workhorses are

* ``column_hermite`` -- column HNF ``M*V = H`` with unimodular ``V``,
  positive pivots and reduced entries left of each pivot, computed on a list
  of columns and returned as the columns of ``H`` and ``V``; the columns of
  ``V`` under zero columns of ``H`` are a kernel basis (``hermite_kernel``),
* ``hnf_solver`` -- back-substitution through the pivots of a column HNF,
  so one form answers every solving and membership question on its span,
* ``smith_normal_form`` -- ``U*M*V = D`` diagonal with the divisibility
  chain ``d1 | d2 | ...``, nonnegative entries and zeros trailing.

``Mat`` is the immutable dense matrix value of the module layer; the Hermite
functions take and return plain lists of columns.
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
# Hermite normal form (column style, on column lists)


def column_hermite(cols, nrows: int):
    """Return ``(h_cols, v_cols)``, the columns of ``H`` and of ``V`` with
    ``M*V = H`` in column HNF, ``V`` unimodular, ``M`` the matrix with the
    columns ``cols`` (each of length ``nrows``).

    This is the row HNF of the transpose, run on the columns as rows: each
    nonzero column of ``H`` starts with a positive pivot, pivot rows strictly
    increase, entries to the left of a pivot lie in ``[0, pivot)`` and zero
    columns are trailing.

    >>> column_hermite([[2], [3]], 1)
    ([[1], [0]], [[-1, 1], [3, -2]])
    """
    a = [list(c) for c in cols]
    if any(len(c) != nrows for c in a):
        raise ValueError("column length mismatch")
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    prow = 0
    for row in range(nrows):
        if prow >= n:
            break
        # gcd-eliminate right of prow in this row
        while True:
            nz = [c for c in range(prow, n) if a[c][row] != 0]
            if not nz:
                break
            c0 = min(nz, key=lambda c: (abs(a[c][row]), c))
            if c0 != prow:
                a[prow], a[c0] = a[c0], a[prow]
                u[prow], u[c0] = u[c0], u[prow]
            done = True
            for c in range(prow + 1, n):
                if a[c][row] == 0:
                    continue
                q = a[c][row] // a[prow][row]
                a[c] = [x - q * y for x, y in zip(a[c], a[prow])]
                u[c] = [x - q * y for x, y in zip(u[c], u[prow])]
                if a[c][row] != 0:
                    done = False
            if done:
                break
        if a[prow][row] == 0:
            continue
        if a[prow][row] < 0:
            a[prow] = [-x for x in a[prow]]
            u[prow] = [-x for x in u[prow]]
        p = a[prow][row]
        for c in range(prow):
            q = a[c][row] // p
            if q:
                a[c] = [x - q * y for x, y in zip(a[c], a[prow])]
                u[c] = [x - q * y for x, y in zip(u[c], u[prow])]
        prow += 1
    return a, u


def hermite_kernel(h_cols, v_cols) -> list:
    """Basis of the integer kernel ``{v : M v = 0}`` read from a column HNF
    ``M*V = H``: the columns of ``V`` under the zero columns of ``H``, each
    sign-normalized so that its first nonzero entry is positive.  They span
    the full (saturated) kernel lattice."""
    out = []
    for h, v in zip(h_cols, v_cols):
        if not any(h):
            lead = next((x for x in v if x != 0), 1)
            out.append([-x for x in v] if lead < 0 else list(v))
    return out


def hnf_solver(h_cols):
    """Back-substitution through the pivots of a column HNF with the columns
    ``h_cols``: returns a function that maps a target column ``b`` to the
    coordinates ``y`` with ``H y = b``, or to ``None`` when ``b`` is not in
    the column span."""
    pivots = []
    for j, c in enumerate(h_cols):
        i = next((i for i, x in enumerate(c) if x != 0), None)
        if i is not None:
            pivots.append((i, j, c))

    def coordinates(b):
        target = list(b)
        y = [0] * len(h_cols)
        for i, j, c in pivots:
            q, rem = divmod(target[i], c[i])
            if rem != 0:
                return None
            if q:
                y[j] = q
                for r in range(i, len(c)):
                    target[r] -= q * c[r]
        return None if any(target) else y
    return coordinates


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
