"""Backend rings: the integers, polynomial rings over Q/F_p, and quotients.

A ring descriptor bundles element arithmetic with the matrix services every
module computation reduces to:

* ``canonical_columns(cols, nrows, relations)`` -- a canonical generating
  set of the column span (column HNF over Z, reduced module Groebner basis
  over polynomials),
* ``canonical_member(cols, nrows)`` -- membership in the span of such a
  canonical set: back-substitution through the HNF's pivots over Z, a zero
  remainder against the reduced basis over polynomials; no S-pair is formed,
* ``span_oracle(cols, nrows, relations)`` -- exact solving, syzygies and
  their canonical form for the span of any columns (Hermite form over Z,
  Groebner graph bases over polynomials),
* ``kernel_of_columns`` -- generators of ``{v : sum v_j col_j = 0}``.

``relations`` are a module's stored canonical relations: over polynomials
a reduced Groebner basis, which joins the engine as ``known`` (no S-pair
inside it, no ``e_j`` tail, so answers are modulo its span with coordinates
on ``cols`` only); over Z they join the Hermite form as columns.

Quotient rings ``A/I`` reuse the polynomial engine: elements are stored as
normal forms modulo the reduced Groebner basis ``ideal_gb`` of ``I``, and
every matrix service works modulo ``I * A^r``.  Its block ``{g * e_k : g in
ideal_gb}`` is already a Groebner basis, and it reaches the engine once, as
``known``: it is never paired with itself, and in a span oracle's graph it
carries no ``e_j`` tail, so solutions and syzygies come back with one
coordinate per column.  Three consequences:

* the canonical relations of a module over ``A/I`` include the reduced
  block, save the block vectors whose leads another relation's lead
  divides: they are a reduced basis of a submodule containing ``I * A^r``
  (a free module's relations are the whole block);
* a span oracle takes such a stored block column (every nonzero entry an
  element of ``ideal_gb``) as a zero column: it is zero in ``(A/I)^r``, so
  ``solve`` gives it 0 and its syzygy is ``e_j``;
* a bare block is canonical as it stands: the block of the reduced, monic
  ``ideal_gb`` is the unique reduced basis of ``I * A^r``.

``ring_matmul`` is a sparse product: it multiplies only structurally
nonzero entries (see ``structurally_nonzero``), so the mostly-zero Hom and
tensor matrices cost one ``mul`` per pair of nonzero entries, and no zero
entry is put through a quotient ring's normal form.
"""

from __future__ import annotations

from .fieldlinalg import PrimeField, RationalField
from .groebner import (GraphBasis, TopOrder, _Reducer, groebner_basis, normal_form,
                       reduced_module_groebner, columns_to_vectors, vec_lead,
                       vectors_to_columns)
from .intlinalg import (Mat, canonical_column_form, hnf_solver, kernel_basis,
                        mat_from_cols, solve_columns)
from .poly import PolyRing


class RingError(ValueError):
    pass


def _hnf_columns(cols, nrows):
    if not cols:
        return []
    h = canonical_column_form(mat_from_cols([tuple(c) for c in cols], nrows))
    return [list(h.col(j)) for j in range(h.ncols)]


class _ZSpanOracle:
    """Column-span services over Z, backed by one column HNF."""

    def __init__(self, cols, nrows, relations=()):
        self.nrows = nrows
        self.ncols = len(cols)
        self.m = mat_from_cols([tuple(c) for c in cols] + [tuple(c) for c in relations],
                               nrows)

    def solve(self, target):
        x = solve_columns(self.m, mat_from_cols([tuple(target)], self.nrows))
        return None if x is None else list(x.col(0))[:self.ncols]

    def syzygy_columns(self):
        k = kernel_basis(self.m)
        return [list(k.col(j))[:self.ncols] for j in range(k.ncols)]

    def canonical_syzygies(self):
        return _hnf_columns(self.syzygy_columns(), self.ncols)


class IntegerRing:
    """The ring of integers; elements are Python ints."""

    kind = "integers"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, str):
            return self.parse(x)
        raise RingError(f"cannot coerce {x!r} into Z")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow(self, a, k):
        if k < 0:
            raise ValueError("negative power")
        return a ** k

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def unit_inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit in Z")
        return a

    def normalize(self, a):
        return a

    def parse(self, text: str):
        try:
            return int(text.strip())
        except ValueError:
            raise RingError(f"bad integer literal {text!r}") from None

    def to_str(self, a) -> str:
        return str(a)

    def generator_sort(self, elems):
        return sorted(elems, key=lambda e: (abs(e), e))

    def span_oracle(self, cols, nrows, relations=()):
        return _ZSpanOracle(cols, nrows, relations)

    def kernel_of_columns(self, cols, nrows):
        return _ZSpanOracle(cols, nrows).syzygy_columns()

    def canonical_columns(self, cols, nrows, relations=()):
        return _hnf_columns(list(cols) + list(relations), nrows)

    def canonical_member(self, cols, nrows):
        """Membership in the span of ``cols``, a column HNF as
        ``canonical_columns`` returns it."""
        coordinates = hnf_solver(mat_from_cols([tuple(c) for c in cols], nrows))
        return lambda col: coordinates(col) is not None

    def column_vanishes(self, col) -> bool:
        return not any(col)

    def canonical_order(self, cols):
        """HNFs on disjoint rows, put together in HNF order (by pivot row)."""
        return sorted(cols, key=lambda c: next(i for i, x in enumerate(c) if x))

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "Z"


class PolynomialRing:
    """Polynomial backend; delegates element arithmetic to ``PolyRing``."""

    kind = "polynomial"

    def __init__(self, field, variables, order="grevlex"):
        self.poly_ring = PolyRing(field, variables, order)

    @property
    def field(self):
        return self.poly_ring.field

    @property
    def variables(self):
        return self.poly_ring.variables

    @property
    def order(self):
        return self.poly_ring.order

    def zero(self):
        return self.poly_ring.zero()

    def one(self):
        return self.poly_ring.one()

    def coerce(self, x):
        return self.poly_ring.coerce(x)

    def add(self, a, b):
        return self.poly_ring.add(a, b)

    def sub(self, a, b):
        return self.poly_ring.sub(a, b)

    def mul(self, a, b):
        return self.poly_ring.mul(a, b)

    def neg(self, a):
        return self.poly_ring.neg(a)

    def pow(self, a, k):
        return self.poly_ring.pow(a, k)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def is_unit(self, a) -> bool:
        return self.poly_ring.is_unit(a)

    def unit_inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a!r} is not a recognized unit")
        c = a.constant_value()
        return self.poly_ring.from_terms([((0,) * self.poly_ring.nvars, self.field.inv(c))])

    def normalize(self, a):
        return a

    def parse(self, text: str):
        return self.poly_ring.parse(text)

    def to_str(self, a) -> str:
        return self.poly_ring.to_str(a)

    def generator_sort(self, elems):
        return sorted(elems,
                      key=lambda p: tuple(self.order.keys[e] for e, _ in p.terms),
                      reverse=True)

    # the elements of ``ideal_gb``; empty without a quotient
    _ideal_polys = frozenset()

    def _ideal_block(self, nrows):
        """The reduced Groebner basis of ``I * A^nrows``, in descending
        ``TopOrder`` lead; empty without a quotient."""
        return ()

    def column_vanishes(self, col) -> bool:
        """Is every nonzero entry of ``col`` an element of ``ideal_gb``?"""
        block = self._ideal_polys
        return all(not p.terms or p in block for p in col)

    def span_oracle(self, cols, nrows, relations=()):
        """Graph-method oracle modulo ``relations`` (else the block).  A
        column that vanishes lies in the block's span, so it enters the graph
        as a zero column and keeps its coordinate."""
        zero = [self.zero()] * nrows
        cols = [zero if self.column_vanishes(c) else list(c) for c in cols]
        known = columns_to_vectors(self.poly_ring, relations) if relations else \
            self._ideal_block(nrows)
        return GraphBasis(self.poly_ring, cols, nrows, known=known)

    def kernel_of_columns(self, cols, nrows):
        return self.span_oracle(cols, nrows).syzygy_columns()

    def canonical_columns(self, cols, nrows, relations=()):
        """Reduced module Groebner basis of the columns and ``relations``
        (else the block), which join as known; with no nonzero column it is
        the known basis as it stands."""
        vecs = [v for v in columns_to_vectors(self.poly_ring, cols) if v]
        basis = columns_to_vectors(self.poly_ring, relations) if relations else \
            self._ideal_block(nrows)
        if vecs:
            basis = reduced_module_groebner(self.poly_ring, vecs, TopOrder(self.order),
                                            known=basis)
        return vectors_to_columns(self.poly_ring, basis, nrows)

    def canonical_member(self, cols, nrows):
        """Membership in the span of ``cols``, a reduced ``TopOrder`` Groebner
        basis as ``canonical_columns`` returns it: a column is a member when
        its remainder is 0 (over ``A/I`` the basis holds the block, so the
        remainder is taken modulo ``I * A^nrows``)."""
        order = TopOrder(self.order)
        vecs = columns_to_vectors(self.poly_ring, cols)
        reducer = _Reducer(self.poly_ring, order, vecs, [vec_lead(order, v) for v in vecs])
        return lambda col: not reducer.reduce(columns_to_vectors(self.poly_ring, [col])[0])

    def canonical_order(self, cols):
        """Reduced bases on disjoint positions, put together in the order of
        a reduced basis (by descending ``TopOrder`` lead)."""
        keys = self.order.keys

        def lead(col):
            return max((keys[p.terms[0][0]], -pos) for pos, p in enumerate(col) if p.terms)
        return sorted(cols, key=lead, reverse=True)

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and not isinstance(other, QuotientRing) \
            and other.poly_ring == self.poly_ring

    def __hash__(self):
        return hash(("poly", self.poly_ring))

    def __repr__(self):
        return repr(self.poly_ring)


class QuotientRing(PolynomialRing):
    """Quotient ``A/I`` of a polynomial ring by a finitely generated ideal.

    Elements are stored as normal forms modulo the reduced Groebner basis
    ``ideal_gb`` of ``I``; every matrix service works modulo the block
    ``g * e_k`` for ``g`` in ``ideal_gb``.
    """

    kind = "quotient"

    def __init__(self, field, variables, ideal_generators, order="grevlex"):
        super().__init__(field, variables, order)
        gens = [self.poly_ring.coerce(g) for g in ideal_generators]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            raise RingError("quotient requires at least one nonzero ideal generator")
        self.ideal_generators = tuple(gens)
        self.ideal_gb = groebner_basis(list(gens))
        self._ideal_polys = frozenset(self.ideal_gb.polys)

    def normalize(self, a):
        return normal_form(a, self.ideal_gb)

    def coerce(self, x):
        return self.normalize(self.poly_ring.coerce(x))

    def add(self, a, b):
        return self.normalize(self.poly_ring.add(a, b))

    def sub(self, a, b):
        return self.normalize(self.poly_ring.sub(a, b))

    def mul(self, a, b):
        return self.normalize(self.poly_ring.mul(a, b))

    def neg(self, a):
        return self.normalize(self.poly_ring.neg(a))

    def pow(self, a, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def is_zero(self, a) -> bool:
        return not a.terms or self.normalize(a).is_zero()

    def is_unit(self, a) -> bool:
        # sound but partial: recognizes nonzero constants, with no normal
        # form.  ``ideal_gb`` is 0 in ``A/I``, also in the zero ring; any other
        # canonical relation entry is a unit exactly when its normal form is
        return a not in self._ideal_polys and self.poly_ring.is_unit(a)

    def parse(self, text: str):
        return self.normalize(self.poly_ring.parse(text))

    def _ideal_block(self, nrows):
        # ``ideal_gb`` is sorted by descending lead, and of two equal leads
        # the lower position is the larger under ``TopOrder``
        return [{(k, e): c for e, c in g.terms}
                for g in self.ideal_gb.polys for k in range(nrows)]

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and other.poly_ring == self.poly_ring \
            and other.ideal_generators == self.ideal_generators

    def __hash__(self):
        return hash(("quot", self.poly_ring, self.ideal_generators))

    def __repr__(self):
        gens = ", ".join(self.poly_ring.to_str(g) for g in self.ideal_generators)
        return f"{self.poly_ring} / ({gens})"


# ---------------------------------------------------------------------------
# constructors and matrix helpers


def integers() -> IntegerRing:
    return IntegerRing()


def rational_poly_ring(variables, order="grevlex") -> PolynomialRing:
    return PolynomialRing(RationalField(), variables, order)


def prime_poly_ring(p, variables, order="grevlex") -> PolynomialRing:
    return PolynomialRing(PrimeField(p), variables, order)


def quotient_ring(base: PolynomialRing, ideal_generators) -> QuotientRing:
    return QuotientRing(base.field, base.variables, ideal_generators, base.order)


def structurally_nonzero(ring):
    """The zero test that runs no normal form: ``bool`` over Z, a ``Poly``
    with terms otherwise.  It is exact on elements in normal form."""
    return bool if isinstance(ring, IntegerRing) else (lambda p: bool(p.terms))


def ring_matmul(ring, a: Mat, b: Mat) -> Mat:
    """The product ``a * b``, computed row by row over nonzero entries only.

    Gustavson's sparse product (Gustavson 1978): each row of ``b`` is turned
    once into its nonzero ``(j, entry)`` pairs; each row of ``a`` visits its
    nonzero entries in ascending ``k`` and accumulates ``a[i][k] * b[k][j]``
    into a per-row dict.  The zero test is ``structurally_nonzero``, never a
    normal form, so a zero entry is never multiplied and a quotient ring
    normalizes only products and sums of nonzero entries.  Entries with no
    product are ``ring.zero()``.
    """
    if a.ncols != b.nrows:
        raise RingError("shape mismatch in ring matmul")
    nonzero = structurally_nonzero(ring)
    b_rows = [[(j, y) for j, y in enumerate(row) if nonzero(y)] for row in b.rows]
    mul, add, zero = ring.mul, ring.add, ring.zero()
    rows = []
    for row in a.rows:
        acc = {}
        for k, x in enumerate(row):
            if nonzero(x):
                for j, y in b_rows[k]:
                    p = mul(x, y)
                    acc[j] = add(acc[j], p) if j in acc else p
        rows.append(tuple(acc.get(j, zero) for j in range(b.ncols)))
    return Mat(a.nrows, b.ncols, tuple(rows))


def ring_identity(ring, n: int) -> Mat:
    one, zero = ring.one(), ring.zero()
    return Mat(n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))


def ring_zero_mat(ring, nrows: int, ncols: int) -> Mat:
    z = ring.zero()
    return Mat(nrows, ncols, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))
