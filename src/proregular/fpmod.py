"""Finitely presented modules and their morphisms over any backend ring.

A module is the cokernel of a presentation matrix (generators x relations).
Every module stores its relations in canonical form (``ring.canonical_columns``:
a column HNF over Z, a reduced module Groebner basis over polynomials), so
membership in their span -- is a column zero in the module? -- is a remainder
against them (``FpModule.contains``), and equal spans have equal canonical
forms.  A morphism is a matrix on generators whose well-definedness is
certified by membership of the pushed-forward relations.  A kernel sits on
its generator matrix and a cokernel on its target's generators.  Neither is
minimized: zero tests and membership agree on isomorphic presentations, so
``minimized`` (unit-pivot pruning) runs only on what a report prints.

Stored relations never pass through a canonical form again: they join the
engine as a known basis (``quotient_by``, ``factor_through``), relations on
disjoint positions are canonical together (``direct_sum``), and a kernel's
relations are read off one graph basis over its generators with the source
relations known.  The generators keep the graph with the target relations as
tailed columns: they are the kernel's presentation, on which module
summaries depend.

Over a quotient backend ``A/I`` the ring's matrix services work modulo
``I * A^r``, so all formulas below are backend-agnostic.  The canonical
relations of a module over ``A/I`` include the reduced block ``g * e_k`` for
``g`` in the ring's ``ideal_gb`` (save the block vectors whose leads another
relation's lead divides); span oracles take those stored block columns as
zero columns, and the bare block of a free module is canonical as it stands
(see ``rings``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import Mat, mat_from_cols
from .rings import ring_identity, ring_matmul, ring_zero_mat, structurally_nonzero


class ModuleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class IdealSpec:
    """A finitely generated ideal, caught as an ordered generator sequence."""

    ring: object
    generators: tuple
    dropped_zero: bool = False
    name: str | None = None

    @staticmethod
    def make(ring, gens, name=None) -> "IdealSpec":
        coerced = [ring.coerce(g) for g in gens]
        kept = tuple(g for g in coerced if not ring.is_zero(g))
        return IdealSpec(ring, kept, dropped_zero=len(kept) < len(coerced), name=name)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        gens = ", ".join(self.ring.to_str(g) for g in self.generators)
        return f"({gens})"


def power_sequence(a: IdealSpec, i: int) -> IdealSpec:
    """Elementwise powers ``(a_1^i, ..., a_n^i)`` (same length as ``a``)."""
    if i < 1:
        raise ModuleError("power must be >= 1")
    return IdealSpec(a.ring, tuple(a.ring.pow(g, i) for g in a.generators))


def ideal_power(a: IdealSpec, i: int) -> IdealSpec:
    """All degree-``i`` products of the generators (deduplicated, sorted).

    Each multiset of generators is multiplied out once: a product of degree
    ``i - 1`` is extended only by generators at or after its last index.
    Products are in normal form, so equal ones hash alike; of equal
    products the first is kept.  In the full ``n^i`` enumeration the first
    occurrence of a value is its sorted index tuple, so the result is the
    same as deduplicating that enumeration.
    """
    if i < 1:
        raise ModuleError("power must be >= 1")
    ring = a.ring
    gens = a.generators
    prods = [(ring.one(), 0)]
    for _ in range(i):
        prods = [(ring.mul(p, gens[k]), k) for p, last in prods
                 for k in range(last, len(gens))]
    out = dict.fromkeys(p for p, _ in prods if not ring.is_zero(p))
    return IdealSpec(ring, tuple(ring.generator_sort(list(out))))


# ---------------------------------------------------------------------------
# modules


class FpModule:
    """Cokernel of a presentation matrix over a backend ring."""

    __slots__ = ("ring", "ngens", "relations", "name", "free_rank", "_member")

    def __init__(self, ring, ngens: int, relation_columns, name=None):
        cols = [[ring.coerce(x) for x in col] for col in relation_columns]
        for col in cols:
            if len(col) != ngens:
                raise ModuleError("relation column length must equal generator count")
        self._present(ring, ngens, ring.canonical_columns(cols, ngens), name)

    @classmethod
    def canonical(cls, ring, ngens: int, cols, name=None) -> "FpModule":
        """The module with the canonical relations ``cols``, taken as they
        are: coercion would turn stored block columns to zero over ``A/I``."""
        m = cls.__new__(cls)
        m._present(ring, ngens, cols, name)
        return m

    def _present(self, ring, ngens, cols, name):
        """Free (``free_rank`` is ``ngens``) when every relation vanishes:
        there are none, or they are the bare block."""
        self.ring = ring
        self.ngens = ngens
        self.relations = mat_from_cols([tuple(c) for c in cols], ngens)
        self.name = name
        self.free_rank = ngens if all(map(ring.column_vanishes, cols)) else None
        self._member = None

    # -- plumbing -----------------------------------------------------------

    def contains(self, col) -> bool:
        """Is ``col`` (an element of the free module on the generators) in the
        span of the relations, that is, zero in this module?"""
        if self._member is None:
            self._member = self.ring.canonical_member(self.relations.cols(), self.ngens)
        return self._member(col)

    def is_zero(self) -> bool:
        one, zero = self.ring.one(), self.ring.zero()
        return all(self.contains([one if t == k else zero for t in range(self.ngens)])
                   for k in range(self.ngens))

    def __repr__(self):
        label = self.name or "FpModule"
        return f"{label}(gens={self.ngens}, rels={self.relations.ncols} over {self.ring!r})"

    # -- canonical invariants ------------------------------------------------

    def abelian_invariants(self):
        """Over Z: (free_rank, [d1, d2, ...]) with 1 < d1 | d2 | ...."""
        from .intlinalg import smith_normal_form
        if self.ring.kind != "integers":
            raise ModuleError("abelian invariants only defined over Z")
        snf = smith_normal_form(self.relations)
        diag = snf.diagonal()
        tors = [d for d in diag if d not in (0, 1)]
        rank = self.ngens - sum(1 for d in diag if d != 0)
        return rank, tors


def free_module(ring, r: int, name=None) -> FpModule:
    return FpModule(ring, r, [], name=name)


def zero_module(ring) -> FpModule:
    return FpModule(ring, 0, [], name="0")


# ---------------------------------------------------------------------------
# morphisms


class ModuleMorphism:
    """Matrix on generators, checked against the presentations."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpModule, target: FpModule, matrix: Mat, check=True):
        if source.ring != target.ring:
            raise ModuleError("morphism between modules over different rings")
        if matrix.nrows != target.ngens or matrix.ncols != source.ngens:
            raise ModuleError(
                f"morphism matrix must be {target.ngens}x{source.ngens}, "
                f"got {matrix.nrows}x{matrix.ncols}")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and not self._well_defined():
            raise ModuleError("matrix does not define a morphism (relations not preserved)")

    def _well_defined(self) -> bool:
        if self.source.relations.ncols == 0 or self.target.ngens == 0:
            return True
        pushed = ring_matmul(self.source.ring, self.matrix, self.source.relations)
        return all(map(self.target.contains, pushed.cols()))

    def is_zero_morphism(self) -> bool:
        if self.target.ngens == 0 or self.source.ngens == 0:
            return True
        return all(map(self.target.contains, self.matrix.cols()))

    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self o other (apply ``other`` first)."""
        if other.target.ngens != self.source.ngens:
            raise ModuleError("composition mismatch")
        return ModuleMorphism(other.source, self.target,
                              ring_matmul(self.source.ring, self.matrix, other.matrix),
                              check=False)

    def add(self, other: "ModuleMorphism") -> "ModuleMorphism":
        ring = self.source.ring
        rows = tuple(tuple(ring.add(self.matrix.entry(i, j), other.matrix.entry(i, j))
                           for j in range(self.matrix.ncols))
                     for i in range(self.matrix.nrows))
        return ModuleMorphism(self.source, self.target,
                              Mat(self.matrix.nrows, self.matrix.ncols, rows), check=False)

    def negate(self) -> "ModuleMorphism":
        ring = self.source.ring
        rows = tuple(tuple(ring.neg(x) for x in r) for r in self.matrix.rows)
        return ModuleMorphism(self.source, self.target,
                              Mat(self.matrix.nrows, self.matrix.ncols, rows), check=False)

    def sub(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return self.add(other.negate())

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def identity_morphism(m: FpModule) -> ModuleMorphism:
    return ModuleMorphism(m, m, ring_identity(m.ring, m.ngens), check=False)


def zero_morphism(source: FpModule, target: FpModule) -> ModuleMorphism:
    return ModuleMorphism(source, target,
                          ring_zero_mat(source.ring, target.ngens, source.ngens),
                          check=False)


def multiplication_morphism(m: FpModule, scalar) -> ModuleMorphism:
    """Multiplication by a ring element as an endomorphism."""
    ring = m.ring
    s = ring.coerce(scalar)
    rows = tuple(tuple(s if i == j else ring.zero() for j in range(m.ngens))
                 for i in range(m.ngens))
    return ModuleMorphism(m, m, Mat(m.ngens, m.ngens, rows), check=False)


# ---------------------------------------------------------------------------
# minimization


def minimized(m: FpModule):
    """Prune unit-pivot generators.

    Returns ``(small, to_small, from_small)`` where ``to_small: m -> small``
    and ``from_small: small -> m`` are mutually inverse isomorphisms.

    A pivot is a unit ``u`` at ``(i, j)`` of the canonical relations; its
    relation gives ``e_i = -u^{-1} * sum_{k != i} rel[k][j] e_k``.  So the
    projection onto the other generators adds ``-u^{-1} rel[k][j]`` times
    row ``i`` to each kept row ``k`` of ``to_small``, and the inclusion
    drops column ``i`` of ``from_small``.
    """
    ring = m.ring
    nonzero = structurally_nonzero(ring)
    mul, add, sub = ring.mul, ring.add, ring.sub
    cur = m
    to_rows = [list(r) for r in ring_identity(ring, m.ngens).rows]
    from_rows = [list(r) for r in to_rows]
    while True:
        rel = cur.relations
        pivot = None
        for j in range(rel.ncols):
            for i in range(rel.nrows):
                if ring.is_unit(rel.entry(i, j)):
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        u_inv = ring.unit_inv(rel.entry(i, j))
        keep = [k for k in range(cur.ngens) if k != i]
        pivot_col = rel.col(j)
        new_cols = []
        for c in range(rel.ncols):
            if c == j:
                continue
            col = rel.col(c)
            if nonzero(col[i]):
                f = mul(col[i], u_inv)
                new_cols.append([sub(col[k], mul(f, pivot_col[k])) for k in keep])
            else:
                new_cols.append([col[k] for k in keep])
        row_i = [(t, x) for t, x in enumerate(to_rows[i]) if nonzero(x)]
        rows = []
        for k in keep:
            row = list(to_rows[k])
            if nonzero(pivot_col[k]):
                f = ring.neg(mul(u_inv, pivot_col[k]))
                for t, x in row_i:
                    p = mul(f, x)
                    row[t] = add(row[t], p) if nonzero(row[t]) else p
            rows.append(row)
        to_rows = rows
        for row in from_rows:
            del row[i]
        # entries are normal forms already: no coercion
        cur = FpModule.canonical(ring, len(keep), ring.canonical_columns(new_cols, len(keep)))
    to_small = Mat(cur.ngens, m.ngens, tuple(map(tuple, to_rows)))
    from_small = Mat(m.ngens, cur.ngens, tuple(map(tuple, from_rows)))
    return (cur, ModuleMorphism(m, cur, to_small, check=False),
            ModuleMorphism(cur, m, from_small, check=False))


# ---------------------------------------------------------------------------
# kernel / cokernel


def _relations_among(ring, cols, target: FpModule):
    """The nonzero ``c`` with ``sum_j c_j cols_j`` in the span of
    ``target.relations``: the syzygies of ``cols`` and the relations, cut
    to their ``cols`` part, which is put in normal form."""
    rel = target.relations
    allc = [list(c) for c in cols] + [list(rel.col(j)) for j in range(rel.ncols)]
    nonzero = structurally_nonzero(ring)
    heads = [[ring.normalize(x) for x in v[:len(cols)]]
             for v in ring.kernel_of_columns(allc, target.ngens)]
    return [h for h in heads if any(map(nonzero, h))]


def kernel_generators(phi: ModuleMorphism) -> list:
    """Generators of ``{m in A^{g_src} : phi(m) in im(target relations)}``:
    the cut heads of the syzygies of ``[phi | target relations]``."""
    ring = phi.source.ring
    g_src = phi.source.ngens
    if phi.target.ngens == 0:
        return [[ring.one() if t == k else ring.zero() for t in range(g_src)]
                for k in range(g_src)]
    return _relations_among(ring, [phi.matrix.col(j) for j in range(g_src)], phi.target)


def kernel(phi: ModuleMorphism):
    """``(K, incl)`` with ``incl : K -> source`` the generator matrix.

    ``K`` is generated by ``kernel_generators(phi)``, and its relations are
    the ``c`` with ``sum_j c_j gens_j`` in the span of the source relations:
    one graph basis over the generators, with the source's canonical
    relations known, gives their canonical form."""
    ring = phi.source.ring
    gens = kernel_generators(phi)
    rels = ring.span_oracle(gens, phi.source.ngens, phi.source.relations.cols()) \
        .canonical_syzygies() if gens else []
    k = FpModule.canonical(ring, len(gens), rels)
    incl = mat_from_cols([tuple(c) for c in gens], phi.source.ngens)
    return k, ModuleMorphism(k, phi.source, incl, check=False)


def quotient_by(m: FpModule, cols, name=None) -> FpModule:
    """``m`` modulo the span of ``cols``."""
    return FpModule.canonical(m.ring, m.ngens,
                              m.ring.canonical_columns(cols, m.ngens, m.relations.cols()),
                              name=name)


def cokernel(phi: ModuleMorphism) -> FpModule:
    """The target modulo the image, on the target's generators: its
    projection from the target is the identity on generators."""
    return quotient_by(phi.target, phi.matrix.cols())


def factor_through(gens: Mat, target: FpModule, want: Mat, message: str,
                   extra_cols=()) -> Mat:
    """Coordinates on ``gens`` of every column of ``want``, modulo the rest.

    Each column of ``want`` is solved in the span of the columns of
    ``gens``, then ``extra_cols``, modulo ``target.relations`` (which join
    as known, with no coordinates); the result keeps the ``gens`` part of
    each solution, one column per column of ``want``.  Raises
    ``ModuleError(message)`` when a column is not in the span.
    """
    oracle = target.ring.span_oracle(gens.cols() + list(extra_cols), target.ngens,
                                     target.relations.cols())
    cols = []
    for j in range(want.ncols):
        sol = oracle.solve(list(want.col(j)))
        if sol is None:
            raise ModuleError(message)
        cols.append(tuple(sol[: gens.ncols]))
    return mat_from_cols(cols, gens.ncols)


# ---------------------------------------------------------------------------
# tensor / direct sum


def direct_sum(modules, name=None):
    """``(S, inclusions, projections)`` in the given order."""
    if not modules:
        raise ModuleError("direct sum of nothing; use zero_module")
    ring = modules[0].ring
    for m in modules:
        if m.ring != ring:
            raise ModuleError("mixed rings in direct sum")
    offsets = []
    total = 0
    for m in modules:
        offsets.append(total)
        total += m.ngens
    # canonical relations on disjoint positions are canonical together
    cols = []
    for off, m in zip(offsets, modules):
        for rel in m.relations.cols():
            col = [ring.zero()] * total
            col[off:off + m.ngens] = rel
            cols.append(col)
    s = FpModule.canonical(ring, total, ring.canonical_order(cols), name=name)
    inclusions, projections = [], []
    for idx, m in enumerate(modules):
        iin = ring_zero_mat(ring, total, m.ngens)
        rows = [list(r) for r in iin.rows]
        for i in range(m.ngens):
            rows[offsets[idx] + i][i] = ring.one()
        inclusions.append(ModuleMorphism(m, s, Mat(total, m.ngens, tuple(tuple(r) for r in rows)),
                                         check=False))
        pr = ring_zero_mat(ring, m.ngens, total)
        rows = [list(r) for r in pr.rows]
        for i in range(m.ngens):
            rows[i][offsets[idx] + i] = ring.one()
        projections.append(ModuleMorphism(s, m, Mat(m.ngens, total, tuple(tuple(r) for r in rows)),
                                          check=False))
    return s, inclusions, projections


def tensor_module(m: FpModule, n: FpModule, name=None) -> FpModule:
    """Standard block presentation; generator ``(a, b)`` sits at ``a*gN + b``."""
    if m.ring != n.ring:
        raise ModuleError("mixed rings in tensor")
    ring = m.ring
    g = m.ngens * n.ngens
    cols = []
    for j in range(m.relations.ncols):
        for b in range(n.ngens):
            col = [ring.zero()] * g
            for a in range(m.ngens):
                col[a * n.ngens + b] = m.relations.entry(a, j)
            cols.append(col)
    for j in range(n.relations.ncols):
        for a in range(m.ngens):
            col = [ring.zero()] * g
            for b in range(n.ngens):
                col[a * n.ngens + b] = n.relations.entry(b, j)
            cols.append(col)
    return FpModule(ring, g, cols, name=name)


# ---------------------------------------------------------------------------
# ideal-linked module constructions


def quotient_module(a: IdealSpec, i: int = 1, name=None) -> FpModule:
    """Cyclic module ``A / a^i`` presented by the ideal power generators."""
    gens = ideal_power(a, i).generators if i >= 1 else ()
    return FpModule(a.ring, 1, [[g] for g in gens], name=name)


def annihilated_by_elements(m: FpModule, elements):
    """``{x in m : g x = 0 for all given g}`` with inclusion."""
    ring = m.ring
    elems = [ring.coerce(g) for g in elements]
    elems = [g for g in elems if not ring.is_zero(g)]
    if not elems:
        return m, identity_morphism(m)
    target, _, _ = direct_sum([m] * len(elems))
    rows = []
    for g in elems:
        for r in range(m.ngens):
            row = [g if c == r else ring.zero() for c in range(m.ngens)]
            rows.append(tuple(row))
    phi = ModuleMorphism(m, target, Mat(target.ngens, m.ngens, tuple(rows)), check=False)
    return kernel(phi)
