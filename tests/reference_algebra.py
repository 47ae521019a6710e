"""Reference algorithms that tests use as oracles, independent of the engine.

They are textbook versions of engine steps (polynomial division, module
reduction by a scan over all leads, Gaussian elimination, Bareiss
determinants, Hermite forms, kernels and solving on ``Mat`` values,
minimization by composing morphisms, kernel relations and cokernels
through a second canonical form), constructions that no
command runs (Hom, Ext of two modules, Euler characteristics, mapping
cones), the MGM check read on the cones themselves, copointed idempotence
on both counit sides, and paper checks that tie two models together.
Nothing under ``src/`` uses them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from proregular.complexes import (BoundedComplex, ComplexMorphism, block_identity_map,
                                  cohomology, hom_complex, hom_of_source_map,
                                  identity_complex_morphism, induced_cohomology_map,
                                  module_complex, tensor_complex_morphisms,
                                  tensor_complexes)
from proregular.fpmod import (FpModule, IdealSpec, ModuleMorphism, _relations_among,
                              direct_sum, identity_morphism, kernel, kernel_generators,
                              power_sequence, quotient_module, zero_module)
from proregular.intlinalg import Mat, mat_from_cols
from proregular.koszul import KoszulTower, weak_proregularity_check
from proregular.poly import Poly, PolyRing, mono_div, mono_divides, mono_lcm, mono_mul
from proregular.resolutions import comparison_map, free_resolution
from proregular.rings import ring_matmul
from proregular.torsion import (MgmReport, _side_report, _stable_annihilator,
                                ext_torsion_tower, gamma, koszul_torsion_tower)
from proregular.towers import (IndSystem, ProSystem, SystemMap, TowerEquivalenceVerdict,
                               required_levels, tower_equivalence, vanishing_check)


def _mul_term(ring: PolyRing, f: Poly, exp: tuple, coeff) -> Poly:
    """``coeff * x^exp * f``."""
    field = ring.field
    return Poly(ring, tuple((mono_mul(e, exp), field.mul(c, coeff)) for e, c in f.terms))


def _reduce_poly(ring: PolyRing, f: Poly, basis) -> Poly:
    """Full normal form of ``f`` modulo ``basis``."""
    field = ring.field
    work = dict(f.terms)
    out = {}
    while work:
        exp = max(work, key=ring.order.key)
        coeff = work.pop(exp)
        if field.is_zero(coeff):
            continue
        red = next((g for g in basis if mono_divides(g.lead_exp(), exp)), None)
        if red is None:
            out[exp] = coeff
            continue
        q = mono_div(exp, red.lead_exp())
        factor = field.mul(coeff, field.inv(red.terms[0][1]))
        for e, c in red.terms[1:]:
            e2 = mono_mul(e, q)
            c1 = field.sub(work.get(e2, field.zero()), field.mul(factor, c))
            if field.is_zero(c1):
                work.pop(e2, None)
            else:
                work[e2] = c1
    return ring.from_terms(out.items())


def _spoly(ring: PolyRing, f: Poly, g: Poly) -> Poly:
    field = ring.field
    l = mono_lcm(f.lead_exp(), g.lead_exp())
    a = _mul_term(ring, f, mono_div(l, f.lead_exp()), field.inv(f.terms[0][1]))
    b = _mul_term(ring, g, mono_div(l, g.lead_exp()), field.inv(g.terms[0][1]))
    return ring.sub(a, b)


def reduce_by_scan(field, key, basis, leads, v: dict, record: dict | None = None) -> dict:
    """Remainder of the module vector ``v`` by ``basis``, the textbook loop:
    the largest term under the sort key ``key`` is reduced by the first
    element, in index order over all of ``leads``, whose lead has the term's
    position and divides its exponent.  ``record`` collects the division
    terms ``(index, multiplier) -> factor``."""
    zero = field.zero()
    work = dict(v)
    out = {}
    while work:
        m = max(work, key=key)
        coeff = work.pop(m)
        pos, exp = m
        red = next((t for t, (lpos, lexp) in enumerate(leads)
                    if lpos == pos and mono_divides(lexp, exp)), None)
        if red is None:
            out[m] = coeff
            continue
        g, lead = basis[red], leads[red]
        q = mono_div(exp, lead[1])
        factor = field.mul(coeff, field.inv(g[lead]))
        for (gpos, e), c in g.items():
            k = (gpos, mono_mul(e, q))
            if k == m:
                continue
            c1 = field.sub(work.get(k, zero), field.mul(c, factor))
            if field.is_zero(c1):
                work.pop(k, None)
            else:
                work[k] = c1
        if record is not None:
            record[(red, q)] = field.add(record.get((red, q), zero), factor)
    return out


def rref(field, m: Mat):
    """Reduced row echelon form; returns ``(R, pivots)``."""
    a = [[field.coerce(x) for x in r] for r in m.rows]
    pivots = []
    prow = 0
    for col in range(m.ncols):
        if prow >= m.nrows:
            break
        r0 = next((r for r in range(prow, m.nrows) if not field.is_zero(a[r][col])), None)
        if r0 is None:
            continue
        a[prow], a[r0] = a[r0], a[prow]
        inv = field.inv(a[prow][col])
        a[prow] = [field.mul(inv, x) for x in a[prow]]
        for r in range(m.nrows):
            if r != prow and not field.is_zero(a[r][col]):
                f = a[r][col]
                a[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[r], a[prow])]
        pivots.append(col)
        prow += 1
    return Mat.from_rows(a) if a else m, pivots


def rank(field, m: Mat) -> int:
    return len(rref(field, m)[1])


# ---------------------------------------------------------------------------
# Hermite form oracles over Z: the ``Mat`` path (row HNF of the transpose,
# transposed back), which the engine's column-list ``column_hermite`` replaced


def transpose(m: Mat) -> Mat:
    return Mat(m.ncols, m.nrows, tuple(m.col(i) for i in range(m.ncols)))


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
    ht, ut = hermite_normal_form(transpose(m))
    return transpose(ht), transpose(ut)


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


def mat_hnf_solver(h: Mat):
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
    coordinates = mat_hnf_solver(h)
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


# ---------------------------------------------------------------------------
# Smith form oracles over Z


def det(m: Mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minors_gcd(m: Mat, k: int) -> int:
    """gcd of all k-by-k minors (brute force)."""
    g = 0
    for rows in combinations(range(m.nrows), k):
        for cols in combinations(range(m.ncols), k):
            sub = Mat.from_rows([[m.entry(i, j) for j in cols] for i in rows])
            g = gcd(g, det(sub))
    return abs(g)


# ---------------------------------------------------------------------------
# submodules and torsion


def submodules_equal(parent: FpModule, cols_a, cols_b) -> bool:
    """Equality of the two spans as submodules of ``parent``: canonical forms
    are unique, so the spans are equal when their canonical forms, with the
    relations of ``parent``, are."""
    ring = parent.ring
    rel = parent.relations.cols()
    return ring.canonical_columns(list(cols_a) + rel, parent.ngens) == \
        ring.canonical_columns(list(cols_b) + rel, parent.ngens)


def stabilized_koszul_level_zero(m: FpModule, a: IdealSpec,
                                 max_stabilization: int = 32):
    """First stable stage of the level-0 Koszul torsion chain.

    Stage ``i`` is ``H^0(Kdual(A; a^i) (x) M)`` realized as a submodule of
    ``M``: the kernel of multiplication by the elementwise powers.
    """
    return _stable_annihilator(m, lambda i: power_sequence(a, i).generators,
                               max_stabilization, "Koszul level-0 chain")


def gamma_idempotence(m: FpModule, a: IdealSpec, max_stabilization: int = 32) -> bool:
    """``gamma(gamma(M)) = gamma(M)`` as submodules of ``M``."""
    first = gamma(m, a, max_stabilization)
    second = gamma(first.module, a, max_stabilization)
    inner = ring_matmul(m.ring, first.inclusion.matrix, second.inclusion.matrix)
    return submodules_equal(m, first.inclusion.matrix.cols(), inner.cols())


def minimized_by_composition(m: FpModule):
    """``(small, to_small, from_small)`` as ``fpmod.minimized`` gives them:
    at each pivot the projection and the inclusion are built as morphisms
    and composed with the ones so far."""
    ring = m.ring
    cur = m
    to_small = identity_morphism(m)
    from_small = identity_morphism(m)
    while True:
        rel = cur.relations
        pivot = None
        for j in range(rel.ncols):
            for i in range(rel.nrows):
                if ring.is_unit(ring.normalize(rel.entry(i, j))):
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        u_inv = ring.unit_inv(rel.entry(i, j))
        keep = [k for k in range(cur.ngens) if k != i]
        # substitute e_i = -u^{-1} * sum_{k != i} rel[k][j] e_k
        new_cols = []
        for c in range(rel.ncols):
            if c == j:
                continue
            f = ring.mul(rel.entry(i, c), u_inv)
            new_cols.append([ring.sub(rel.entry(k, c), ring.mul(f, rel.entry(k, j)))
                             for k in keep])
        nxt = FpModule(ring, len(keep), new_cols)
        proj_rows = []
        for k in keep:
            row = []
            for s in range(cur.ngens):
                if s == k:
                    row.append(ring.one())
                elif s == i:
                    row.append(ring.neg(ring.mul(u_inv, rel.entry(k, j))))
                else:
                    row.append(ring.zero())
            proj_rows.append(tuple(row))
        proj = ModuleMorphism(cur, nxt, Mat(len(keep), cur.ngens, tuple(proj_rows)),
                              check=False)
        incl_rows = tuple(tuple(ring.one() if s == k else ring.zero() for k in keep)
                          for s in range(cur.ngens))
        incl = ModuleMorphism(nxt, cur, Mat(cur.ngens, len(keep), incl_rows), check=False)
        to_small = proj.compose(to_small)
        from_small = from_small.compose(incl)
        cur = nxt
    return cur, to_small, from_small


def kernel_by_second_canonical_form(phi: ModuleMorphism):
    """``(K, incl)`` as ``fpmod.kernel`` gives them, with the relation step
    of the graph method: the cut heads of the syzygies of ``[gens | source
    relations]``, tails and all, put through a second canonical form."""
    ring = phi.source.ring
    gens = kernel_generators(phi)
    lmat = mat_from_cols([tuple(c) for c in gens], phi.source.ngens)
    rels = _relations_among(ring, gens, phi.source) if gens else []
    k = FpModule(ring, lmat.ncols, rels)
    return k, ModuleMorphism(k, phi.source, lmat, check=False)


def cokernel_by_concatenation(phi: ModuleMorphism) -> FpModule:
    """``fpmod.cokernel(phi)`` from the canonical form of ``[phi | target
    relations]`` with no known part."""
    return FpModule(phi.source.ring, phi.target.ngens,
                    phi.matrix.cols() + phi.target.relations.cols())


# ---------------------------------------------------------------------------
# Hom, Ext and Euler characteristics


def hom_module(m: FpModule, n: FpModule):
    """``(H, morphisms)``: the module ``Hom(m, n)`` and, for each of its
    generators, the corresponding concrete morphism ``m -> n``."""
    ring = m.ring
    if m.ngens == 0 or n.ngens == 0:
        return zero_module(ring), []
    p, _, _ = direct_sum([n] * m.ngens)
    s_rel = m.relations
    if s_rel.ncols == 0:
        h, incl = p, identity_morphism(p)
    else:
        q, _, _ = direct_sum([n] * s_rel.ncols)
        rows = []
        for j in range(s_rel.ncols):
            for b2 in range(n.ngens):
                rows.append(tuple(s_rel.entry(k, j) if b == b2 else ring.zero()
                                  for k in range(m.ngens) for b in range(n.ngens)))
        h, incl = kernel(ModuleMorphism(p, q, Mat(q.ngens, p.ngens, tuple(rows)), check=False))
    gens_as_morphisms = []
    for t in range(h.ngens):
        col = incl.matrix.col(t)
        mat_rows = tuple(tuple(col[k * n.ngens + b] for k in range(m.ngens))
                         for b in range(n.ngens))
        gens_as_morphisms.append(ModuleMorphism(m, n, Mat(n.ngens, m.ngens, mat_rows),
                                                check=False))
    return h, gens_as_morphisms


def ext_module(m: FpModule, n: FpModule, p: int, max_length: int | None = None) -> FpModule:
    """``Ext^p(m, n)`` computed from a free resolution of ``m``."""
    res = free_resolution(m, max_length=max_length, truncate_at=p + 1)
    return cohomology(hom_complex(res.complex, module_complex(n)), p)


def order(m: FpModule):
    """Number of elements of a Z-module (None if infinite)."""
    rank, tors = m.abelian_invariants()
    return None if rank else prod(tors)


def euler_orders(c):
    """``(prod |C^q|^(+-1), prod |H^q|^(+-1))`` as Fractions, for a complex of
    finite Z-modules."""
    chain = Fraction(1)
    hom_ = Fraction(1)
    for q in c.degrees():
        o, oh = order(c.module(q)), order(cohomology(c, q))
        chain = chain * o if q % 2 == 0 else chain / o
        hom_ = hom_ * oh if q % 2 == 0 else hom_ / oh
    return chain, hom_


# ---------------------------------------------------------------------------
# mapping cones


def cone(phi: ComplexMorphism) -> BoundedComplex:
    """Mapping cone of ``phi: C -> D``: ``cone^q = C^{q+1} (+) D^q`` and
    ``d = [[-d_C, 0], [phi, d_D]]``; acyclic exactly when ``phi`` is a
    quasi-isomorphism.  The layout records the blocks ``"src"`` and
    ``"tgt"`` of each degree."""
    csrc, ctgt = phi.source, phi.target
    ring = csrc.ring
    lo = min(csrc.lo - 1, ctgt.lo)
    hi = max(csrc.hi - 1, ctgt.hi)
    mods = []
    layout = {}
    for q in range(lo, hi + 1):
        a = csrc.module(q + 1)
        b = ctgt.module(q)
        if a.ngens == 0 and b.ngens == 0:
            mods.append(zero_module(ring))
            layout[q] = [("src", 0, 0), ("tgt", 0, 0)]
            continue
        s, _, _ = direct_sum([a, b])
        mods.append(s)
        layout[q] = [("src", 0, a.ngens), ("tgt", a.ngens, b.ngens)]
    diffs = []
    for q in range(lo, hi):
        a, b = csrc.module(q + 1), ctgt.module(q)
        a2, b2 = csrc.module(q + 2), ctgt.module(q + 1)
        rows_n = a2.ngens + b2.ngens
        cols_n = a.ngens + b.ngens
        rows = [[ring.zero()] * cols_n for _ in range(rows_n)]
        dsrc = csrc.diff(q + 1)
        for i in range(a2.ngens):
            for j in range(a.ngens):
                rows[i][j] = ring.neg(dsrc.matrix.entry(i, j))
        f = phi.map_at(q + 1)
        for i in range(b2.ngens):
            for j in range(a.ngens):
                rows[a2.ngens + i][j] = f.matrix.entry(i, j)
        dtgt = ctgt.diff(q)
        for i in range(b2.ngens):
            for j in range(b.ngens):
                rows[a2.ngens + i][a.ngens + j] = dtgt.matrix.entry(i, j)
        diffs.append(ModuleMorphism(mods[q - lo], mods[q - lo + 1],
                                    Mat(rows_n, cols_n, tuple(tuple(r) for r in rows)),
                                    check=False))
    return BoundedComplex(ring, lo, mods, diffs, check=False, layout=layout)


def _cone_functor_map(phi_src: ComplexMorphism, phi_tgt: ComplexMorphism,
                      f_on_sources: ComplexMorphism, f_on_targets: ComplexMorphism,
                      cone_src: BoundedComplex, cone_tgt: BoundedComplex) -> ComplexMorphism:
    """Functoriality of the cone for a commuting square

        phi_src : C -> D      phi_tgt : C' -> D'
        f_on_sources : C -> C'   f_on_targets : D -> D'

    giving ``cone(phi_src) -> cone(phi_tgt)`` blockwise (checked)."""
    ring = cone_src.ring
    maps = {}
    for q in range(min(cone_src.lo, cone_tgt.lo), max(cone_src.hi, cone_tgt.hi) + 1):
        src = cone_src.module(q)
        tgt = cone_tgt.module(q)
        rows = [[ring.zero()] * src.ngens for _ in range(tgt.ngens)]
        s_offset = {key: off for key, off, _ in cone_src.layout.get(q, [])}
        t_offset = {key: off for key, off, _ in cone_tgt.layout.get(q, [])}
        for key, f, degree in (("src", f_on_sources, q + 1), ("tgt", f_on_targets, q)):
            if key not in s_offset or key not in t_offset:
                continue
            fm = f.map_at(degree).matrix
            off_s, off_t = s_offset[key], t_offset[key]
            for i2 in range(fm.nrows):
                for j2 in range(fm.ncols):
                    e = fm.entry(i2, j2)
                    if not ring.is_zero(e):
                        rows[off_t + i2][off_s + j2] = e
        maps[q] = ModuleMorphism(src, tgt,
                                 Mat(tgt.ngens, src.ngens,
                                     tuple(tuple(r) for r in rows)), check=False)
    return ComplexMorphism(cone_src, cone_tgt, maps, check=True)


def _unit_map(plain: BoundedComplex, tensored: BoundedComplex) -> ComplexMorphism:
    """``id (x) u : plain -> plain (x) K`` for a Koszul complex ``K``: the
    identity of ``plain^q`` onto the block ``(q, 0)`` (checked)."""
    ring = plain.ring
    maps = {}
    for q in range(min(plain.lo, tensored.lo), max(plain.hi, tensored.hi) + 1):
        p, t = plain.module(q), tensored.module(q)
        offset = next((off for k, off, _ in tensored.layout.get(q, []) if k == (q, 0)), None)
        emb = Mat(t.ngens, p.ngens, tuple(
            tuple(ring.one() if offset is not None and r == offset + c else ring.zero()
                  for c in range(p.ngens)) for r in range(t.ngens)))
        maps[q] = ModuleMorphism(p, t, emb, check=False)
    return ComplexMorphism(plain, tensored, maps, check=True)


def _cone_verdicts(cones, cone_trans, system_cls, window: int) -> dict:
    """Per degree ``q``: the vanishing verdict of the tower ``{H^q(cone_i)}``
    (a ``system_cls``) with the maps induced by ``cone_trans``."""
    per_q = {}
    for q in range(min(c.lo for c in cones), max(c.hi for c in cones) + 1):
        objects = [cohomology(c, q) for c in cones]
        transitions = [induced_cohomology_map(t, q, check=False) for t in cone_trans]
        per_q[q] = vanishing_check(system_cls(objects, transitions, check=False), window)
    return per_q


def mgm_check_by_cones(m: FpModule, tower: KoszulTower, window: int = 1) -> MgmReport:
    """``torsion.mgm_check`` read on the mapping cones themselves: for each
    required stage ``k``, the cones of ``id (x) u_i`` on ``Kdual^k (x) M``
    (tau side, a pro-system in ``i``) and of ``rho_i (x) id`` onto
    ``M (x) K^k`` (sigma side, an ind-system in ``i``), with the cone maps
    of the tower transitions."""
    req = required_levels(tower.depth, window)
    mcx = module_complex(m)
    koszuls, duals = tower.stages, tower.duals
    tau_stage = {}
    for k in req:
        base = tensor_complexes(duals[k - 1], mcx)
        id_base = identity_complex_morphism(base)
        tens = [tensor_complexes(base, kos) for kos in koszuls]
        units = [_unit_map(base, t) for t in tens]
        cones = [cone(u) for u in units]
        cone_trans = []
        for i, ktr in enumerate(tower.down):
            ttr = tensor_complex_morphisms(id_base, ktr, tens[i + 1], tens[i])
            cone_trans.append(_cone_functor_map(units[i + 1], units[i],
                                                id_base, ttr, cones[i + 1], cones[i]))
        tau_stage[k] = _cone_verdicts(cones, cone_trans, ProSystem, window)
    sigma_stage = {}
    for k in req:
        base = tensor_complexes(mcx, koszuls[k - 1])
        id_base = identity_complex_morphism(base)
        tens = [tensor_complexes(d, base) for d in duals]
        counits = [block_identity_map(base, t) for t in tens]
        cones = [cone(c) for c in counits]
        cone_trans = []
        for i, dtr in enumerate(tower.up):
            ttr = tensor_complex_morphisms(dtr, id_base, tens[i], tens[i + 1])
            cone_trans.append(_cone_functor_map(counits[i], counits[i + 1],
                                                ttr, id_base, cones[i], cones[i + 1]))
        sigma_stage[k] = _cone_verdicts(cones, cone_trans, IndSystem, window)
    return MgmReport(ideal=tower.ideal, depth=tower.depth, window=window,
                     tau_side=_side_report("torsion-of-completion", tau_stage),
                     sigma_side=_side_report("completion-of-torsion", sigma_stage))


# ---------------------------------------------------------------------------
# copointed idempotence on both counit sides


def right_counit_map(plain: BoundedComplex, tensored: BoundedComplex) -> ComplexMorphism:
    """``id (x) rho : plain (x) R -> plain`` for a complex ``R`` of rank one
    in degree 0: the identity from the block ``(q, 0)`` onto ``plain^q``, zero
    on the other blocks (checked)."""
    ring = plain.ring
    maps = {}
    for q in range(min(plain.lo, tensored.lo), max(plain.hi, tensored.hi) + 1):
        p, t = plain.module(q), tensored.module(q)
        offset = next((off for k, off, _ in tensored.layout.get(q, []) if k == (q, 0)), None)
        proj = Mat(p.ngens, t.ngens, tuple(
            tuple(ring.one() if offset is not None and c == offset + r else ring.zero()
                  for c in range(t.ngens)) for r in range(p.ngens)))
        maps[q] = ModuleMorphism(t, p, proj, check=False)
    return ComplexMorphism(tensored, plain, maps, check=True)


def copointed_idempotence_both_sides(tower: KoszulTower, window: int = 1) -> dict:
    """``{"left": {p: verdict}, "right": {p: verdict}}``: the tower
    equivalence verdict of the ind-system map ``{H^p(D_i (x) D_i) ->
    H^p(D_i)}`` for the left counit ``rho (x) id`` and for the right counit
    ``id (x) rho``, each computed in full, ``D_i`` the dual Koszul stages."""
    depth, n = tower.depth, len(tower.ideal.generators)
    duals, dual_trs = tower.duals, tower.up
    squares = [tensor_complexes(d, d) for d in duals]
    square_trs = [tensor_complex_morphisms(tr, tr, squares[i], squares[i + 1])
                  for i, tr in enumerate(dual_trs)]
    counits = {"left": [block_identity_map(d, sq) for d, sq in zip(duals, squares)],
               "right": [right_counit_map(d, sq) for d, sq in zip(duals, squares)]}
    out = {"left": {}, "right": {}}
    for p in range(0, 2 * n + 1):
        src = IndSystem([cohomology(sq, p) for sq in squares],
                        [induced_cohomology_map(t, p, check=False) for t in square_trs],
                        check=False)
        tgt = IndSystem([cohomology(d, p) for d in duals],
                        [induced_cohomology_map(t, p, check=False) for t in dual_trs],
                        check=False)
        for side, maps in counits.items():
            level_maps = [induced_cohomology_map(c, p, check=False) for c in maps]
            out[side][p] = tower_equivalence(SystemMap(src, tgt, level_maps, check=True),
                                             window)
    return out


# ---------------------------------------------------------------------------
# paper checks as oracles


def ext_koszul_comparison(m: FpModule, tower: KoszulTower, p: int,
                          window: int = 1) -> TowerEquivalenceVerdict:
    """Map the ``ext`` model of local cohomology, ``{Ext^p(A/a^i, M)}``, to
    the ``koszul`` model through the comparison chain maps
    ``K(A; a^i) -> F(A/a^i)`` (the identity on the generator in degree 0),
    and check that the map is a tower equivalence."""
    ring = m.ring
    mcx = module_complex(m)
    one = mat_from_cols([(ring.one(),)], 1)
    level_maps = []
    for i, (k, dual) in enumerate(zip(tower.stages, tower.duals), start=1):
        res = free_resolution(quotient_module(tower.ideal, i), truncate_at=p + 1)
        hom = hom_complex(res.complex, mcx)
        unit = ModuleMorphism(k.module(0), res.complex.module(0), one, check=False)
        hom_map = hom_of_source_map(comparison_map(k, res, unit), mcx, hom_source=hom)
        # Hom(K, M) is the Koszul stage complex Kdual (x) M
        stage = tensor_complexes(dual, mcx)
        adj = ComplexMorphism(hom, stage, {
            q: ModuleMorphism(hom.module(q), stage.module(q), hom_map.map_at(q).matrix,
                              check=False) for q in hom.degrees()}, check=False)
        level_maps.append(induced_cohomology_map(adj, p, check=False))
    fmap = SystemMap(ext_torsion_tower(m, tower.ideal, p, tower.depth),
                     koszul_torsion_tower(m, tower, p), level_maps, check=True)
    return tower_equivalence(fmap, window)


def _radical_contains(a: IdealSpec, b: IdealSpec, bound: int) -> bool:
    """Does every generator of ``b`` have a power inside ``(a)``?"""
    ring = a.ring
    ideal = FpModule(ring, 1, [[g] for g in a.generators])
    for g in b.generators:
        p = ring.one()
        for _ in range(bound):
            p = ring.mul(p, g)
            if ideal.contains([p]):
                break
        else:
            return False
    return True


def radical_invariance_suite(a: IdealSpec, b: IdealSpec, depth: int = 4,
                             window: int = 1, exponent_bound: int = 8):
    """The WPR verdicts of ``a`` and of ``b``, once ``sqrt(a) = sqrt(b)`` is
    checked up to the exponent bound (``ValueError`` otherwise)."""
    if not (_radical_contains(a, b, exponent_bound) and
            _radical_contains(b, a, exponent_bound)):
        raise ValueError("radical comparability not established within bound")
    return (weak_proregularity_check(KoszulTower(a, depth), window),
            weak_proregularity_check(KoszulTower(b, depth), window))
