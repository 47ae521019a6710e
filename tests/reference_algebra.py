"""Reference algorithms that tests use as oracles, independent of the engine.

``_reduce_poly`` and ``_spoly`` are a textbook polynomial division and
S-polynomial, written without the module layer's ``_Reducer``; ``rref`` and
``rank`` are Gaussian elimination over a field;
``stabilized_koszul_level_zero`` is the torsion submodule read off the
level-0 Koszul chain instead of the ideal-power chain of ``gamma``;
``minimized_by_composition`` prunes unit pivots by composing whole
morphisms through ``ring_matmul`` at every pivot, and tests every entry for
a unit through its normal form.  Nothing under ``src/`` uses them.
"""

from __future__ import annotations

from proregular.fpmod import (FpModule, IdealSpec, ModuleMorphism, identity_morphism,
                              power_sequence)
from proregular.intlinalg import Mat
from proregular.poly import Poly, PolyRing, mono_div, mono_divides, mono_lcm, mono_mul
from proregular.torsion import _stable_annihilator


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
        factor = field.mul(coeff, field.inv(red.lead_coeff()))
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
    a = ring.mul_term(f, mono_div(l, f.lead_exp()), field.inv(f.lead_coeff()))
    b = ring.mul_term(g, mono_div(l, g.lead_exp()), field.inv(g.lead_coeff()))
    return ring.sub(a, b)


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


def stabilized_koszul_level_zero(m: FpModule, a: IdealSpec,
                                 max_stabilization: int = 32):
    """First stable stage of the level-0 Koszul torsion chain.

    Stage ``i`` is ``H^0(Kdual(A; a^i) (x) M)`` realized as a submodule of
    ``M``: the kernel of multiplication by the elementwise powers.
    """
    return _stable_annihilator(m, lambda i: power_sequence(a, i).generators,
                               max_stabilization, "Koszul level-0 chain")


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
