"""Bounded cochain complexes of finitely presented modules.

Sign conventions, fixed once and used everywhere:

* tensor differential   ``d(x (x) y) = dx (x) y + (-1)^i x (x) dy``  for
  ``x`` of degree ``i``;
* Hom differential      ``d(f) = d_D o f - (-1)^k f o d_C``          for
  ``f`` of total degree ``k``.

``d o d = 0`` is checked exactly at construction.  Cohomology is returned
as a minimized module together with a cycle-representative matrix, which is
what makes induced maps on cohomology (and hence all tower functoriality)
computable.
"""

from __future__ import annotations

from .fpmod import (FpModule, ModuleMorphism, cokernel, direct_sum,
                    factor_through, free_module, identity_morphism, kernel,
                    tensor_module, zero_module, zero_morphism)
from .intlinalg import Mat
from .rings import ring_matmul, ring_zero_mat


class ComplexError(ValueError):
    pass


class BoundedComplex:
    """Cochain complex supported in degrees ``[lo, hi]``."""

    __slots__ = ("ring", "lo", "hi", "modules", "diffs", "layout", "_cohomology")

    def __init__(self, ring, lo: int, modules, diffs, check: bool = True,
                 layout=None):
        """``modules[q - lo]`` is the degree-``q`` module; ``diffs[q - lo]``
        the morphism ``C^q -> C^{q+1}`` (one fewer than modules)."""
        modules = list(modules)
        diffs = list(diffs)
        if len(modules) == 0:
            raise ComplexError("empty complex; use module_complex(zero_module(ring))")
        if len(diffs) != len(modules) - 1:
            raise ComplexError("need exactly one differential per adjacent pair")
        self.ring = ring
        self.lo = lo
        self.hi = lo + len(modules) - 1
        self.modules = {lo + i: m for i, m in enumerate(modules)}
        self.diffs = {lo + i: d for i, d in enumerate(diffs)}
        self.layout = layout or {}
        self._cohomology = {}
        if check:
            for q, d in self.diffs.items():
                if d.source is not self.modules[q] and d.source.ngens != self.modules[q].ngens:
                    raise ComplexError(f"differential at {q} has wrong source")
                if d.target.ngens != self.modules[q + 1].ngens:
                    raise ComplexError(f"differential at {q} has wrong target")
            for q in range(self.lo, self.hi - 1):
                comp = self.diffs[q + 1].compose(self.diffs[q])
                if not comp.is_zero_morphism():
                    raise ComplexError(f"d o d != 0 between degrees {q} and {q + 2}")

    def module(self, q: int) -> FpModule:
        m = self.modules.get(q)
        return m if m is not None else zero_module(self.ring)

    def diff(self, q: int) -> ModuleMorphism:
        d = self.diffs.get(q)
        if d is not None:
            return d
        return zero_morphism(self.module(q), self.module(q + 1))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        ranks = ", ".join(f"{q}:{self.module(q).ngens}" for q in self.degrees())
        return f"Complex[{ranks}]"


def module_complex(m: FpModule, degree: int = 0) -> BoundedComplex:
    return BoundedComplex(m.ring, degree, [m], [], check=False)


def ring_complex(ring) -> BoundedComplex:
    return module_complex(free_module(ring, 1))


class ComplexMorphism:
    """Degreewise morphism commuting with the differentials (checked)."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: BoundedComplex, target: BoundedComplex, maps,
                 check: bool = True):
        self.source = source
        self.target = target
        self.maps = dict(maps)
        if check:
            lo = min(source.lo, target.lo)
            hi = max(source.hi, target.hi)
            for q in range(lo, hi):
                left = self.map_at(q + 1).compose(source.diff(q))
                right = target.diff(q).compose(self.map_at(q))
                if not left.sub(right).is_zero_morphism():
                    raise ComplexError(f"morphism does not commute with d at degree {q}")

    def map_at(self, q: int) -> ModuleMorphism:
        f = self.maps.get(q)
        if f is not None:
            return f
        return zero_morphism(self.source.module(q), self.target.module(q))

    def compose(self, other: "ComplexMorphism") -> "ComplexMorphism":
        lo = min(self.target.lo, other.source.lo)
        hi = max(self.target.hi, other.source.hi)
        maps = {q: self.map_at(q).compose(other.map_at(q)) for q in range(lo, hi + 1)}
        return ComplexMorphism(other.source, self.target, maps, check=False)


def identity_complex_morphism(c: BoundedComplex) -> ComplexMorphism:
    return ComplexMorphism(c, c, {q: identity_morphism(c.module(q)) for q in c.degrees()},
                           check=False)


# ---------------------------------------------------------------------------
# cohomology


def cohomology_data(c: BoundedComplex, q: int):
    """``(H, reps)``: minimized cohomology at ``q`` and a matrix whose
    columns are cycle representatives in ``C^q`` of the generators of ``H``."""
    if q in c._cohomology:
        return c._cohomology[q]
    ring = c.ring
    cq = c.module(q)
    if cq.ngens == 0 or q < c.lo or q > c.hi:
        result = (zero_module(ring), ring_zero_mat(ring, cq.ngens, 0))
        c._cohomology[q] = result
        return result
    k, incl = kernel(c.diff(q))
    prev = c.diff(q - 1)
    if prev.source.ngens == 0 or k.ngens == 0:
        h, _, section = cokernel(zero_morphism(zero_module(ring), k))
    else:
        # lift image columns of d^{q-1} through the kernel inclusion
        lift = ModuleMorphism(prev.source, k,
                              factor_through(incl.matrix, cq, prev.matrix,
                                             "image does not lie in kernel; d o d != 0?"),
                              check=False)
        h, _, section = cokernel(lift)
    reps = ring_matmul(ring, incl.matrix, section) if k.ngens else \
        ring_zero_mat(ring, cq.ngens, h.ngens)
    result = (h, reps)
    c._cohomology[q] = result
    return result


def cohomology(c: BoundedComplex, q: int) -> FpModule:
    return cohomology_data(c, q)[0]


def induced_cohomology_map(phi: ComplexMorphism, q: int,
                           check: bool = True) -> ModuleMorphism:
    """The map ``H^q(phi)`` on minimized cohomology presentations."""
    hs, reps_s = cohomology_data(phi.source, q)
    ht, reps_t = cohomology_data(phi.target, q)
    if hs.ngens == 0 or ht.ngens == 0:
        return zero_morphism(hs, ht)
    prev_t = phi.target.diff(q - 1).matrix
    pushed = ring_matmul(phi.source.ring, phi.map_at(q).matrix, reps_s)
    matrix = factor_through(reps_t, phi.target.module(q), pushed,
                            "pushed cycle not expressible; morphism invalid?",
                            extra_cols=[prev_t.col(j) for j in range(prev_t.ncols)])
    return ModuleMorphism(hs, ht, matrix, check=check)


# ---------------------------------------------------------------------------
# brutal truncation


def truncate(x, lo: int, hi: int):
    """The brutal truncation to the degrees ``[lo, hi]`` of a complex (its
    modules and differentials there, zero elsewhere) or of a chain map (its
    components there, between the truncations of its source and target;
    still a chain map, which is checked).

    ``truncate(c, c.lo, q)`` is a quotient complex of ``c`` and
    ``truncate(c, q, c.hi)`` a subcomplex.
    """
    if isinstance(x, ComplexMorphism):
        src, tgt = truncate(x.source, lo, hi), truncate(x.target, lo, hi)
        kept = range(max(lo, x.source.lo), min(hi, x.source.hi) + 1)
        return ComplexMorphism(src, tgt, {q: x.map_at(q) for q in kept}, check=True)
    kept = range(max(lo, x.lo), min(hi, x.hi) + 1)
    if not kept:
        return module_complex(zero_module(x.ring), lo)
    return BoundedComplex(x.ring, kept.start, [x.modules[q] for q in kept],
                          [x.diffs[q] for q in kept[:-1]], check=False)


# ---------------------------------------------------------------------------
# tensor


def tensor_complexes(c: BoundedComplex, d: BoundedComplex) -> BoundedComplex:
    """Total complex of the double complex ``C (x) D`` with Koszul signs.

    The layout records, per total degree, blocks ``((i, j), offset, width)``
    ordered by ascending ``i``; inside a block generators are indexed
    ``a * gD + b``.
    """
    if c.ring != d.ring:
        raise ComplexError("mixed rings in tensor")
    ring = c.ring
    lo, hi = c.lo + d.lo, c.hi + d.hi
    mods = []
    layout = {}
    blocks = {}
    for q in range(lo, hi + 1):
        entries = []
        offset = 0
        pieces = []
        for i in range(c.lo, c.hi + 1):
            j = q - i
            if j < d.lo or j > d.hi:
                continue
            t = tensor_module(c.module(i), d.module(j))
            entries.append(((i, j), offset, t.ngens))
            offset += t.ngens
            pieces.append(t)
        if not pieces:
            mods.append(zero_module(ring))
        elif len(pieces) == 1:
            mods.append(pieces[0])
        else:
            s, _, _ = direct_sum(pieces)
            mods.append(s)
        layout[q] = entries
        blocks[q] = {key: (off, width) for key, off, width in entries}
    diffs = []
    for q in range(lo, hi):
        src_n = mods[q - lo].ngens
        tgt_n = mods[q - lo + 1].ngens
        rows = [[ring.zero()] * src_n for _ in range(tgt_n)]
        for (i, j), off_s, width in layout[q]:
            if width == 0:
                continue
            gc, gd = c.module(i).ngens, d.module(j).ngens
            # d_C (x) id : block (i+1, j)
            if (i + 1, j) in blocks[q + 1]:
                off_t = blocks[q + 1][(i + 1, j)][0]
                dc = c.diff(i).matrix
                for a2 in range(dc.nrows):
                    for a in range(gc):
                        e = dc.entry(a2, a)
                        if ring.is_zero(e):
                            continue
                        for b in range(gd):
                            rows[off_t + a2 * gd + b][off_s + a * gd + b] = e
            # (-1)^i id (x) d_D : block (i, j+1)
            if (i, j + 1) in blocks[q + 1]:
                off_t = blocks[q + 1][(i, j + 1)][0]
                dd = d.diff(j).matrix
                sign = ring.one() if i % 2 == 0 else ring.neg(ring.one())
                gd2 = d.module(j + 1).ngens
                for b2 in range(dd.nrows):
                    for b in range(gd):
                        e = dd.entry(b2, b)
                        if ring.is_zero(e):
                            continue
                        for a in range(gc):
                            rows[off_t + a * gd2 + b2][off_s + a * gd + b] = ring.mul(sign, e)
        diffs.append(ModuleMorphism(mods[q - lo], mods[q - lo + 1],
                                    Mat(tgt_n, src_n, tuple(tuple(r) for r in rows)),
                                    check=False))
    return BoundedComplex(ring, lo, mods, diffs, check=False, layout=layout)


def tensor_complex_morphisms(f: ComplexMorphism, g: ComplexMorphism,
                             source: BoundedComplex | None = None,
                             target: BoundedComplex | None = None,
                             check: bool = False) -> ComplexMorphism:
    """``f (x) g`` for degree-zero chain maps (no extra signs); with
    ``check`` it is checked to be a chain map."""
    ring = f.source.ring
    src = source if source is not None else tensor_complexes(f.source, g.source)
    tgt = target if target is not None else tensor_complexes(f.target, g.target)
    maps = {}
    for q in src.degrees():
        src_n = src.module(q).ngens
        tgt_n = tgt.module(q).ngens
        rows = [[ring.zero()] * src_n for _ in range(tgt_n)]
        tlayout = {key: (off, w) for key, off, w in tgt.layout.get(q, [])}
        for (i, j), off_s, width in src.layout.get(q, []):
            if width == 0 or (i, j) not in tlayout:
                continue
            off_t = tlayout[(i, j)][0]
            fi = f.map_at(i).matrix
            gj = g.map_at(j).matrix
            gd_s = g.source.module(j).ngens
            gd_t = g.target.module(j).ngens
            for a2 in range(fi.nrows):
                for a in range(fi.ncols):
                    e = fi.entry(a2, a)
                    if ring.is_zero(e):
                        continue
                    for b2 in range(gj.nrows):
                        for b in range(gj.ncols):
                            e2 = gj.entry(b2, b)
                            if ring.is_zero(e2):
                                continue
                            rows[off_t + a2 * gd_t + b2][off_s + a * gd_s + b] = ring.mul(e, e2)
        maps[q] = ModuleMorphism(src.module(q), tgt.module(q),
                                 Mat(tgt_n, src_n, tuple(tuple(r) for r in rows)),
                                 check=False)
    return ComplexMorphism(src, tgt, maps, check=check)


def block_identity_map(plain: BoundedComplex,
                       tensored: BoundedComplex) -> ComplexMorphism:
    """The projection of ``tensored = R (x) plain`` onto its block ``(0, q)``
    in each degree ``q``, ``tensored -> plain``, for a complex ``R`` of rank
    one in degree 0: the identity from that block onto ``plain^q``, zero on
    the other blocks.  It is a chain map when the projection of ``R`` onto
    degree 0 is one, as for the counit ``rho (x) id`` of a dual Koszul
    complex; that is checked.
    """
    ring = plain.ring
    one, zero = ring.one(), ring.zero()
    maps = {}
    for q in range(min(plain.lo, tensored.lo), max(plain.hi, tensored.hi) + 1):
        p, t = plain.module(q), tensored.module(q)
        offset = next((off for k, off, _ in tensored.layout.get(q, []) if k == (0, q)), None)
        proj = Mat(p.ngens, t.ngens, tuple(
            tuple(one if offset is not None and c == offset + r else zero
                  for c in range(t.ngens)) for r in range(p.ngens)))
        maps[q] = ModuleMorphism(t, p, proj, check=False)
    return ComplexMorphism(tensored, plain, maps, check=True)


# ---------------------------------------------------------------------------
# hom from a degreewise free complex


def _require_free(c: BoundedComplex):
    for q in c.degrees():
        if c.module(q).free_rank is None:
            raise ComplexError("hom_complex requires a degreewise free source")


def hom_complex(c: BoundedComplex, d: BoundedComplex) -> BoundedComplex:
    """``Hom(C, D)`` for ``C`` degreewise free.

    Degree ``k`` holds blocks ``Hom(C^i, D^{i+k}) = (D^{i+k})^{rank_i}``,
    recorded in the layout as ``(i, offset, width)``; inside a block the
    generator ``(copy a, generator b)`` sits at ``a * gD + b``.
    """
    _require_free(c)
    if c.ring != d.ring:
        raise ComplexError("mixed rings in hom")
    ring = c.ring
    lo, hi = d.lo - c.hi, d.hi - c.lo
    mods = []
    layout = {}
    blocks = {}
    for k in range(lo, hi + 1):
        entries = []
        offset = 0
        pieces = []
        for i in range(c.lo, c.hi + 1):
            jd = i + k
            if jd < d.lo or jd > d.hi:
                continue
            r = c.module(i).free_rank
            dm = d.module(jd)
            width = r * dm.ngens
            entries.append((i, offset, width))
            offset += width
            pieces.extend([dm] * r)
        if not pieces:
            mods.append(zero_module(ring))
        else:
            s, _, _ = direct_sum(pieces) if len(pieces) > 1 else (pieces[0], None, None)
            mods.append(s)
        layout[k] = entries
        blocks[k] = {i: (off, w) for i, off, w in entries}
    diffs = []
    for k in range(lo, hi):
        src_n = mods[k - lo].ngens
        tgt_n = mods[k - lo + 1].ngens
        rows = [[ring.zero()] * src_n for _ in range(tgt_n)]
        sign = ring.one() if k % 2 == 0 else ring.neg(ring.one())
        neg_sign = ring.neg(sign)
        for i, off_s, width in layout[k]:
            if width == 0:
                continue
            r_i = c.module(i).free_rank
            dm = d.module(i + k)
            gd = dm.ngens
            # post-composition with d_D : block i stays
            if i in blocks[k + 1]:
                off_t = blocks[k + 1][i][0]
                dd = d.diff(i + k).matrix
                gd2 = d.module(i + k + 1).ngens
                for a in range(r_i):
                    for b2 in range(gd2):
                        for b in range(gd):
                            e = dd.entry(b2, b)
                            if not ring.is_zero(e):
                                rows[off_t + a * gd2 + b2][off_s + a * gd + b] = e
            # pre-composition with d_C : block i -> block i-1, sign -(-1)^k
            if i - 1 in blocks[k + 1]:
                off_t = blocks[k + 1][i - 1][0]
                t = c.diff(i - 1).matrix  # rank_i x rank_{i-1}
                r_prev = c.module(i - 1).free_rank
                for a2 in range(r_prev):
                    for a in range(r_i):
                        e = t.entry(a, a2)
                        if ring.is_zero(e):
                            continue
                        for b in range(gd):
                            prev = rows[off_t + a2 * gd + b][off_s + a * gd + b]
                            rows[off_t + a2 * gd + b][off_s + a * gd + b] = \
                                ring.add(prev, ring.mul(neg_sign, e))
        diffs.append(ModuleMorphism(mods[k - lo], mods[k - lo + 1],
                                    Mat(tgt_n, src_n, tuple(tuple(r) for r in rows)),
                                    check=False))
    return BoundedComplex(ring, lo, mods, diffs, check=False, layout=layout)


def hom_of_source_map(t: ComplexMorphism, d: BoundedComplex,
                      hom_source: BoundedComplex | None = None,
                      hom_target: BoundedComplex | None = None) -> ComplexMorphism:
    """Contravariant functoriality: ``Hom(t, D): Hom(C1, D) -> Hom(C2, D)``
    for a degree-zero chain map ``t: C2 -> C1`` of free complexes."""
    c2, c1 = t.source, t.target
    ring = d.ring
    hsrc = hom_source if hom_source is not None else hom_complex(c1, d)
    htgt = hom_target if hom_target is not None else hom_complex(c2, d)
    maps = {}
    lo = min(hsrc.lo, htgt.lo)
    hi = max(hsrc.hi, htgt.hi)
    for k in range(lo, hi + 1):
        src_n = hsrc.module(k).ngens
        tgt_n = htgt.module(k).ngens
        rows = [[ring.zero()] * src_n for _ in range(tgt_n)]
        tlayout = {i: (off, w) for i, off, w in htgt.layout.get(k, [])}
        for i, off_s, width in hsrc.layout.get(k, []):
            if width == 0 or i not in tlayout:
                continue
            off_t = tlayout[i][0]
            ti = t.map_at(i).matrix  # rank(c1^i) x rank(c2^i)
            gd = d.module(i + k).ngens
            for a1 in range(ti.nrows):
                for a2 in range(ti.ncols):
                    e = ti.entry(a1, a2)
                    if ring.is_zero(e):
                        continue
                    for b in range(gd):
                        rows[off_t + a2 * gd + b][off_s + a1 * gd + b] = e
        maps[k] = ModuleMorphism(hsrc.module(k), htgt.module(k),
                                 Mat(tgt_n, src_n, tuple(tuple(r) for r in rows)),
                                 check=False)
    return ComplexMorphism(hsrc, htgt, maps, check=False)

