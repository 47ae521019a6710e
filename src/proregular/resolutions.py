"""Free resolutions and their comparison lifts.

Over Z the column Hermite form of the presentation already has independent
columns, so every module resolves in length at most one.  Over a polynomial
ring the differentials are module Groebner bases and each syzygy step is
computed from the S-pair reductions of the previous one, which by
Schreyer's theorem form a Groebner basis for the induced Schreyer order.
The length is bounded by the number of variables because of two things
together (Eisenbud, *Commutative Algebra*, Thm 15.10 and Cor 15.11): each
basis is arranged lex-descending within each lead position, so the leading
terms of every syzygy step lose one more variable; and each basis is made
minimal, so once only the last variable is left each position carries at
most one lead and no further syzygies arise.  Over a quotient ring
resolutions can be infinite, so a budget is enforced and exceeding it
raises ``BudgetExceededError`` (unless a truncated resolution was
requested, which is all Ext in a fixed degree needs).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import BoundedComplex, ComplexMorphism
from .fpmod import FpModule, ModuleMorphism, factor_through, free_module
from .groebner import (SchreyerOrder, TopOrder, columns_to_vectors,
                       minimal_module_basis, module_groebner, vec_lead,
                       vectors_to_columns)
from .intlinalg import mat_from_cols
from .rings import ring_identity, ring_matmul, ring_zero_mat


class BudgetExceededError(RuntimeError):
    pass


@dataclass
class FreeResolution:
    """``... -> F_2 -> F_1 -> F_0 -> M -> 0`` with ``F_q`` free in degree
    ``-q``; ``augmentation : F_0 -> M``."""

    complex: BoundedComplex
    augmentation: ModuleMorphism
    length: int
    truncated: bool

    @property
    def module(self) -> FpModule:
        return self.augmentation.target

    def ranks(self):
        return [self.complex.module(-q).free_rank for q in range(self.length + 1)]


def _resolution_over_z(m: FpModule):
    ring = m.ring
    rel = m.relations  # canonical column HNF: columns independent
    f0 = free_module(ring, m.ngens)
    mods = [f0]
    diffs = []
    if rel.ncols:
        f1 = free_module(ring, rel.ncols)
        mods.insert(0, f1)
        diffs.append(ModuleMorphism(f1, f0, rel, check=False))
    comp = BoundedComplex(ring, -len(diffs), mods, diffs, check=False)
    aug = ModuleMorphism(f0, m, ring_identity(ring, m.ngens), check=False)
    return FreeResolution(comp, aug, len(diffs), truncated=False)


def _schreyer_arrange(order, vecs):
    """Minimal basis sorted by lead position, then lex-descending lead.

    The length bound needs both halves (Eisenbud, Thm 15.10 and Cor 15.11):
    the arrangement makes the leads of each syzygy step lose one more
    variable, and minimality keeps redundant leads in one position from
    forming S-pairs once only the last variable is left.
    """
    kept, leads = minimal_module_basis(order, vecs)
    arranged = sorted(zip(leads, kept),
                      key=lambda mv: (mv[0][0], tuple(-e for e in mv[0][1])))
    return [v for _, v in arranged]


def _resolution_over_poly(m: FpModule, max_length, truncate_at):
    base = m.ring.poly_ring
    ring = m.ring
    f0 = free_module(ring, m.ngens)
    mods = [f0]
    diffs_cols = []  # list of (ncols_source, columns) per step
    order = TopOrder(base.order)
    rel_cols = [list(m.relations.col(j)) for j in range(m.relations.ncols)]
    vecs = [v for v in columns_to_vectors(base, rel_cols) if v]
    if vecs:
        gb, _ = module_groebner(base, vecs, order)
        vecs = _schreyer_arrange(order, gb)
    step = 0
    cur_vecs, cur_order, cur_rows = vecs, order, m.ngens
    while cur_vecs:
        step += 1
        if truncate_at is not None and step > truncate_at:
            return _assemble_poly_resolution(m, mods, diffs_cols, truncated=True)
        if truncate_at is None and step > max_length:
            raise BudgetExceededError(
                f"resolution exceeded budget of {max_length} steps")
        cols = vectors_to_columns(base, cur_vecs, cur_rows)
        fk = free_module(ring, len(cols))
        mods.insert(0, fk)
        diffs_cols.append((cur_rows, cols))
        # syzygies of the current basis, Groebner for the Schreyer order
        anchors = [vec_lead(cur_order, v) for v in cur_vecs]
        basis, syz = module_groebner(base, cur_vecs, cur_order,
                                     want_syzygies=True, preserve_order=True)
        if len(basis) != len(cur_vecs):
            # Schreyer's theorem makes cur_vecs a Groebner basis already;
            # extra elements would give syzygy positions past ``anchors``
            raise RuntimeError(
                f"resolution step {step}: basis of {len(cur_vecs)} elements "
                f"is not a Groebner basis ({len(basis) - len(cur_vecs)} "
                f"new elements)")
        nxt_order = SchreyerOrder(cur_order, anchors)
        syz = [v for v in syz if v]
        cur_vecs = _schreyer_arrange(nxt_order, syz)
        cur_order, cur_rows = nxt_order, len(cols)
    return _assemble_poly_resolution(m, mods, diffs_cols, truncated=False)


def _assemble_poly_resolution(m: FpModule, mods, diffs_cols, truncated):
    ring = m.ring
    diffs = []
    n = len(diffs_cols)
    for k in range(n, 0, -1):
        nrows, cols = diffs_cols[k - 1]
        mat = mat_from_cols([tuple(c) for c in cols], nrows)
        src = mods[n - k]
        tgt = mods[n - k + 1]
        diffs.append(ModuleMorphism(src, tgt, mat, check=False))
    comp = BoundedComplex(ring, -n, mods, diffs, check=False)
    aug = ModuleMorphism(mods[-1], m, ring_identity(ring, m.ngens), check=False)
    return FreeResolution(comp, aug, n, truncated=truncated)


def _resolution_over_quotient(m: FpModule, max_length, truncate_at):
    ring = m.ring
    f0 = free_module(ring, m.ngens)
    mods = [f0]
    diffs_cols = []
    # relation generators that are nonzero in A/I
    cur_cols = []
    for j in range(m.relations.ncols):
        col = [ring.normalize(x) for x in m.relations.col(j)]
        if any(not ring.is_zero(x) for x in col):
            cur_cols.append(col)
    cur_rows = m.ngens
    step = 0
    while cur_cols:
        step += 1
        if truncate_at is not None and step > truncate_at:
            return _assemble_poly_resolution(m, mods, diffs_cols, truncated=True)
        if truncate_at is None and step > max_length:
            raise BudgetExceededError(
                f"resolution exceeded budget of {max_length} steps over quotient ring")
        fk = free_module(ring, len(cur_cols))
        mods.insert(0, fk)
        diffs_cols.append((cur_rows, [list(c) for c in cur_cols]))
        syz = ring.kernel_of_columns(cur_cols, cur_rows)
        nxt = []
        for v in syz:
            col = [ring.normalize(x) for x in v]
            if any(not ring.is_zero(x) for x in col):
                nxt.append(col)
        cur_cols, cur_rows = nxt, len(cur_cols)
    return _assemble_poly_resolution(m, mods, diffs_cols, truncated=False)


def free_resolution(m: FpModule, max_length: int | None = None,
                    truncate_at: int | None = None) -> FreeResolution:
    """Free resolution of ``m``.

    ``max_length`` bounds the number of syzygy steps (default: 1 over Z,
    number of variables over a polynomial ring, 8 over a quotient ring);
    exceeding it raises ``BudgetExceededError``.  With ``truncate_at`` the
    resolution is cut there instead and flagged ``truncated``.

    Over a polynomial ring the budget is never below the number of
    variables, which bounds the length (see the module docstring), so there
    ``BudgetExceededError`` signals a broken invariant rather than an
    expected outcome.
    """
    if m.ring.kind == "integers":
        return _resolution_over_z(m)
    if m.ring.kind == "polynomial":
        bound = max(1, m.ring.poly_ring.nvars)
        cap = max(max_length, bound) if max_length is not None else bound
        return _resolution_over_poly(m, cap, truncate_at)
    cap = max_length if max_length is not None else 8
    return _resolution_over_quotient(m, cap, truncate_at)


# ---------------------------------------------------------------------------
# comparison lifts


def comparison_map(source: BoundedComplex, res: FreeResolution,
                   map0: ModuleMorphism) -> ComplexMorphism:
    """Chain map ``source -> res.complex`` extending ``map0 : source^0 -> F_0``.

    ``source`` is a complex of free modules in degrees ``<= 0``; degree
    ``-q`` is solved through the differential of ``res`` from degree
    ``-(q - 1)``, for ``q = 1 .. min(-source.lo, res.length)``: the usual
    comparison construction for projective resolutions.
    """
    ring = res.complex.ring
    maps = {0: map0}
    for q in range(1, min(-source.lo, res.length) + 1):
        fs = source.module(-q)
        ft = res.complex.module(-q)
        if fs.ngens == 0 or ft.ngens == 0:
            maps[-q] = ModuleMorphism(fs, ft, ring_zero_mat(ring, ft.ngens, fs.ngens),
                                      check=False)
            continue
        want = ring_matmul(ring, maps[-(q - 1)].matrix, source.diff(-q).matrix)
        lift = factor_through(res.complex.diff(-q).matrix, res.complex.module(-(q - 1)),
                              want, "comparison lift failed; resolution not exact?")
        maps[-q] = ModuleMorphism(fs, ft, lift, check=False)
    return ComplexMorphism(source, res.complex, maps, check=False)


def lift_through_resolution(phi: ModuleMorphism, res_src: FreeResolution,
                            res_tgt: FreeResolution) -> ComplexMorphism:
    """Chain map ``F(phi.source) -> F(phi.target)`` over ``phi``."""
    ring = phi.source.ring
    # degree 0: lift phi o aug_src through aug_tgt
    want = ring_matmul(ring, phi.matrix, res_src.augmentation.matrix)
    lift = factor_through(res_tgt.augmentation.matrix, res_tgt.module, want,
                          "cannot lift morphism through resolutions")
    map0 = ModuleMorphism(res_src.complex.module(0), res_tgt.complex.module(0), lift,
                          check=False)
    return comparison_map(res_src.complex, res_tgt, map0)
