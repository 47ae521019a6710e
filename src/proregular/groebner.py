"""Buchberger's algorithm for ideals and submodules of free modules.

Two layers live here.

Ideal layer: ``groebner_basis`` computes the unique reduced basis of an
ideal of a ``PolyRing``; ``normal_form`` is the confluent remainder, so
membership is ``normal_form(f, G).is_zero()``.

Module layer: elements of a free module ``A^r`` are sparse dicts
``{(position, exponent): coeff}``.  ``module_groebner`` runs Buchberger with
S-pairs restricted to equal leading positions; it optionally records, for
every S-pair reduction to zero, the corresponding syzygy -- that set of
syzygies is a Groebner basis of the syzygy module with respect to the
Schreyer order induced by the input (the fact powering free resolutions).

Both Buchberger loops skip S-pairs by the chain criterion (Buchberger 1979;
Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 2 Sec. 10): a
popped pair ``(i, j)`` is redundant when another element ``k`` with a lead
in the same position divides the pair's lcm and neither ``(i, k)`` nor
``(j, k)`` is still on the heap.  The ideal layer also keeps the product
criterion (coprime leads), which does not hold for vectors of a free module.
The module layer prunes only when no syzygies are requested: a Schreyer
resolution needs the syzygy of every S-pair, both for the Groebner property
under the Schreyer order and for its length bound.
``syzygies_of_columns`` computes relations among arbitrary generators by the
graph (elimination block) method, which also yields division coefficients
for exact solving via ``GraphBasis``.

Everything is deterministic: bases are kept sorted, pair selection follows
the normal strategy with a fixed tie-break, and reduced bases are unique.
"""

from __future__ import annotations

import heapq

from .poly import (Poly, PolyRing, mono_deg, mono_div, mono_divides, mono_lcm,
                   mono_mul)

# ---------------------------------------------------------------------------
# ideal layer


class GroebnerBasis:
    """Reduced Groebner basis: monic generators, fully inter-reduced."""

    __slots__ = ("ring", "polys")

    def __init__(self, ring: PolyRing, polys):
        self.ring = ring
        self.polys = tuple(polys)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return "{" + ", ".join(self.ring.to_str(p) for p in self.polys) + "}"


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


def _interreduce(ring: PolyRing, basis):
    field = ring.field
    basis = sorted((p for p in basis if not p.is_zero()),
                   key=lambda p: ring.order.key(p.lead_exp()))
    kept = []
    for p in basis:
        if not any(mono_divides(q.lead_exp(), p.lead_exp()) for q in kept):
            kept.append(p)
    for idx in range(len(kept)):
        others = kept[:idx] + kept[idx + 1:]
        r = _reduce_poly(ring, kept[idx], others)
        kept[idx] = ring.scale(r, field.inv(r.lead_coeff()))
    kept.sort(key=lambda p: ring.order.key(p.lead_exp()), reverse=True)
    return kept


def _chain_criterion(i: int, j: int, l: tuple, candidates, pending) -> bool:
    """Buchberger's chain criterion for the pair ``(i, j)``, ``i < j``, whose
    leads have lcm ``l``: the pair is redundant when some other ``k`` among
    ``candidates`` (``(index, lead exponent)`` with the same lead position)
    has a lead dividing ``l`` and neither ``(i, k)`` nor ``(j, k)`` is still
    ``pending``."""
    for k, lexp in candidates:
        if k != i and k != j and mono_divides(lexp, l) \
                and (min(i, k), max(i, k)) not in pending \
                and (min(j, k), max(j, k)) not in pending:
            return True
    return False


def groebner_basis(gens, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    ``order`` may override the ring's order (the basis lives in a ring view
    carrying that order).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("mixed rings in groebner_basis")
    if order is not None and order != ring.order:
        ring = PolyRing(ring.field, ring.variables, order)
        gens = [ring.from_terms(g.terms) for g in gens]

    basis = []
    for g in sorted(gens, key=lambda p: ring.order.key(p.lead_exp()) if not p.is_zero() else ()):
        r = _reduce_poly(ring, g, basis)
        if not r.is_zero():
            basis.append(r)

    lead_exps = [(k, g.lead_exp()) for k, g in enumerate(basis)]

    def pair_entry(i, j):
        l = mono_lcm(lead_exps[i][1], lead_exps[j][1])
        return (mono_deg(l), l, i, j)

    heap = [pair_entry(i, j)
            for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapq.heapify(heap)
    pending = {(i, j) for _, _, i, j in heap}
    while heap:
        _, l, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        if l == mono_mul(lead_exps[i][1], lead_exps[j][1]):
            continue  # coprime leading terms: S-poly reduces to zero
        if _chain_criterion(i, j, l, lead_exps, pending):
            continue
        r = _reduce_poly(ring, _spoly(ring, basis[i], basis[j]), basis)
        if not r.is_zero():
            k = len(basis)
            basis.append(r)
            lead_exps.append((k, r.lead_exp()))
            for t in range(k):
                heapq.heappush(heap, pair_entry(t, k))
                pending.add((t, k))
    return GroebnerBasis(ring, _interreduce(ring, basis))


def normal_form(f: Poly, gb: GroebnerBasis) -> Poly:
    if f.ring.field != gb.ring.field or f.ring.variables != gb.ring.variables:
        raise ValueError("polynomial/basis ring mismatch")
    f2 = gb.ring.from_terms(f.terms)
    return _reduce_poly(gb.ring, f2, list(gb.polys))


def ideal_member(f: Poly, gb: GroebnerBasis) -> bool:
    return normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# module layer


class ModuleOrder:
    """Order on module monomials ``(position, exponent)``."""

    def key(self, m):  # pragma: no cover - interface
        raise NotImplementedError


class TopOrder(ModuleOrder):
    """Term over position: ring order first, lower position wins ties."""

    def __init__(self, ring_order):
        self.ring_order = ring_order

    def key(self, m):
        pos, exp = m
        return (self.ring_order.key(exp), -pos)


class ElimOrder(ModuleOrder):
    """Positions below ``cut`` dominate all others (elimination block)."""

    def __init__(self, ring_order, cut: int):
        self.ring_order = ring_order
        self.cut = cut

    def key(self, m):
        pos, exp = m
        return (1 if pos < self.cut else 0, self.ring_order.key(exp), -pos)


class SchreyerOrder(ModuleOrder):
    """Order induced by anchors: compare anchor-multiplied monomials.

    ``anchors[pos]`` is the module monomial (in the parent module) attached
    to basis vector ``pos``; ties break toward the lower position.
    """

    def __init__(self, parent: ModuleOrder, anchors):
        self.parent = parent
        self.anchors = tuple(anchors)

    def key(self, m):
        pos, exp = m
        apos, aexp = self.anchors[pos]
        return (self.parent.key((apos, mono_mul(exp, aexp))), -pos)


def vec_is_zero(v: dict) -> bool:
    return not v


def vec_add(field, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        c1 = field.add(out.get(k, field.zero()), c)
        if field.is_zero(c1):
            out.pop(k, None)
        else:
            out[k] = c1
    return out


def vec_scale_term(field, v: dict, exp: tuple, coeff) -> dict:
    if field.is_zero(coeff):
        return {}
    return {(pos, mono_mul(e, exp)): field.mul(c, coeff) for (pos, e), c in v.items()}


def vec_neg(field, v: dict) -> dict:
    return {k: field.neg(c) for k, c in v.items()}


def vec_lead(order: ModuleOrder, v: dict):
    return max(v, key=order.key)


def columns_to_vectors(ring: PolyRing, cols) -> list:
    """Convert matrix columns (lists of Poly) to sparse module vectors."""
    vecs = []
    for col in cols:
        v = {}
        for pos, p in enumerate(col):
            for e, c in p.terms:
                v[(pos, e)] = c
        vecs.append(v)
    return vecs


def vectors_to_columns(ring: PolyRing, vecs, nrows: int) -> list:
    """Convert sparse module vectors to matrix columns (lists of Poly).

    A vector's keys are distinct and its coefficients nonzero, so each
    entry's terms are sorted once, with no accumulation."""
    key = ring.order.key
    cols = []
    for v in vecs:
        col = [[] for _ in range(nrows)]
        for (pos, e), c in v.items():
            col[pos].append((e, c))
        cols.append([Poly(ring, sorted(terms, key=lambda t: key(t[0]), reverse=True))
                     for terms in col])
    return cols


class _Reducer:
    """Shared full-reduction loop; optionally records division terms."""

    def __init__(self, ring: PolyRing, order: ModuleOrder, basis, leads):
        self.ring = ring
        self.order = order
        self.basis = basis
        self.leads = leads

    def reduce(self, v: dict, record: dict | None = None) -> dict:
        field = self.ring.field
        work = dict(v)
        out = {}
        while work:
            m = vec_lead(self.order, work)
            coeff = work.pop(m)
            pos, exp = m
            red = None
            for t, (lpos, lexp) in enumerate(self.leads):
                if lpos == pos and mono_divides(lexp, exp):
                    red = t
                    break
            if red is None:
                out[m] = coeff
                continue
            g = self.basis[red]
            q = mono_div(exp, self.leads[red][1])
            factor = field.mul(coeff, field.inv(g[self.leads[red]]))
            sub = vec_scale_term(field, g, q, factor)
            sub.pop(m, None)
            work = vec_add(field, work, vec_neg(field, sub))
            if record is not None:
                key = (red, q)
                record[key] = field.add(record.get(key, field.zero()), factor)
        return out


def module_groebner(ring: PolyRing, vectors, order: ModuleOrder,
                    want_syzygies: bool = False,
                    preserve_order: bool = False):
    """Groebner basis of the submodule generated by ``vectors``.

    Returns ``(basis, syzygies)``.  When requested, ``syzygies`` generate the
    syzygy module of the *returned* basis (positions ``0..len(basis)-1``) and
    form a Groebner basis for the Schreyer order induced by its leads.  With
    ``preserve_order`` the input arrangement is kept (syzygy positions then
    refer to the input indices verbatim).
    """
    field = ring.field
    basis = [dict(v) for v in vectors if not vec_is_zero(v)]
    if not preserve_order:
        basis.sort(key=lambda v: order.key(vec_lead(order, v)))
    leads = [vec_lead(order, v) for v in basis]
    reducer = _Reducer(ring, order, basis, leads)
    syzygies = []
    by_position = {}  # lead position -> [(index, lead exponent)]
    for k, (pos, exp) in enumerate(leads):
        by_position.setdefault(pos, []).append((k, exp))

    def pair_entry(i, j):
        l = mono_lcm(leads[i][1], leads[j][1])
        return (mono_deg(l), l, i, j)

    heap = [pair_entry(i, j)
            for i in range(len(basis)) for j in range(i + 1, len(basis))
            if leads[i][0] == leads[j][0]]
    heapq.heapify(heap)
    pending = {(i, j) for _, _, i, j in heap}
    while heap:
        _, l, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        if not want_syzygies and _chain_criterion(i, j, l, by_position[li[0]],
                                                  pending):
            continue
        mi, mj = mono_div(l, li[1]), mono_div(l, lj[1])
        ci = field.inv(basis[i][li])
        cj = field.inv(basis[j][lj])
        a = vec_scale_term(field, basis[i], mi, ci)
        b = vec_scale_term(field, basis[j], mj, cj)
        s = vec_add(field, a, vec_neg(field, b))
        record = {}
        residue = reducer.reduce(s, record)
        if residue:
            k = len(basis)
            pos, exp = lead = vec_lead(order, residue)
            basis.append(residue)
            leads.append(lead)
            same = by_position.setdefault(pos, [])
            for t, _ in same:
                heapq.heappush(heap, pair_entry(t, k))
                pending.add((t, k))
            same.append((k, exp))
        elif want_syzygies:
            syz = {(i, mi): ci}
            syz = vec_add(field, syz, {(j, mj): field.neg(cj)})
            for (t, q), c in record.items():
                syz = vec_add(field, syz, {(t, q): field.neg(c)})
            if not vec_is_zero(syz):
                syzygies.append(syz)
    return basis, syzygies


def minimal_module_basis(order: ModuleOrder, vectors):
    """Drop every vector whose lead is divisible by another's lead in the
    same position; of equal leads the first is kept.

    A Groebner basis stays a Groebner basis of the same submodule.  Returns
    ``(kept, leads)`` in ascending lead order.
    """
    keyed = sorted(((vec_lead(order, v), v) for v in vectors),
                   key=lambda mv: order.key(mv[0]))
    kept = []
    leads = []
    for m, v in keyed:
        if not any(lt[0] == m[0] and mono_divides(lt[1], m[1]) for lt in leads):
            kept.append(v)
            leads.append(m)
    return kept, leads


def reduced_module_groebner(ring: PolyRing, vectors, order: ModuleOrder):
    """Unique fully reduced, monic module Groebner basis (sorted desc)."""
    basis, _ = module_groebner(ring, vectors, order)
    field = ring.field
    kept, kept_leads = minimal_module_basis(order, basis)
    for idx in range(len(kept)):
        others = kept[:idx] + kept[idx + 1:]
        oleads = kept_leads[:idx] + kept_leads[idx + 1:]
        r = _Reducer(ring, order, others, oleads).reduce(kept[idx])
        lead = vec_lead(order, r)
        inv = field.inv(r[lead])
        kept[idx] = {k: field.mul(c, inv) for k, c in r.items()}
    kept.sort(key=lambda v: order.key(vec_lead(order, v)), reverse=True)
    return kept


# ---------------------------------------------------------------------------
# syzygies and solving by the graph method


class GraphBasis:
    """Groebner data for the graph ``{col_j (+) e_j}`` of a column list.

    Supports membership in the column span, exact solving ``A x = b`` with
    polynomial coefficients, and extraction of the syzygy module (elements
    of the basis whose first block vanishes).
    """

    def __init__(self, ring: PolyRing, cols, nrows: int):
        self.ring = ring
        self.nrows = nrows
        self.ncols = len(cols)
        vecs = columns_to_vectors(ring, cols)
        nil = (0,) * ring.nvars
        graph = []
        for j, v in enumerate(vecs):
            g = dict(v)
            g[(nrows + j, nil)] = ring.field.one()
            graph.append(g)
        self.order = ElimOrder(ring.order, nrows)
        self.basis, _ = module_groebner(ring, graph, self.order)
        self.leads = [vec_lead(self.order, b) for b in self.basis]

    def _reduce_tracking(self, target_col):
        """Reduce ``target (+) 0``; returns ``(first_block_residue, cofactor)``."""
        ring, field = self.ring, self.ring.field
        v = columns_to_vectors(ring, [list(target_col)])[0]
        work = dict(v)
        first = {}
        cof = {}
        while work:
            m = vec_lead(self.order, work)
            coeff = work.pop(m)
            pos, exp = m
            if pos >= self.nrows:
                key = (pos - self.nrows, exp)
                c1 = field.add(cof.get(key, field.zero()), field.neg(coeff))
                if field.is_zero(c1):
                    cof.pop(key, None)
                else:
                    cof[key] = c1
                continue
            red = None
            for t, (lpos, lexp) in enumerate(self.leads):
                if lpos == pos and mono_divides(lexp, exp):
                    red = t
                    break
            if red is None:
                first[m] = coeff
                continue
            g = self.basis[red]
            q = mono_div(exp, self.leads[red][1])
            factor = field.mul(coeff, field.inv(g[self.leads[red]]))
            sub = vec_scale_term(field, g, q, factor)
            sub.pop(m, None)
            work = vec_add(field, work, vec_neg(field, sub))
        return first, cof

    def member(self, target_col) -> bool:
        first, _ = self._reduce_tracking(target_col)
        return not first

    def solve(self, target_col):
        """Coefficients ``x`` with ``sum x_j col_j = target``, or ``None``."""
        first, cof = self._reduce_tracking(target_col)
        if first:
            return None
        out = [dict() for _ in range(self.ncols)]
        for (j, e), c in cof.items():
            out[j][e] = c
        return [self.ring.from_terms(d.items()) for d in out]

    def syzygy_columns(self):
        """Generators of the syzygy module of the original columns."""
        syz = []
        for b in self.basis:
            if all(pos >= self.nrows for (pos, _) in b):
                syz.append({(pos - self.nrows, e): c for (pos, e), c in b.items()})
        sub_order = TopOrder(self.ring.order)
        syz.sort(key=lambda v: sub_order.key(vec_lead(sub_order, v)))
        return vectors_to_columns(self.ring, syz, self.ncols)


def syzygies_of_columns(ring: PolyRing, cols, nrows: int):
    """Relations among the given columns: each output ``u`` has
    ``sum_j u[j] * cols[j] = 0``."""
    return GraphBasis(ring, cols, nrows).syzygy_columns()
