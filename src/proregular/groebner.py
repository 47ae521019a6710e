"""Buchberger's algorithm for submodules of free modules, ideals included.

Elements of a free module ``A^r`` are sparse dicts
``{(position, exponent): coeff}``.  There is one engine: ``module_groebner``
is the only Buchberger loop, ``_Reducer.reduce`` the only reduction loop and
``interreduce`` the only inter-reduction (a Groebner basis to the reduced
one, with no S-pair).  S-pairs are restricted
to equal leading positions; the loop optionally records, for every S-pair
reduction to zero, the corresponding syzygy -- that set of syzygies is a
Groebner basis of the syzygy module with respect to the Schreyer order
induced by the input (the fact powering free resolutions).

An ideal of a ``PolyRing`` is a submodule of ``A^1`` (Eisenbud, *Commutative
Algebra*, Sec. 15.4): ``groebner_basis`` is its reduced rank-1 basis under
``TopOrder``, and ``normal_form`` is the confluent remainder by a rank-1
``_Reducer``, so membership is ``normal_form(f, G).is_zero()``.

The loop skips S-pairs by the chain criterion (Buchberger 1979;
Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 2 Sec. 10): a
popped pair ``(i, j)`` is redundant when another element ``k`` with a lead
in the same position divides the pair's lcm and neither ``(i, k)`` nor
``(j, k)`` is still on the heap.  There is no product criterion (coprime
leads): it does not hold for vectors of a free module.  Pruning is off when
syzygies are requested: a Schreyer resolution needs the syzygy of every
S-pair, both for the Groebner property under the Schreyer order and for its
length bound.

Vectors passed as ``known`` already form a Groebner basis, for instance the
block ``{g * e_k}`` of a Groebner basis ``g`` of an ideal ``I``, which spans
``I * A^r`` over a quotient ring ``A/I`` (Greuel-Pfister, *A Singular
Introduction to Commutative Algebra*, on modules over quotient rings).  They
join the basis and are sorted with the rest, but no S-pair between two of
them is ever formed, and the chain criterion counts those pairs as treated:
each has a standard representation within the block.  ``known`` is refused
together with ``want_syzygies``, since a Schreyer step needs the syzygy of
every pair, those inside the block included.

``GraphBasis`` is a Groebner basis of the graph ``{col_j (+) e_j}`` of a
column list under an elimination order (the graph method): its reducer
solves ``A x = b`` exactly, and its elements with a zero first block
generate the syzygies of the columns.  ``ElimOrder`` puts every first-block
monomial above every tail monomial and agrees with ``TopOrder`` on the tail,
so by the elimination property (Eisenbud, *Commutative Algebra*, Sec. 15.10)
those elements are a ``TopOrder`` Groebner basis of the syzygy module (modulo
``known``): its reduced basis needs only ``interreduce``.

Every order carries ``keys``, a ``KeyMemo`` of its sort keys, so a monomial's
key is computed once per order object, however many leads and sorts look at
it; the memo dies with its order.  ``_Reducer`` indexes its leads by
position, so a reduction step scans only the leads in the position of the
term it reduces.

Everything is deterministic: bases are kept sorted, pair selection follows
the normal strategy with a fixed tie-break, and reduced bases are unique.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from .poly import (KeyMemo, Poly, PolyRing, mono_deg, mono_div, mono_divides,
                   mono_lcm, mono_mul)

# ---------------------------------------------------------------------------
# module layer


class ModuleOrder:
    """Order on module monomials ``(position, exponent)``: ``keys[m]`` is the
    sort key of ``m``, computed once per order object from the memo of the
    ring order (or of the parent order) below it."""

    keys: KeyMemo


class TopOrder(ModuleOrder):
    """Term over position: ring order first, lower position wins ties."""

    def __init__(self, ring_order):
        ring_keys = ring_order.keys
        self.keys = KeyMemo(lambda m: (ring_keys[m[1]], -m[0]))


class ElimOrder(ModuleOrder):
    """Positions below ``cut`` dominate all others (elimination block)."""

    def __init__(self, ring_order, cut: int):
        ring_keys = ring_order.keys
        self.keys = KeyMemo(lambda m: (1 if m[0] < cut else 0, ring_keys[m[1]], -m[0]))


class SchreyerOrder(ModuleOrder):
    """Order induced by anchors: compare anchor-multiplied monomials.

    ``anchors[pos]`` is the module monomial (in the parent module) attached
    to basis vector ``pos``; ties break toward the lower position.
    """

    def __init__(self, parent: ModuleOrder, anchors):
        anchors = tuple(anchors)
        parent_keys = parent.keys

        def key(m):
            pos, exp = m
            apos, aexp = anchors[pos]
            return (parent_keys[(apos, mono_mul(exp, aexp))], -pos)
        self.keys = KeyMemo(key)


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
    return max(v, key=order.keys.__getitem__)


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
    keys = ring.order.keys
    cols = []
    for v in vecs:
        col = [[] for _ in range(nrows)]
        for (pos, e), c in v.items():
            col[pos].append((e, c))
        cols.append([Poly(ring, sorted(terms, key=lambda t: keys[t[0]], reverse=True))
                     for terms in col])
    return cols


class _Reducer:
    """The full-reduction loop; optionally records division terms.

    ``by_position`` indexes the leads: a lead position maps to its
    ``(index, lead exponent)`` pairs in ascending index.  A step scans only
    the leads in its term's position and takes the first that divides, the
    same reducer that a scan over all leads would find."""

    def __init__(self, ring: PolyRing, order: ModuleOrder, basis, leads):
        self.ring = ring
        self.order = order
        self.basis = basis
        self.by_position = {}
        for t, (pos, exp) in enumerate(leads):
            self.by_position.setdefault(pos, []).append((t, exp))

    def reduce(self, v: dict, record: dict | None = None) -> dict:
        """Remainder of ``v``, with its terms in descending order; each step
        subtracts the scaled reducer from the work dict in place."""
        field = self.ring.field
        zero = field.zero()
        order_key = self.order.keys.__getitem__
        by_position = self.by_position
        work = dict(v)
        out = {}
        while work:
            m = max(work, key=order_key)
            coeff = work.pop(m)
            pos, exp = m
            for red, lexp in by_position.get(pos, ()):
                if mono_divides(lexp, exp):
                    break
            else:
                out[m] = coeff
                continue
            g = self.basis[red]
            q = mono_div(exp, lexp)
            factor = field.mul(coeff, field.inv(g[(pos, lexp)]))
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
                key = (red, q)
                record[key] = field.add(record.get(key, zero), factor)
        return out


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


def module_groebner(ring: PolyRing, vectors, order: ModuleOrder,
                    want_syzygies: bool = False,
                    preserve_order: bool = False, known=()):
    """Groebner basis of the submodule generated by ``vectors`` and ``known``.

    Returns ``(basis, syzygies)``.  When requested, ``syzygies`` generate the
    syzygy module of the *returned* basis (positions ``0..len(basis)-1``) and
    form a Groebner basis for the Schreyer order induced by its leads.  With
    ``preserve_order`` the input arrangement is kept (syzygy positions then
    refer to the input indices verbatim).  ``known`` vectors must already
    form a Groebner basis; no S-pair between two of them is formed.
    """
    if known and want_syzygies:
        raise ValueError("known basis vectors leave out S-pairs whose "
                         "syzygies a Schreyer step needs")
    field = ring.field
    tagged = [(dict(v), False) for v in vectors if not vec_is_zero(v)]
    tagged += [(dict(v), True) for v in known if not vec_is_zero(v)]
    if not preserve_order:
        tagged.sort(key=lambda vk: order.keys[vec_lead(order, vk[0])])
    basis = [v for v, _ in tagged]
    is_known = [k for _, k in tagged]
    leads = [vec_lead(order, v) for v in basis]
    reducer = _Reducer(ring, order, basis, leads)
    by_position = reducer.by_position
    syzygies = []

    def pair_entry(i, j):
        l = mono_lcm(leads[i][1], leads[j][1])
        return (mono_deg(l), l, i, j)

    heap = [pair_entry(i, j)
            for i in range(len(basis)) for j in range(i + 1, len(basis))
            if leads[i][0] == leads[j][0] and not (is_known[i] and is_known[j])]
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
                   key=lambda mv: order.keys[mv[0]])
    kept = []
    leads = []
    for m, v in keyed:
        if not any(lt[0] == m[0] and mono_divides(lt[1], m[1]) for lt in leads):
            kept.append(v)
            leads.append(m)
    return kept, leads


def interreduce(ring: PolyRing, basis, order: ModuleOrder):
    """The unique reduced, monic basis (sorted desc) of the submodule that
    the Groebner basis ``basis`` generates."""
    field = ring.field
    kept, kept_leads = minimal_module_basis(order, basis)
    for idx in range(len(kept)):
        others = kept[:idx] + kept[idx + 1:]
        oleads = kept_leads[:idx] + kept_leads[idx + 1:]
        r = _Reducer(ring, order, others, oleads).reduce(kept[idx])
        lead = vec_lead(order, r)
        inv = field.inv(r[lead])
        kept[idx] = {k: field.mul(c, inv) for k, c in r.items()}
    kept.sort(key=lambda v: order.keys[vec_lead(order, v)], reverse=True)
    return kept


def reduced_module_groebner(ring: PolyRing, vectors, order: ModuleOrder,
                            known=()):
    """Unique fully reduced, monic module Groebner basis (sorted desc) of
    the submodule generated by ``vectors`` and the Groebner basis ``known``."""
    return interreduce(ring, module_groebner(ring, vectors, order, known=known)[0], order)


# ---------------------------------------------------------------------------
# ideals: the rank-1 case


class GroebnerBasis:
    """Reduced Groebner basis of an ideal: monic generators, fully
    inter-reduced, sorted by descending lead."""

    __slots__ = ("ring", "polys", "_reducer")

    def __init__(self, ring: PolyRing, polys):
        self.ring = ring
        self.polys = tuple(polys)
        vecs = columns_to_vectors(ring, [[p] for p in self.polys])
        self._reducer = _Reducer(ring, TopOrder(ring.order), vecs,
                                 [(0, p.lead_exp()) for p in self.polys])

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return "{" + ", ".join(self.ring.to_str(p) for p in self.polys) + "}"


def groebner_basis(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("mixed rings in groebner_basis")
    vecs = reduced_module_groebner(ring, columns_to_vectors(ring, [[g] for g in gens]),
                                   TopOrder(ring.order))
    return GroebnerBasis(ring, [col[0] for col in vectors_to_columns(ring, vecs, 1)])


def normal_form(f: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of ``f`` by ``gb``; the reducer emits terms in descending
    order, so they form the ``Poly`` as they are."""
    if f.ring != gb.ring:
        raise ValueError("polynomial/basis ring mismatch")
    out = gb._reducer.reduce({(0, e): c for e, c in f.terms})
    return Poly(gb.ring, [(e, c) for (_, e), c in out.items()])


# ---------------------------------------------------------------------------
# syzygies and solving by the graph method


class GraphBasis:
    """Groebner data for the graph ``{col_j (+) e_j}`` of a column list.

    Supports exact solving ``A x = b`` with polynomial coefficients and
    extraction of the syzygy module (elements of the basis whose first block
    vanishes); both need the ``e_j`` tails, so membership alone is better
    asked of a reduced basis of the span, as a zero remainder.  ``known`` is
    a Groebner basis of first-block vectors that joins the span with no
    ``e_j`` tail: solving and syzygies are then modulo its span, and report
    only the columns.
    """

    def __init__(self, ring: PolyRing, cols, nrows: int, known=()):
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
        self.basis, _ = module_groebner(ring, graph, self.order, known=known)

    @cached_property
    def _reducer(self):
        """The basis elements with a lead in the first block, as a reducer;
        only ``solve`` reads it, so it is built on the first ``solve``."""
        leads = [vec_lead(self.order, b) for b in self.basis]
        first = [t for t, (pos, _) in enumerate(leads) if pos < self.nrows]
        return _Reducer(self.ring, self.order, [self.basis[t] for t in first],
                        [leads[t] for t in first])

    def solve(self, target_col):
        """Coefficients ``x`` with ``sum x_j col_j = target``, or ``None``.

        ``target (+) 0`` is reduced.  Under the elimination order a lead in
        the second block has no first block left to reduce, so the remainder
        is a first-block residue, which must vanish, and the negated
        cofactor."""
        field = self.ring.field
        v = columns_to_vectors(self.ring, [list(target_col)])[0]
        out = [dict() for _ in range(self.ncols)]
        for (pos, exp), c in self._reducer.reduce(v).items():
            if pos < self.nrows:
                return None
            out[pos - self.nrows][exp] = field.neg(c)
        return [self.ring.from_terms(d.items()) for d in out]

    def _tail(self):
        """The basis elements with no first block, on the column positions."""
        n = self.nrows
        return [{(pos - n, e): c for (pos, e), c in b.items()}
                for b in self.basis if all(pos >= n for pos, _ in b)]

    def syzygy_columns(self):
        """Generators of the syzygy module of the original columns."""
        syz = self._tail()
        sub_order = TopOrder(self.ring.order)
        syz.sort(key=lambda v: sub_order.keys[vec_lead(sub_order, v)])
        return vectors_to_columns(self.ring, syz, self.ncols)

    def canonical_syzygies(self):
        """The syzygy module's reduced ``TopOrder`` basis, as columns."""
        order = TopOrder(self.ring.order)
        return vectors_to_columns(self.ring, interreduce(self.ring, self._tail(), order),
                                  self.ncols)

