"""Koszul power towers and the weak proregularity machinery.

The Koszul complex of a sequence is built as the iterated tensor product of
the two-term complexes ``[A -> A]``, so all signs come from one convention;
transition maps between power stages are tensor products of the one-element
transitions (identity in degree 0, multiplication by the power gap in
degree -1), never ad hoc formulas.  Dual complexes are ``Hom(-, A)`` and
inherit their ind transitions contravariantly.

Weak proregularity of a sequence is the pro-zero property of every
negative-degree cohomology tower of the Koszul stages; at finite depth the
verdict is ``pass`` / ``undetermined`` as in ``towers``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (BoundedComplex, ComplexMorphism, block_identity_map,
                        cohomology, hom_complex, hom_of_source_map,
                        identity_complex_morphism, induced_cohomology_map,
                        ring_complex, tensor_complexes, tensor_complex_morphisms)
from .fpmod import (IdealSpec, free_module, identity_morphism,
                    multiplication_morphism, power_sequence)
from .towers import (IndSystem, ProSystem, SystemMap, is_pro_zero,
                     tower_equivalence)


def _two_term(ring, elt) -> BoundedComplex:
    f = free_module(ring, 1)
    return BoundedComplex(ring, -1, [f, f], [multiplication_morphism(f, elt)],
                          check=False)


def koszul_complex(a: IdealSpec, power: int = 1) -> BoundedComplex:
    """``K(A; a^power)`` with elementwise powers, in degrees ``[-n, 0]``."""
    ring = a.ring
    seq = power_sequence(a, power).generators if power != 1 else a.generators
    out = ring_complex(ring)
    for g in seq:
        out = tensor_complexes(out, _two_term(ring, g))
    return out


def koszul_transition(a: IdealSpec, j: int, i: int,
                      source: BoundedComplex | None = None,
                      target: BoundedComplex | None = None) -> ComplexMorphism:
    """The stage map ``K(A; a^j) -> K(A; a^i)`` for ``j >= i >= 1``.

    Identity in degree 0; multiplication by ``a_k^{j-i}`` in degree -1;
    everything below by tensor functoriality.
    """
    if j < i or i < 1:
        raise ValueError("transition requires j >= i >= 1")
    ring = a.ring
    src = source if source is not None else koszul_complex(a, j)
    tgt = target if target is not None else koszul_complex(a, i)
    out = identity_complex_morphism(ring_complex(ring))
    cur_src = out.source
    cur_tgt = out.target
    f = free_module(ring, 1)
    for g in a.generators:
        gj = ring.pow(g, j)
        gi = ring.pow(g, i)
        gap = ring.pow(g, j - i)
        single = ComplexMorphism(_two_term(ring, gj), _two_term(ring, gi),
                                 {-1: multiplication_morphism(f, gap),
                                  0: identity_morphism(f)}, check=False)
        nxt_src = tensor_complexes(cur_src, single.source)
        nxt_tgt = tensor_complexes(cur_tgt, single.target)
        out = tensor_complex_morphisms(out, single, nxt_src, nxt_tgt)
        cur_src, cur_tgt = nxt_src, nxt_tgt
    return ComplexMorphism(src, tgt, out.maps, check=False)


def dual_koszul(a: IdealSpec, power: int = 1) -> BoundedComplex:
    """``Hom(K(A; a^power), A)``, a free complex in degrees ``[0, n]``."""
    return hom_complex(koszul_complex(a, power), ring_complex(a.ring))


def dual_koszul_transition(a: IdealSpec, i: int, j: int,
                           source: BoundedComplex | None = None,
                           target: BoundedComplex | None = None) -> ComplexMorphism:
    """Ind transition ``K_dual(A; a^i) -> K_dual(A; a^j)`` for ``i <= j``
    (the Hom-dual of the Koszul stage map)."""
    if i > j:
        raise ValueError("dual transition requires i <= j")
    down = koszul_transition(a, j, i)
    src = source if source is not None else dual_koszul(a, i)
    tgt = target if target is not None else dual_koszul(a, j)
    return hom_of_source_map(down, ring_complex(a.ring), src, tgt)


def koszul_cohomology_prosystem(a: IdealSpec, p: int, depth: int) -> ProSystem:
    """The inverse system ``{H^p(K(A; a^i))}_{i <= depth}``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = len(a.generators)
    if not (-n <= p <= 0):
        raise ValueError(f"degree {p} outside [-n, 0]")
    stages = [koszul_complex(a, i) for i in range(1, depth + 1)]
    objects = [cohomology(c, p) for c in stages]
    transitions = []
    for i in range(1, depth):
        tr = koszul_transition(a, i + 1, i, source=stages[i], target=stages[i - 1])
        transitions.append(induced_cohomology_map(tr, p, check=False))
    return ProSystem(objects, transitions, check=False)


@dataclass
class WprVerdict:
    """Per-degree pro-zero verdicts for one sequence."""

    ideal: IdealSpec
    depth: int
    window: int
    per_degree: dict  # p -> VanishingVerdict
    status: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def witness(self):
        for p in sorted(self.per_degree):
            v = self.per_degree[p]
            if not v.passed:
                return p, v
        return None


def weak_proregularity_check(a: IdealSpec, depth: int = 4,
                             window: int = 1) -> WprVerdict:
    """Pro-zero check of every negative Koszul cohomology tower."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    n = len(a.generators)
    per = {}
    ok = True
    for p in range(-n, 0):
        system = koszul_cohomology_prosystem(a, p, depth)
        verdict = is_pro_zero(system, window)
        per[p] = verdict
        ok = ok and verdict.passed
    return WprVerdict(ideal=a, depth=depth, window=window, per_degree=per,
                      status="pass" if ok else "undetermined")


# ---------------------------------------------------------------------------
# radical invariance


@dataclass
class RadicalInvarianceReport:
    radical_equal: bool
    exponent_bound: int
    first: WprVerdict
    second: WprVerdict

    @property
    def both_pass(self):
        return self.first.passed and self.second.passed


def _radical_contains(a: IdealSpec, b: IdealSpec, bound: int) -> bool:
    """Does every generator of ``b`` have a power inside ``(a)``?"""
    ring = a.ring
    cols = [[g] for g in a.generators]
    oracle = ring.span_oracle(cols, 1)
    for g in b.generators:
        ok = False
        p = ring.one()
        for _ in range(bound):
            p = ring.mul(p, g)
            if oracle.member([p]):
                ok = True
                break
        if not ok:
            return False
    return True


def radical_invariance_suite(a: IdealSpec, b: IdealSpec, depth: int = 4,
                             window: int = 1,
                             exponent_bound: int = 8) -> RadicalInvarianceReport:
    """Check ``sqrt(a) = sqrt(b)`` up to the exponent bound, then run the
    weak proregularity check on both sequences."""
    if a.ring != b.ring:
        raise ValueError("sequences over different rings")
    eq = _radical_contains(a, b, exponent_bound) and _radical_contains(b, a, exponent_bound)
    if not eq:
        raise ValueError("radical comparability not established within bound")
    return RadicalInvarianceReport(
        radical_equal=True, exponent_bound=exponent_bound,
        first=weak_proregularity_check(a, depth, window),
        second=weak_proregularity_check(b, depth, window))


# ---------------------------------------------------------------------------
# copointed idempotence


def _counit_map(dual: BoundedComplex, square: BoundedComplex, ring,
                side: str) -> ComplexMorphism:
    """``rho (x) id`` (side="left") or ``id (x) rho`` (side="right") from
    ``dual (x) dual`` onto ``dual``, where ``rho`` is the degree-0 projection
    onto the ring."""
    return block_identity_map(dual, square, 1 if side == "left" else 0, onto=False)


@dataclass
class CopointedIdempotenceReport:
    ideal: IdealSpec
    depth: int
    window: int
    per_side: dict  # "left"/"right" -> {degree p -> TowerEquivalenceVerdict}
    status: str

    @property
    def passed(self):
        return self.status == "pass"


def copointed_idempotence_check(a: IdealSpec, depth: int = 4, window: int = 1,
                                require_wpr: bool = True) -> CopointedIdempotenceReport:
    """Both counit contractions of the dual Koszul ind-system are tower
    equivalences on every cohomology degree."""
    ring = a.ring
    n = len(a.generators)
    if require_wpr and n > 0:
        wpr = weak_proregularity_check(a, depth, window)
        if not wpr.passed:
            raise ValueError("sequence did not pass the weak proregularity check")
    duals = [dual_koszul(a, i) for i in range(1, depth + 1)]
    squares = [tensor_complexes(d, d) for d in duals]
    dual_trs = []
    square_trs = []
    for i in range(1, depth):
        tr = dual_koszul_transition(a, i, i + 1, source=duals[i - 1], target=duals[i])
        dual_trs.append(tr)
        square_trs.append(tensor_complex_morphisms(tr, tr, squares[i - 1], squares[i]))
    counits = {side: [_counit_map(duals[i], squares[i], ring, side)
                      for i in range(depth)]
               for side in ("left", "right")}
    per_side = {"left": {}, "right": {}}
    ok = True
    for p in range(0, 2 * n + 1):
        src_sys = IndSystem(
            [cohomology(squares[i], p) for i in range(depth)],
            [induced_cohomology_map(square_trs[i], p, check=False)
             for i in range(depth - 1)], check=False)
        tgt_sys = IndSystem(
            [cohomology(duals[i], p) for i in range(depth)],
            [induced_cohomology_map(dual_trs[i], p, check=False)
             for i in range(depth - 1)], check=False)
        for side in ("left", "right"):
            level_maps = [induced_cohomology_map(counits[side][i], p, check=False)
                          for i in range(depth)]
            fmap = SystemMap(src_sys, tgt_sys, level_maps, check=True)
            verdict = tower_equivalence(fmap, window)
            per_side[side][p] = verdict
            ok = ok and verdict.passed
    return CopointedIdempotenceReport(ideal=a, depth=depth, window=window,
                                      per_side=per_side,
                                      status="pass" if ok else "undetermined")
