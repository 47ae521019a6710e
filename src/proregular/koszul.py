"""Koszul power towers and the weak proregularity machinery.

The Koszul complex of a sequence is built as the iterated tensor product of
the two-term complexes ``[A -> A]``, so all signs come from one convention;
transition maps between power stages are tensor products of the one-element
transitions (identity in degree 0, multiplication by the power gap in
degree -1), never ad hoc formulas.  Dual complexes are ``Hom(-, A)`` and
inherit their ind transitions contravariantly.

``KoszulTower`` holds the stages, their transitions, the duals and the dual
transitions of one sequence up to a depth.  A command builds one tower and
passes it to each check it runs, so every stage and transition is built
once per command, and each dual is ``Hom`` of that same stage.

Weak proregularity of a sequence is the pro-zero property of every
negative-degree cohomology tower of the Koszul stages; at finite depth the
verdict is ``pass`` / ``undetermined`` as in ``towers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def koszul_transition(a: IdealSpec, j: int, i: int, source: BoundedComplex,
                      target: BoundedComplex) -> ComplexMorphism:
    """The stage map ``K(A; a^j) -> K(A; a^i)`` for ``j >= i >= 1``, between
    the given stages ``source = K(A; a^j)`` and ``target = K(A; a^i)``.

    Identity in degree 0; multiplication by ``a_k^{j-i}`` in degree -1;
    everything below by tensor functoriality.
    """
    if j < i or i < 1:
        raise ValueError("transition requires j >= i >= 1")
    ring = a.ring
    out = identity_complex_morphism(ring_complex(ring))
    f = free_module(ring, 1)
    last = len(a.generators) - 1
    for k, g in enumerate(a.generators):
        gj = ring.pow(g, j)
        gi = ring.pow(g, i)
        gap = ring.pow(g, j - i)
        single = ComplexMorphism(_two_term(ring, gj), _two_term(ring, gi),
                                 {-1: multiplication_morphism(f, gap),
                                  0: identity_morphism(f)}, check=False)
        # the last factor lands on the given stages, which are these tensor
        # products; the partial products before it only carry the layout
        if k == last:
            nxt_src, nxt_tgt = source, target
        else:
            nxt_src = tensor_complexes(out.source, single.source)
            nxt_tgt = tensor_complexes(out.target, single.target)
        out = tensor_complex_morphisms(out, single, nxt_src, nxt_tgt)
    return ComplexMorphism(source, target, out.maps, check=False)


class KoszulTower:
    """The Koszul power tower of one sequence up to ``depth``, built once.

    ``stages[i]`` is ``K(A; a^(i+1))`` and ``down[i]`` the transition
    ``K(A; a^(i+2)) -> K(A; a^(i+1))``; ``duals[i]`` is
    ``Hom(stages[i], A)`` and ``up[i]`` the Hom-dual of ``down[i]``,
    ``duals[i] -> duals[i+1]``.  Each list is built on first use and kept
    for the tower's life, so a command that builds one tower and hands it to
    every check builds each stage, dual and transition once.
    """

    def __init__(self, a: IdealSpec, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.ideal = a
        self.depth = depth

    @cached_property
    def stages(self) -> list:
        return [koszul_complex(self.ideal, i) for i in range(1, self.depth + 1)]

    @cached_property
    def down(self) -> list:
        s = self.stages
        return [koszul_transition(self.ideal, i + 1, i, s[i], s[i - 1])
                for i in range(1, self.depth)]

    @cached_property
    def duals(self) -> list:
        ring_cx = ring_complex(self.ideal.ring)
        return [hom_complex(c, ring_cx) for c in self.stages]

    @cached_property
    def up(self) -> list:
        ring_cx = ring_complex(self.ideal.ring)
        d = self.duals
        return [hom_of_source_map(t, ring_cx, d[i], d[i + 1])
                for i, t in enumerate(self.down)]

    def cohomology_prosystem(self, p: int) -> ProSystem:
        """The inverse system ``{H^p(K(A; a^i))}_{i <= depth}``."""
        n = len(self.ideal.generators)
        if not (-n <= p <= 0):
            raise ValueError(f"degree {p} outside [-n, 0]")
        objects = [cohomology(c, p) for c in self.stages]
        transitions = [induced_cohomology_map(t, p, check=False) for t in self.down]
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


def weak_proregularity_check(tower: KoszulTower, window: int = 1) -> WprVerdict:
    """Pro-zero check of every negative Koszul cohomology tower."""
    if tower.depth < 2:
        raise ValueError("depth must be >= 2")
    per = {}
    ok = True
    for p in range(-len(tower.ideal.generators), 0):
        verdict = is_pro_zero(tower.cohomology_prosystem(p), window)
        per[p] = verdict
        ok = ok and verdict.passed
    return WprVerdict(ideal=tower.ideal, depth=tower.depth, window=window,
                      per_degree=per, status="pass" if ok else "undetermined")


# ---------------------------------------------------------------------------
# copointed idempotence


@dataclass
class CopointedIdempotenceReport:
    ideal: IdealSpec
    depth: int
    window: int
    per_degree: dict  # degree p -> TowerEquivalenceVerdict, both sides
    status: str

    @property
    def passed(self):
        return self.status == "pass"


def copointed_idempotence_check(tower: KoszulTower,
                                window: int = 1) -> CopointedIdempotenceReport:
    """Both counit contractions of the dual Koszul ind-system are tower
    equivalences on every cohomology degree.

    Only the left counit ``rho (x) id : D (x) D -> D`` is computed; its
    verdicts are the right counit's too.  With the swap ``tau(x (x) y) =
    (-1)^{|x||y|} y (x) x``, ``id (x) rho = (rho (x) id) o tau``, since
    ``rho`` is nonzero only in degree 0, where the sign is +1.  ``tau`` is a
    chain automorphism of ``D (x) D`` that commutes with ``tr (x) tr``, so
    ``H(right) = H(left) o H(tau)`` with ``H(tau)`` an isomorphism of
    ind-systems: the kernel systems are isomorphic and the cokernel systems
    equal, and each degree's verdict, certificates included, is the same.

    The paper states this for a weakly proregular sequence; the caller
    establishes that premise (``weak_proregularity_check`` on the same
    tower) before it reads the verdict."""
    a, depth = tower.ideal, tower.depth
    n = len(a.generators)
    duals = tower.duals
    dual_trs = tower.up
    squares = [tensor_complexes(d, d) for d in duals]
    square_trs = [tensor_complex_morphisms(tr, tr, squares[i], squares[i + 1])
                  for i, tr in enumerate(dual_trs)]
    counits = [block_identity_map(duals[i], squares[i]) for i in range(depth)]
    per_degree = {}
    for p in range(0, 2 * n + 1):
        src_sys = IndSystem(
            [cohomology(squares[i], p) for i in range(depth)],
            [induced_cohomology_map(square_trs[i], p, check=False)
             for i in range(depth - 1)], check=False)
        tgt_sys = IndSystem(
            [cohomology(duals[i], p) for i in range(depth)],
            [induced_cohomology_map(dual_trs[i], p, check=False)
             for i in range(depth - 1)], check=False)
        level_maps = [induced_cohomology_map(counits[i], p, check=False)
                      for i in range(depth)]
        fmap = SystemMap(src_sys, tgt_sys, level_maps, check=True)
        per_degree[p] = tower_equivalence(fmap, window)
    ok = all(v.passed for v in per_degree.values())
    return CopointedIdempotenceReport(ideal=a, depth=depth, window=window,
                                      per_degree=per_degree,
                                      status="pass" if ok else "undetermined")
