"""Torsion functor, local cohomology towers, adic completion, and the
finite-depth equivalence checks between torsion and completion.

The torsion submodule is the stabilized ascending chain of ideal-power
annihilators.  Local cohomology comes in two models: the derived-functor
tower ``{Ext^p(A/a^i, M)}`` and the Koszul tower
``{H^p(Kdual(A; a^i) (x) M)}``; both are ind-systems with canonical
transitions.  Derived completion is modeled by the pro-system
``{H^q(C (x) K(A; a^i))}``.  The Koszul model, derived completion and the
equivalence check all read the stages ``K(A; a^i)``, their duals
``Kdual(A; a^i) = Hom(K(A; a^i), A)`` and both kinds of transition from
one ``KoszulTower``, which a command builds once and shares.

The torsion/completion equivalence check is assembled from the two unit
and counit chain maps that exist on the nose at finite stages:

* ``u_i : A[0] -> K(A; a^i)``        (identity onto degree 0), and
* ``rho_i : Kdual(A; a^i) -> A[0]``  (identity from degree 0).

For each fixed torsion stage ``k`` the cones of
``id (x) u_i : B -> B (x) K^i``, ``B = Kdual^k (x) M``, form a pro-system in
``i`` whose cohomology must be pro-zero (torsion of completion is torsion);
symmetrically the cones of ``rho_i (x) id : Kdual^i (x) B' -> B'``,
``B' = M (x) K^k``, form an ind-system in ``i`` whose cohomology must vanish
(completion of torsion is completion).

No cone is built.  ``id (x) u_i`` is split injective in every degree and
``rho_i (x) id`` split surjective.  The cone of a degreewise split
injection is naturally homotopy equivalent to its cokernel, here the
quotient complex ``B (x) sigma_{<=-1} K^i``, and the cone of a degreewise
split surjection to its kernel shifted by one, here the subcomplex
``sigma_{>=1} Kdual^i (x) B'``, so ``H^q(cone) = H^(q+1)(sub)`` (Weibel,
*An Introduction to Homological Algebra*, 1.5).  The check reads those
brutal truncations, with the truncated tower transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (BoundedComplex, cohomology, hom_complex, hom_of_source_map,
                        identity_complex_morphism, induced_cohomology_map,
                        module_complex, tensor_complexes, tensor_complex_morphisms,
                        truncate)
from .fpmod import (FpModule, IdealSpec, ModuleMorphism, annihilated_by_elements,
                    identity_morphism, ideal_power, quotient_by, quotient_module)
from .intlinalg import mat_from_cols
from .koszul import KoszulTower
from .resolutions import free_resolution, lift_through_resolution
from .towers import IndSystem, ProSystem, required_levels, vanishing_check


class StabilizationBudgetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the torsion submodule


@dataclass
class TorsionData:
    module: FpModule
    inclusion: ModuleMorphism  # torsion -> ambient
    stabilization_index: int


def _stable_annihilator(m: FpModule, elements_at, max_stabilization: int,
                        label: str):
    """First stable stage of the ascending chain ``{x in m : g x = 0 for all
    g in elements_at(i)}``, ``i = 1, 2, ...``: ``(sub, incl, index)``.

    The chain stops at the first repeat (equality as submodules of ``m``:
    canonical forms are unique, so each stage's canonical form, with the
    relations of ``m``, is computed once and compared with the last one);
    raises ``StabilizationBudgetError`` naming ``label`` if it is still
    moving at the budget.
    """
    rel = m.relations.cols()
    prev = None
    for i in range(1, max_stabilization + 1):
        sub, incl = annihilated_by_elements(m, elements_at(i))
        form = m.ring.canonical_columns(incl.matrix.cols(), m.ngens, rel)
        if prev is not None and form == prev[2]:
            return prev[0], prev[1], i - 1
        prev = sub, incl, form
    raise StabilizationBudgetError(
        f"{label} did not stabilize within {max_stabilization} steps")


def gamma(m: FpModule, a: IdealSpec, max_stabilization: int = 32) -> TorsionData:
    """Largest submodule annihilated by a power of the ideal.

    Computed as the ascending chain of ideal-power annihilators.
    """
    sub, incl, index = _stable_annihilator(
        m, lambda i: ideal_power(a, i).generators, max_stabilization,
        "annihilator chain")
    return TorsionData(module=sub, inclusion=incl, stabilization_index=index)


# ---------------------------------------------------------------------------
# torsion towers


def ext_torsion_tower(m: FpModule, a: IdealSpec, p: int, depth: int,
                      max_length: int | None = None) -> IndSystem:
    """``{Ext^p(A/a^i, M)}_{i <= depth}`` with transitions induced by the
    stage surjections ``A/a^{i+1} ->> A/a^i`` that are the identity on the
    generator."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ring = m.ring
    quotients = [quotient_module(a, i) for i in range(1, depth + 1)]
    mcx = module_complex(m)
    resolutions = [free_resolution(q, max_length=max_length, truncate_at=p + 1)
                   for q in quotients]
    homs = [hom_complex(r.complex, mcx) for r in resolutions]
    objects = [cohomology(h, p) for h in homs]
    transitions = []
    for i in range(depth - 1):
        proj = ModuleMorphism(quotients[i + 1], quotients[i],
                              mat_from_cols([(ring.one(),)], 1), check=False)
        lifted = lift_through_resolution(proj, resolutions[i + 1], resolutions[i])
        hom_map = hom_of_source_map(lifted, mcx, hom_source=homs[i],
                                    hom_target=homs[i + 1])
        transitions.append(induced_cohomology_map(hom_map, p, check=False))
    return IndSystem(objects, transitions, check=False)


def koszul_torsion_tower(m: FpModule, tower: KoszulTower, p: int) -> IndSystem:
    """``{H^p(Kdual(A; a^i) (x) M)}_{i <= depth}`` with dual transitions."""
    mcx = module_complex(m)
    stages = [tensor_complexes(d, mcx) for d in tower.duals]
    objects = [cohomology(s, p) for s in stages]
    id_m = identity_complex_morphism(mcx)
    transitions = [
        induced_cohomology_map(tensor_complex_morphisms(tr, id_m, stages[i],
                                                        stages[i + 1]), p, check=False)
        for i, tr in enumerate(tower.up)]
    return IndSystem(objects, transitions, check=False)


# ---------------------------------------------------------------------------
# completion towers


def _quotient_tower(m: FpModule, levels) -> ProSystem:
    """``{M / (s_1, ..., s_r) M}`` for each ``(scalars, name)`` in ``levels``,
    with the surjections that are the identity on generators."""
    ring = m.ring
    objects = []
    for scalars, name in levels:
        extra = [[s if t == k else ring.zero() for t in range(m.ngens)]
                 for s in scalars for k in range(m.ngens)]
        objects.append(quotient_by(m, extra, name=name))
    transitions = [ModuleMorphism(objects[i + 1], objects[i],
                                  identity_morphism(m).matrix, check=False)
                   for i in range(len(objects) - 1)]
    return ProSystem(objects, transitions, check=False)


def completion_tower(m: FpModule, a: IdealSpec, depth: int) -> ProSystem:
    """``{M / a^i M}_{i <= depth}`` with the canonical surjections."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _quotient_tower(m, [(ideal_power(a, i).generators, f"{m.name or 'M'}/a^{i}")
                               for i in range(1, depth + 1)])


def profinite_tower(m: FpModule, moduli) -> ProSystem:
    """``{M / k_i M}`` over Z for a divisibility chain ``k_1 | k_2 | ...``."""
    if m.ring.kind != "integers":
        raise ValueError("profinite tower requires the integer backend")
    moduli = [int(k) for k in moduli]
    if not moduli or any(k <= 0 for k in moduli):
        raise ValueError("moduli must be positive")
    for x, y in zip(moduli, moduli[1:]):
        if y % x != 0:
            raise ValueError(f"divisibility chain violated: {x} does not divide {y}")
    return _quotient_tower(m, [((k,), f"{m.name or 'M'}/{k}") for k in moduli])


def derived_completion_tower(c: BoundedComplex, tower: KoszulTower) -> dict:
    """Per-degree pro-systems ``{H^q(C (x) K(A; a^i))}``; ``C`` must be
    degreewise free."""
    for q in c.degrees():
        if c.module(q).free_rank is None:
            raise ValueError("derived completion requires a degreewise free complex")
    stages = [tensor_complexes(c, k) for k in tower.stages]
    id_c = identity_complex_morphism(c)
    trans_cx = [tensor_complex_morphisms(id_c, tr, stages[i + 1], stages[i])
                for i, tr in enumerate(tower.down)]
    out = {}
    for q in range(c.lo - len(tower.ideal.generators), c.hi + 1):
        objects = [cohomology(s, q) for s in stages]
        transitions = [induced_cohomology_map(t, q, check=False) for t in trans_cx]
        out[q] = ProSystem(objects, transitions, check=False)
    return out


# ---------------------------------------------------------------------------
# torsion/completion equivalence at finite depth


@dataclass
class EquivalenceSideReport:
    side: str  # "torsion-of-completion" | "completion-of-torsion"
    per_stage: dict  # k -> {q: VanishingVerdict}
    status: str

    @property
    def passed(self):
        return self.status == "pass"


@dataclass
class MgmReport:
    ideal: IdealSpec
    depth: int
    window: int
    tau_side: EquivalenceSideReport
    sigma_side: EquivalenceSideReport

    @property
    def passed(self):
        return self.tau_side.passed and self.sigma_side.passed


def mgm_check(m: FpModule, tower: KoszulTower, window: int = 1) -> MgmReport:
    """Finite-depth torsion/completion equivalence for the module ``m``.

    tau side: for each required torsion stage ``k``, with
    ``B = Kdual^k (x) M``, the cones of ``id (x) u_i : B -> B (x) K^i`` form
    a pro-system in ``i`` whose cohomology towers must be pro-zero.  sigma
    side: for each required completion stage ``k``, with
    ``B' = M (x) K^k``, the cones of ``rho_i (x) id : Kdual^i (x) B' -> B'``
    form an ind-system in ``i`` whose cohomology towers must vanish.

    No cone is built.  ``id (x) u_i`` is split injective in every degree,
    with cokernel the quotient complex ``B (x) sigma_{<=-1} K^i``, and
    ``rho_i (x) id`` is split surjective in every degree, with kernel the
    subcomplex ``sigma_{>=1} Kdual^i (x) B'``.  A degreewise split
    injection's cone is naturally homotopy equivalent to its cokernel, and
    a degreewise split surjection's to its kernel shifted by one, so
    ``H^q(cone) = H^(q+1)(sub)`` on the sigma side.  The cone towers are
    thus isomorphic, as systems, to
    ``{H^q(B (x) sigma_{<=-1} K^i)}`` with transitions
    ``id (x) sigma_{<=-1}(down)``, and to
    ``{H^(q+1)(sigma_{>=1} Kdual^i (x) B')}`` with transitions
    ``sigma_{>=1}(up) (x) id``; these have the same certificates.  Each
    side reports every degree ``q`` of its cones: ``min(B.lo - 1, B.lo - n)``
    to ``B.hi`` for tau, ``B'.lo - 1`` to ``max(B'.hi + n - 1, B'.hi)`` for
    sigma.  Every truncated and tensored transition is checked to be a
    chain map.

    The paper proves the equivalence for a weakly proregular sequence; the
    caller establishes that premise (``weak_proregularity_check`` on the
    same tower) before it reads the verdict.
    """
    req = required_levels(tower.depth, window)
    n = len(tower.ideal.generators)
    mcx = module_complex(m)
    below = [truncate(s, -n, -1) for s in tower.stages]
    below_down = [truncate(t, -n, -1) for t in tower.down]
    above = [truncate(d, 1, n) for d in tower.duals]
    above_up = [truncate(t, 1, n) for t in tower.up]

    # tau side: torsion of completion = torsion
    tau_stage = {}
    for k in req:
        base = tensor_complexes(tower.duals[k - 1], mcx)
        id_base = identity_complex_morphism(base)
        quots = [tensor_complexes(base, s) for s in below]
        trs = [tensor_complex_morphisms(id_base, t, quots[i + 1], quots[i], check=True)
               for i, t in enumerate(below_down)]
        qs = range(min(base.lo - 1, base.lo - n), base.hi + 1)
        tau_stage[k] = _verdicts(quots, trs, qs, 0, ProSystem, window)

    # sigma side: completion of torsion = completion
    sigma_stage = {}
    for k in req:
        base = tensor_complexes(mcx, tower.stages[k - 1])
        id_base = identity_complex_morphism(base)
        subs = [tensor_complexes(d, base) for d in above]
        trs = [tensor_complex_morphisms(t, id_base, subs[i], subs[i + 1], check=True)
               for i, t in enumerate(above_up)]
        qs = range(base.lo - 1, max(base.hi + n - 1, base.hi) + 1)
        sigma_stage[k] = _verdicts(subs, trs, qs, 1, IndSystem, window)
    return MgmReport(ideal=tower.ideal, depth=tower.depth, window=window,
                     tau_side=_side_report("torsion-of-completion", tau_stage),
                     sigma_side=_side_report("completion-of-torsion", sigma_stage))


def _verdicts(complexes, transitions, degrees, shift: int, system_cls,
              window: int) -> dict:
    """Per degree ``q`` of ``degrees``: the vanishing verdict of the tower
    ``{H^(q+shift)(complexes[i])}`` (a ``system_cls``) with the maps
    induced by ``transitions``."""
    per_q = {}
    for q in degrees:
        objects = [cohomology(c, q + shift) for c in complexes]
        maps = [induced_cohomology_map(t, q + shift, check=False) for t in transitions]
        per_q[q] = vanishing_check(system_cls(objects, maps, check=False), window)
    return per_q


def _side_report(side: str, per_stage: dict) -> EquivalenceSideReport:
    ok = all(v.passed for per_q in per_stage.values() for v in per_q.values())
    return EquivalenceSideReport(side=side, per_stage=per_stage,
                                 status="pass" if ok else "undetermined")
