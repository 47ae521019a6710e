"""Truncated pro- and ind-systems of modules and their finite-depth verdicts.

A depth-``N`` system holds objects ``X_1 .. X_N`` and adjacent transition
maps (downward ``X_{i+1} -> X_i`` for pro-systems, upward ``X_i -> X_{i+1}``
for ind-systems).  The central predicate is *vanishing*: a pro-system is
pro-zero when every level is eventually killed by a long enough transition
composite, and dually for ind-systems.

A truncation can only ever certify success, so the verdict type is
``pass`` / ``undetermined`` -- never "fail".  Certificates are required only
for levels with doubling headroom before the truncation edge (level ``i``
needs ``2 i + w <= N``, and level 1 is always required): in adic situations
the certificate gap grows linearly with the level, so levels too close to
the edge would produce spurious ``undetermined`` verdicts at any depth.
Every reported certificate is re-verifiable: it names the least ``j`` whose
composite with level ``i`` is the zero morphism.

A levelwise map of systems has kernel and cokernel systems.  A kernel
transition factors the ambient transition through the kernel inclusion; a
cokernel transition is the target transition's own matrix, since every
cokernel is presented on its target's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fpmod import (FpModule, ModuleMorphism, cokernel, factor_through,
                    identity_morphism, kernel)


class TowerError(ValueError):
    pass


class _System:
    """Shared container: objects ``X_1..X_N`` plus adjacent maps."""

    direction = None  # "pro" or "ind"

    def __init__(self, objects, transitions, check: bool = True):
        self.objects = list(objects)
        self.transitions = list(transitions)
        if len(self.objects) < 1:
            raise TowerError("a system needs at least one object")
        if len(self.transitions) != len(self.objects) - 1:
            raise TowerError("need exactly one transition per adjacent pair")
        if check:
            for t, tr in enumerate(self.transitions):
                s, d = self._endpoints(t, t + 1)
                if tr.source.ngens != self.objects[s].ngens or \
                        tr.target.ngens != self.objects[d].ngens:
                    raise TowerError(f"transition {t + 1} has wrong endpoints")

    @property
    def depth(self) -> int:
        return len(self.objects)

    def object(self, i: int) -> FpModule:
        """1-based level access."""
        return self.objects[i - 1]

    def _endpoints(self, i: int, j: int):
        """``(source, target)`` of the maps between the levels ``i < j``
        (``transitions[t]`` maps ``objects[s]`` to ``objects[d]`` for
        ``s, d = _endpoints(t, t + 1)``)."""
        raise NotImplementedError

    def composite(self, source: int, target: int) -> ModuleMorphism:
        raise NotImplementedError


class ProSystem(_System):
    """Transitions run downward: ``transitions[t] : X_{t+2} -> X_{t+1}``."""

    direction = "pro"

    def _endpoints(self, i: int, j: int):
        return j, i

    def composite(self, source: int, target: int) -> ModuleMorphism:
        """The map ``X_source -> X_target`` for ``source >= target``
        (identity when equal)."""
        if not 1 <= target <= source <= self.depth:
            raise TowerError(f"bad composite indices {source} -> {target}")
        out = identity_morphism(self.object(source))
        for t in range(source - 1, target - 1, -1):
            out = self.transitions[t - 1].compose(out)
        return out


class IndSystem(_System):
    """Transitions run upward: ``transitions[t] : X_{t+1} -> X_{t+2}``."""

    direction = "ind"

    def _endpoints(self, i: int, j: int):
        return i, j

    def composite(self, source: int, target: int) -> ModuleMorphism:
        """The map ``X_source -> X_target`` for ``source <= target``
        (identity when equal)."""
        if not 1 <= source <= target <= self.depth:
            raise TowerError(f"bad composite indices {source} -> {target}")
        out = identity_morphism(self.object(source))
        for t in range(source, target):
            out = self.transitions[t - 1].compose(out)
        return out


@dataclass
class VanishingVerdict:
    """Outcome of the finite-depth vanishing check.

    ``certificates[i]`` is the least partner level whose composite with
    level ``i`` is zero (``None`` when none exists up to the depth).  On
    ``undetermined`` the first failing required level is the witness and
    ``nonzero_partners`` lists every level it was tested against.
    """

    status: str  # "pass" | "undetermined"
    depth: int
    window: int
    required_levels: list
    certificates: dict
    witness_level: int | None = None
    nonzero_partners: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def required_levels(depth: int, window: int) -> list:
    """Levels that must certify: ``{1} union {i : 2 i + w <= N}``."""
    if not 1 <= window < depth:
        raise TowerError("window must satisfy 1 <= w < depth")
    out = {1}
    out.update(i for i in range(1, depth + 1) if 2 * i + window <= depth)
    return sorted(out)


def vanishing_check(system: _System, window: int = 1) -> VanishingVerdict:
    """Is the system pro-zero (pro) / vanishing in the colimit (ind)?

    For every level ``i`` the partner levels are all ``j`` with
    ``i < j <= N``; a certificate is a zero composite between them.
    """
    n = system.depth
    req = required_levels(n, window)
    certificates = {}
    for i in range(1, n):
        least = None
        for j in range(i + 1, n + 1):
            if system.composite(*system._endpoints(i, j)).is_zero_morphism():
                least = j
                break
        certificates[i] = least
    for i in req:
        if certificates.get(i) is None:
            return VanishingVerdict(
                status="undetermined", depth=n, window=window,
                required_levels=req, certificates=certificates,
                witness_level=i,
                nonzero_partners=list(range(i + 1, n + 1)))
    return VanishingVerdict(status="pass", depth=n, window=window,
                            required_levels=req, certificates=certificates)


def is_pro_zero(system: ProSystem, window: int = 1) -> VanishingVerdict:
    if system.direction != "pro":
        raise TowerError("is_pro_zero expects a pro-system")
    return vanishing_check(system, window)


# ---------------------------------------------------------------------------
# levelwise maps of systems and tower equivalence


class SystemMap:
    """Levelwise maps ``f_i : X_i -> Y_i`` commuting with transitions."""

    def __init__(self, source: _System, target: _System, maps, check: bool = True):
        if source.direction != target.direction:
            raise TowerError("system map between opposite variances")
        if source.depth != target.depth:
            raise TowerError("system map requires equal depths")
        self.source = source
        self.target = target
        self.maps = list(maps)
        if len(self.maps) != source.depth:
            raise TowerError("need one map per level")
        if check:
            for t in range(source.depth - 1):
                s, d = source._endpoints(t, t + 1)
                left = self.maps[d].compose(source.transitions[t])
                right = target.transitions[t].compose(self.maps[s])
                if not left.sub(right).is_zero_morphism():
                    raise TowerError(f"system map does not commute at step {t + 1}")

    @property
    def depth(self):
        return self.source.depth

    def kernel_system(self) -> _System:
        """Kernels with the induced transitions: each ambient transition
        factored through the kernel inclusion at its target level."""
        incls = [kernel(f)[1] for f in self.maps]
        trans = []
        for t, tr in enumerate(self.source.transitions):
            s, d = self.source._endpoints(t, t + 1)
            trans.append(_lift_into_submodule(tr.compose(incls[s]), incls[d]))
        return type(self.source)([i.source for i in incls], trans, check=False)

    def cokernel_system(self) -> _System:
        """Cokernels with the induced transitions: each target transition's
        matrix, as the cokernels keep their targets' generators."""
        cokers = [cokernel(f) for f in self.maps]
        ends = [self.target._endpoints(t, t + 1) for t in range(self.depth - 1)]
        trans = [ModuleMorphism(cokers[s], cokers[d], tr.matrix, check=False)
                 for (s, d), tr in zip(ends, self.target.transitions)]
        return type(self.target)(cokers, trans, check=False)


def _lift_into_submodule(ambient_map: ModuleMorphism,
                         incl: ModuleMorphism) -> ModuleMorphism:
    """Factor ``ambient_map`` through the submodule inclusion ``incl``."""
    return ModuleMorphism(ambient_map.source, incl.source,
                          factor_through(incl.matrix, incl.target, ambient_map.matrix,
                                         "map does not factor through the submodule"),
                          check=False)


@dataclass
class TowerEquivalenceVerdict:
    status: str  # "pass" | "undetermined"
    kernel_verdict: VanishingVerdict
    cokernel_verdict: VanishingVerdict

    @property
    def passed(self):
        return self.status == "pass"


def tower_equivalence(f: SystemMap, window: int = 1) -> TowerEquivalenceVerdict:
    """Finite-depth proxy for "isomorphism of (pro/ind) systems".

    Passes when the kernel and cokernel systems of ``f`` both vanish within
    the window in the sense of ``vanishing_check``.
    """
    kv = vanishing_check(f.kernel_system(), window)
    cv = vanishing_check(f.cokernel_system(), window)
    status = "pass" if (kv.passed and cv.passed) else "undetermined"
    return TowerEquivalenceVerdict(status=status, kernel_verdict=kv,
                                   cokernel_verdict=cv)
