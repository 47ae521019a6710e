"""``cokernel(f)`` gives ``(C, proj, section)`` with ``proj.matrix * section``
the identity, so a target transition ``T`` induces ``proj_d * T * section_s``
on the cokernels, with no span oracle; only kernel transitions still use
``factor_through``.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from proregular import towers
from proregular.fpmod import FpModule, IdealSpec, cokernel, free_module, multiplication_morphism
from proregular.koszul import KoszulTower
from proregular.torsion import ext_torsion_tower
from proregular.towers import IndSystem, ProSystem, SystemMap, tower_equivalence
from test_canonical_member import A3, QXY, ZZ, elements, modules

RINGS = {"Z": ZZ, "Q[x,y]": QXY, "A3": A3}


def _multiplication_map(system, scalar):
    return SystemMap(system, system,
                     [multiplication_morphism(o, scalar) for o in system.objects])


def test_tower_equivalence_factors_only_kernel_transitions(monkeypatch):
    """A pro-system over A3 (``H^-1`` of the Koszul stages of ``x``) and an
    ind-system over Z (``Ext^1(Z/2^i, Z)``), each mapped to itself by a
    scalar."""
    a3_sys = KoszulTower(IdealSpec.make(A3, ["x"]), 4).cohomology_prosystem(-1)
    z_sys = ext_torsion_tower(free_module(ZZ, 1), IdealSpec.make(ZZ, [2]), 1, 4)
    maps = [_multiplication_map(a3_sys, A3.parse("x")), _multiplication_map(z_sys, 2)]
    callers = []
    real = towers.factor_through

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(towers, "factor_through", counting)
    for fmap in maps:
        tower_equivalence(fmap)
    assert callers == ["_lift_into_submodule"] * 6


@st.composite
def system_maps(draw, ring):
    """``f_i = r^i`` (``i = 1, 2, 3``, ``r`` not a unit) between two systems
    on one drawn module ``M``, pro or ind.  A transition from level ``s`` to
    level ``d`` multiplies by ``u * r^max(s - d, 0)`` in the source and by
    ``u * r^max(d - s, 0)`` in the target (``u`` nonzero), so that
    ``f_d T_src = T_tgt f_s``."""
    rank, cols = draw(modules(ring, max_rank=2, max_cols=3))
    m = FpModule(ring, rank, cols)
    r = draw(elements(ring).filter(lambda e: not ring.is_unit(e)))
    cls = draw(st.sampled_from([ProSystem, IndSystem]))
    us = draw(st.lists(elements(ring).filter(lambda e: not ring.is_zero(e)),
                       min_size=2, max_size=2))
    src_tr, tgt_tr = [], []
    for t, u in enumerate(us):
        s, d = (t + 2, t + 1) if cls is ProSystem else (t + 1, t + 2)
        src_tr.append(multiplication_morphism(m, ring.mul(u, ring.pow(r, max(s - d, 0)))))
        tgt_tr.append(multiplication_morphism(m, ring.mul(u, ring.pow(r, max(d - s, 0)))))
    maps = [multiplication_morphism(m, ring.pow(r, i)) for i in (1, 2, 3)]
    return SystemMap(cls([m] * 3, src_tr), cls([m] * 3, tgt_tr), maps, check=True)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cokernel_transitions_commute_with_projections(name, data):
    """``trans[t] o proj_s == proj_d o target.transitions[t]`` as morphisms."""
    fmap = data.draw(system_maps(RINGS[name]))
    cokers = [cokernel(f) for f in fmap.maps]
    system = fmap.cokernel_system()
    for c, (coker, _, _) in zip(system.objects, cokers):
        assert c.relations == coker.relations
    for t, tr in enumerate(system.transitions):
        s, d = fmap.target._endpoints(t, t + 1)
        left = tr.compose(cokers[s][1])
        right = cokers[d][1].compose(fmap.target.transitions[t])
        assert left.sub(right).is_zero_morphism()
