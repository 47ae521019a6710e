"""``mgm-check`` reads truncated Koszul complexes, not mapping cones.

``id (x) u_i : B -> B (x) K^i`` is split injective in every degree, and
``rho_i (x) id : Kdual^i (x) B' -> B'`` split surjective, so their cones are
homotopy equivalent to the quotient ``B (x) sigma_{<=-1} K^i`` and to the
shifted subcomplex ``(sigma_{>=1} Kdual^i (x) B')[1]``.  ``mgm_check`` reads
those; ``reference_algebra.mgm_check_by_cones`` builds the cones, and the
two must give the same verdict, certificates and witnesses for every stage
and degree.  ``truncate`` is checked on its own.
"""

import pytest
from hypothesis import given, settings, strategies as st

from proregular.complexes import (BoundedComplex, ComplexError, ComplexMorphism,
                                  block_identity_map, cohomology,
                                  identity_complex_morphism, module_complex,
                                  tensor_complexes, truncate)
from proregular.fpmod import FpModule, IdealSpec, free_module, multiplication_morphism
from proregular.koszul import KoszulTower
from proregular.rings import prime_poly_ring, rational_poly_ring
from proregular.torsion import mgm_check
from reference_algebra import _unit_map, cone, mgm_check_by_cones
from test_canonical_member import ZZ, elements, modules
from test_quotient_block import polys, witness_ring

QXY = rational_poly_ring(("x", "y"))
F5XYZ = prime_poly_ring(5, ("x", "y", "z"))
A3 = witness_ring(3)
RINGS = {"Z": ZZ, "Q[x,y]": QXY, "F5[x,y,z]": F5XYZ, "A3": A3}
SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def _three_term(ring, a, b):
    """``[A --a--> A --b--> A]`` in degrees -1, 0, 1, with ``b a = 0``."""
    f = free_module(ring, 1)
    return BoundedComplex(ring, -1, [f, f, f],
                          [multiplication_morphism(f, a), multiplication_morphism(f, b)])


def test_truncate_keeps_the_modules_and_differentials_in_range():
    c = _three_term(ZZ, 0, 2)
    low, high = truncate(c, -5, 0), truncate(c, 0, 1)
    assert (low.lo, low.hi, high.lo, high.hi) == (-1, 0, 0, 1)
    assert low.module(0) is c.module(0) and high.diff(0) is c.diff(0)
    assert low.diff(0).is_zero_morphism()
    # d^0 is dropped from the quotient sigma_{<=0}, so its H^0 is all of C^0
    assert cohomology(low, 0).abelian_invariants() == (1, [])
    assert cohomology(high, 1).abelian_invariants() == (0, [2])


def test_truncate_outside_the_complex_is_zero():
    c = _three_term(ZZ, 0, 2)
    empty = truncate(c, 2, 5)
    assert all(empty.module(q).ngens == 0 for q in range(-2, 7))
    phi = truncate(identity_complex_morphism(c), 2, 5)
    assert phi.source.module(2).ngens == 0 and not phi.maps


def test_truncated_morphism_is_checked():
    c = _three_term(ZZ, 2, 0)
    f = free_module(ZZ, 1)
    # 1 in degree -1 and 3 in degree 0: a chain map on each single degree,
    # not across d^{-1} = 2
    phi = ComplexMorphism(c, c, {-1: multiplication_morphism(f, 1),
                                 0: multiplication_morphism(f, 3)}, check=False)
    assert truncate(phi, 0, 1).map_at(0) is phi.map_at(0)
    assert truncate(phi, -1, -1).map_at(-1) is phi.map_at(-1)
    with pytest.raises(ComplexError):
        truncate(phi, -1, 0)


def test_cone_of_split_injection_has_cokernel_cohomology():
    """Over Z with a = (2, 6) and M = Z/12, the cone of the unit
    ``B -> B (x) K(a^2)``, ``B = Kdual(a) (x) M``, and the quotient
    ``B (x) sigma_{<=-1} K(a^2)`` have the same cohomology in every degree;
    so do the cone of the counit ``Kdual(a^2) (x) B' -> B'``,
    ``B' = M (x) K(a)``, and the subcomplex ``sigma_{>=1} Kdual(a^2) (x) B'``
    shifted by one."""
    tower = KoszulTower(IdealSpec.make(ZZ, [2, 6]), 2)
    mcx = module_complex(FpModule(ZZ, 1, [[12]]))
    base = tensor_complexes(tower.duals[0], mcx)
    tens = tensor_complexes(base, tower.stages[1])
    quot = tensor_complexes(base, truncate(tower.stages[1], -2, -1))
    cn = cone(_unit_map(base, tens))
    for q in range(cn.lo - 1, cn.hi + 2):
        assert cohomology(cn, q).abelian_invariants() == \
            cohomology(quot, q).abelian_invariants(), q
    base = tensor_complexes(mcx, tower.stages[0])
    tens = tensor_complexes(tower.duals[1], base)
    sub = tensor_complexes(truncate(tower.duals[1], 1, 2), base)
    cn = cone(block_identity_map(base, tens))
    assert any(not cohomology(cn, q).is_zero() for q in cn.degrees())
    for q in range(cn.lo - 1, cn.hi + 2):
        assert cohomology(cn, q).abelian_invariants() == \
            cohomology(sub, q + 1).abelian_invariants(), q


@st.composite
def ideals(draw, ring, max_gens=2):
    """One or two drawn generators that are not units: integers in
    ``{0, 2, 3, 4, 6}`` (a zero is dropped), or nonzero polynomials of one
    or two terms with exponents up to 2 and no constant term."""
    if ring is ZZ:
        gen = st.sampled_from([0, 2, 3, 4, 6])
    else:
        gen = polys(ring.poly_ring, 1, 2).filter(
            lambda p: all(any(e) for e, _ in p.terms)).map(ring.coerce).filter(
            lambda g: not ring.is_zero(g))
    return IdealSpec.make(ring, draw(st.lists(gen, min_size=1, max_size=max_gens)))


def _assert_same_verdicts(m, tower):
    got, want = mgm_check(m, tower, 1), mgm_check_by_cones(m, tower, 1)
    for side in ("tau_side", "sigma_side"):
        g, w = getattr(got, side), getattr(want, side)
        assert g.status == w.status
        assert g.per_stage.keys() == w.per_stage.keys()
        for k in w.per_stage:
            assert g.per_stage[k].keys() == w.per_stage[k].keys()
            for q, verdict in w.per_stage[k].items():
                assert g.per_stage[k][q] == verdict, (side, k, q)


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_truncated_verdicts_equal_the_cone_oracle(name, data):
    """One generator at depth 5, where stage 2 is required and its towers
    have certificates beyond the next level, or two at depth 3 on a cyclic
    module, where the cones are already large.  Over ``A3``, whose cones
    are the slowest, one generator on a cyclic module."""
    ring = RINGS[name]
    a = data.draw(ideals(ring, max_gens=1 if ring is A3 else 2))
    two = len(a.generators) == 2
    cyclic = two or ring is A3
    rank, cols = data.draw(modules(ring, max_rank=1 if cyclic else 2, max_cols=2))
    _assert_same_verdicts(FpModule(ring, rank, cols), KoszulTower(a, 3 if two else 5))


@pytest.mark.parametrize("ring,gens,cols,depth", [
    (A3, ["x"], [], 5),
    (A3, ["x"], [["e2"]], 4),
    (ZZ, [2], [[8]], 6),
    (QXY, ["x", "x*y"], [["y"]], 4),
], ids=["A3-R", "A3-R/e2", "Z/8", "Qxy-xy"])
def test_truncated_verdicts_equal_the_cone_oracle_on_fixed_cases(ring, gens, cols, depth):
    """The witness ring, where WPR fails below depth 4, and cases with
    certificates beyond the next level at two required stages."""
    _assert_same_verdicts(FpModule(ring, 1, cols), KoszulTower(IdealSpec.make(ring, gens), depth))
