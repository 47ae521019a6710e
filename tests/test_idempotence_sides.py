"""``copointed_idempotence_check`` computes the left counit only.

With the swap ``tau(x (x) y) = (-1)^{|x||y|} y (x) x`` of ``D (x) D``, the
right counit is ``id (x) rho = (rho (x) id) o tau``, and ``tau`` commutes
with the tower transitions, so both counits give the same verdict in every
degree.  ``reference_algebra.copointed_idempotence_both_sides`` computes
both sides in full; its right verdicts (status, kernel and cokernel
certificates) must equal the library's, whether or not the ideal passes the
weak proregularity check at that depth.
"""

import pytest
from hypothesis import given, settings, strategies as st

from proregular.complexes import block_identity_map, tensor_complexes
from proregular.fpmod import IdealSpec
from proregular.koszul import (KoszulTower, copointed_idempotence_check,
                               weak_proregularity_check)
from proregular.rings import prime_poly_ring, quotient_ring, rational_poly_ring
from reference_algebra import copointed_idempotence_both_sides, right_counit_map
from test_mgm_truncation import ideals
from test_quotient_block import S16, polys, witness_ring

QXY = rational_poly_ring(("x", "y"))
S15 = quotient_ring(QXY, ["x^2 - y^3"])  # the ring of s15_q_cusp
RINGS = {"Q[x,y]": QXY, "F5[x,y,z]": prime_poly_ring(5, ("x", "y", "z")),
         "s15": S15, "s16": S16, "A2": witness_ring(2), "A3": witness_ring(3)}
SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None)


@st.composite
def quotient_ideals(draw, ring):
    """One or two generators, each a monomial with exponents up to 2 and a
    nonzero coefficient, neither a unit nor zero in the quotient: the
    Koszul squares of two-term generators over a quotient are too slow for
    a property."""
    gen = polys(ring.poly_ring, 1, 1).filter(
        lambda p: any(p.terms[0][0])).map(ring.coerce).filter(
        lambda g: not ring.is_zero(g))
    return IdealSpec.make(ring, draw(st.lists(gen, min_size=1, max_size=2)))


def _assert_right_equals_library(tower, window=1):
    got = copointed_idempotence_check(tower, window)
    both = copointed_idempotence_both_sides(tower, window)
    assert got.per_degree.keys() == both["right"].keys()
    for p, verdict in got.per_degree.items():
        assert both["right"][p] == verdict, p
        assert both["left"][p] == verdict, p
    want = all(v.passed for side in both.values() for v in side.values())
    assert got.passed == want


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_right_counit_verdicts_equal_the_library(name, data):
    """One generator at depth 4 or two at depth 3 over the polynomial rings
    and s15/s16; one at depth 3 or two at depth 2 over the witness rings,
    where some drawn ideals, ``(x)`` over ``A3`` among them, fail the weak
    proregularity check at that depth."""
    ring = RINGS[name]
    witness = name.startswith("A")
    polynomial = ring.kind == "polynomial"
    a = data.draw(ideals(ring) if polynomial else quotient_ideals(ring))
    depth = (3 if witness else 4) - (len(a.generators) - 1)
    _assert_right_equals_library(KoszulTower(a, depth))


def test_the_oracle_projects_onto_the_other_block():
    """The two counits are different chain maps from degree 1 on, and the
    same in degree 0, where ``D^0 (x) D^0`` is one block."""
    dual = KoszulTower(IdealSpec.make(QXY, ["x", "y"]), 1).duals[0]
    square = tensor_complexes(dual, dual)
    left, right = block_identity_map(dual, square), right_counit_map(dual, square)
    assert left.map_at(0).matrix == right.map_at(0).matrix
    assert all(left.map_at(q).matrix != right.map_at(q).matrix for q in (1, 2))


@pytest.mark.parametrize("ring,gens,depth,window,wpr", [
    (S15, ["x", "y"], 3, 1, "pass"),
    (S16, ["x", "z"], 4, 1, "pass"),
    (witness_ring(2), ["x"], 2, 1, "undetermined"),
    (witness_ring(3), ["x"], 3, 2, "undetermined"),
    (witness_ring(3), ["x^2"], 2, 1, "undetermined"),
    (witness_ring(2), ["x", "e1"], 2, 1, "undetermined"),
], ids=["s15", "s16", "A2", "A3-w2", "A3-x2", "A2-x,e1"])
def test_right_counit_verdicts_equal_the_library_on_fixed_cases(ring, gens, depth,
                                                                window, wpr):
    """The pinned quotient sessions, and witness rings below their weak
    proregularity boundary."""
    tower = KoszulTower(IdealSpec.make(ring, gens), depth)
    assert weak_proregularity_check(tower, window).status == wpr
    _assert_right_equals_library(tower, window)
