import pytest

from proregular.complexes import cohomology
from proregular.fpmod import (FpModule, IdealSpec, free_module,
                              identity_morphism, multiplication_morphism,
                              zero_module, zero_morphism)
from proregular.koszul import (KoszulTower, copointed_idempotence_check,
                               koszul_complex, koszul_transition,
                               weak_proregularity_check)
from proregular.rings import (integers, prime_poly_ring, quotient_ring,
                              rational_poly_ring)
from proregular.towers import (IndSystem, ProSystem, SystemMap, TowerError,
                               is_pro_zero, required_levels, tower_equivalence,
                               vanishing_check)
from reference_algebra import radical_invariance_suite

ZZ = integers()


def _zmod(n, name=None):
    return FpModule(ZZ, 1, [[n]], name=name)


# ---------------------------------------------------------------------------
# pro/ind systems


def test_pro_system_composites():
    objs = [_zmod(2), _zmod(4), _zmod(8)]
    trans = [multiplication_morphism(objs[0], 1),
             multiplication_morphism(objs[1], 1)]
    # transitions need correct endpoints: X2 -> X1, X3 -> X2
    trans = [
        type(trans[0])(objs[1], objs[0], identity_morphism(objs[0]).matrix, False),
        type(trans[0])(objs[2], objs[1], identity_morphism(objs[1]).matrix, False),
    ]
    sys_ = ProSystem(objs, trans, check=False)
    comp = sys_.composite(3, 1)
    assert comp.source is objs[2] and comp.target is objs[0]
    assert not comp.is_zero_morphism()
    with pytest.raises(TowerError):
        sys_.composite(1, 3)


def test_ind_system_composites_take_source_then_target():
    """Both kinds of system take (source level, target level)."""
    objs = [_zmod(8), _zmod(4), _zmod(2)]
    trans = [type(identity_morphism(objs[0]))(objs[i], objs[i + 1],
                                              identity_morphism(objs[i]).matrix, False)
             for i in range(2)]
    sys_ = IndSystem(objs, trans)
    comp = sys_.composite(1, 3)
    assert comp.source is objs[0] and comp.target is objs[2]
    assert not comp.is_zero_morphism()
    with pytest.raises(TowerError):
        sys_.composite(3, 1)


def test_all_zero_system_passes_with_adjacent_certificates():
    objs = [zero_module(ZZ) for _ in range(4)]
    trans = [zero_morphism(objs[i + 1], objs[i]) for i in range(3)]
    v = is_pro_zero(ProSystem(objs, trans, check=False), window=1)
    assert v.passed
    for i, j in v.certificates.items():
        assert j == i + 1


def test_constant_identity_system_undetermined():
    objs = [_zmod(2) for _ in range(5)]
    trans = [identity_morphism(objs[0]) for _ in range(4)]
    trans = [type(t)(objs[i + 1], objs[i], t.matrix, False)
             for i, t in enumerate(trans)]
    v = is_pro_zero(ProSystem(objs, trans, check=False), window=2)
    assert not v.passed
    assert v.witness_level == 1
    assert v.nonzero_partners == [2, 3, 4, 5]


def test_required_levels_rule():
    assert required_levels(5, 1) == [1, 2]
    assert required_levels(4, 1) == [1]
    assert required_levels(6, 2) == [1, 2]
    assert required_levels(2, 1) == [1]
    with pytest.raises(TowerError):
        required_levels(3, 3)


# ---------------------------------------------------------------------------
# koszul complexes


def test_koszul_single_element():
    a = IdealSpec.make(ZZ, [2])
    k = koszul_complex(a)
    assert k.lo == -1 and k.hi == 0
    assert cohomology(k, 0).abelian_invariants() == (0, [2])
    assert cohomology(k, -1).is_zero()


def test_koszul_empty_sequence():
    a = IdealSpec.make(ZZ, [])
    k = koszul_complex(a)
    assert k.lo == 0 and k.hi == 0
    assert k.module(0).free_rank == 1


def test_koszul_rank_symmetry():
    ring = prime_poly_ring(5, ("x", "y", "z"))
    a = IdealSpec.make(ring, ["x", "y", "z"])
    k = koszul_complex(a, 2)
    n = 3
    for t in range(n + 1):
        assert k.module(-t).free_rank == k.module(-(n - t)).free_rank


def test_koszul_regular_sequence_acyclic():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    for i in (1, 2, 3):
        k = koszul_complex(a, i)
        assert cohomology(k, -1).is_zero()
        assert cohomology(k, -2).is_zero()
        assert not cohomology(k, 0).is_zero()


def _transition(a, j, i):
    return koszul_transition(a, j, i, koszul_complex(a, j), koszul_complex(a, i))


def test_koszul_transition_chain_map_and_powers():
    a = IdealSpec.make(ZZ, [2])
    tr = _transition(a, 3, 1)
    assert tr.map_at(0).matrix.entry(0, 0) == 1
    assert tr.map_at(-1).matrix.entry(0, 0) == 4  # 2^(3-1)
    # identity when j == i
    tr2 = _transition(a, 2, 2)
    assert tr2.map_at(-1).matrix.entry(0, 0) == 1


def test_koszul_transition_two_elements_degree_minus2():
    a = IdealSpec.make(ZZ, [2, 3])
    tr = _transition(a, 3, 1)
    # degree -2 is multiplication by (2*3)^(3-1) = 36
    assert tr.map_at(-2).matrix.entry(0, 0) == 36
    # chain map property verified exactly
    from proregular.complexes import ComplexMorphism
    ComplexMorphism(tr.source, tr.target, tr.maps, check=True)


def test_koszul_transition_chain_property_random_pairs():
    import random
    rng = random.Random(4)
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    from proregular.complexes import ComplexMorphism
    for _ in range(4):
        i = rng.randint(1, 3)
        j = rng.randint(i, 4)
        tr = _transition(a, j, i)
        ComplexMorphism(tr.source, tr.target, tr.maps, check=True)
        # composite of adjacent steps equals the long transition
        if j > i:
            step = _transition(a, j, j - 1)
            rest = _transition(a, j - 1, i)
            comp = rest.compose(step)
            for q in tr.source.degrees():
                assert comp.map_at(q).sub(tr.map_at(q)).is_zero_morphism()


def test_dual_koszul_shapes_and_h1():
    a = IdealSpec.make(ZZ, [2])
    tower = KoszulTower(a, 3)
    for i in (1, 2, 3):
        dk = tower.duals[i - 1]
        assert dk.lo == 0 and dk.hi == 1
        assert cohomology(dk, 1).abelian_invariants() == (0, [2 ** i])
        assert cohomology(dk, 0).is_zero()


def test_dual_koszul_ranks_xy():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    dk = KoszulTower(a, 2).duals[1]
    assert [dk.module(q).free_rank for q in dk.degrees()] == [1, 2, 1]


def test_dual_koszul_transition_commutes():
    a = IdealSpec.make(ZZ, [2])
    from proregular.complexes import ComplexMorphism
    tower = KoszulTower(a, 3)
    tr = tower.up[1].compose(tower.up[0])
    ComplexMorphism(tr.source, tr.target, tr.maps, check=True)
    # H^1: Z/2 -> Z/8 multiplication by 4, injective
    from proregular.complexes import induced_cohomology_map
    ind = induced_cohomology_map(tr, 1)
    from proregular.fpmod import kernel
    k, _ = kernel(ind)
    assert k.is_zero()


def test_h0_koszul_is_quotient_by_power_sequence():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    from proregular.fpmod import ModuleMorphism, power_sequence
    from proregular.intlinalg import Mat
    for i in (1, 2):
        k = koszul_complex(a, i)
        h0 = cohomology(k, 0)
        q = FpModule(ring, 1, [[g] for g in power_sequence(a, i).generators])
        # canonical comparison on the single generator, both directions
        cmp_ = ModuleMorphism(h0, q, Mat.from_rows([[ring.one()] * h0.ngens]),
                              check=True)
        from proregular.fpmod import kernel as ker, cokernel as cok
        assert ker(cmp_)[0].is_zero()
        assert cok(cmp_)[0].is_zero()


# ---------------------------------------------------------------------------
# weak proregularity


def test_wpr_z_single_prime():
    v = weak_proregularity_check(KoszulTower(IdealSpec.make(ZZ, [2]), 5),
                                 window=1)
    assert v.passed


def test_wpr_z_4_6_depth5():
    v = weak_proregularity_check(KoszulTower(IdealSpec.make(ZZ, [4, 6]), 5),
                                 window=1)
    assert v.passed
    certs = v.per_degree[-1].certificates
    assert certs[1] == 2 and certs[2] == 3 and certs[3] == 5


def test_wpr_qxy_regular():
    ring = rational_poly_ring(("x", "y"))
    v = weak_proregularity_check(KoszulTower(IdealSpec.make(ring, ["x", "y"]), 4))
    assert v.passed
    for p, verdict in v.per_degree.items():
        for i in range(1, 4):
            assert verdict.certificates[i] == i + 1  # already zero objects


def test_wpr_witness_ring_undetermined():
    base = rational_poly_ring(("x", "e1", "e2", "e3", "e4"))
    gens = ["e1*x", "e2*x^2", "e3*x^3", "e4*x^4"]
    gens += [f"e{i}*e{j}" for i in range(1, 5) for j in range(i, 5)]
    a4 = quotient_ring(base, gens)
    v = weak_proregularity_check(KoszulTower(IdealSpec.make(a4, ["x"]), 4),
                                 window=1)
    assert not v.passed
    p, verdict = next((p, v) for p, v in sorted(v.per_degree.items()) if not v.passed)
    assert p == -1
    assert verdict.witness_level == 1
    assert verdict.nonzero_partners == [2, 3, 4]


def test_radical_invariance_pairs():
    ring = rational_poly_ring(("x", "y"))
    first, second = radical_invariance_suite(IdealSpec.make(ring, ["x", "y"]),
                                             IdealSpec.make(ring, ["x^2", "x*y", "y^3"]),
                                             depth=4)
    assert first.passed and second.passed
    first, second = radical_invariance_suite(IdealSpec.make(ZZ, [2]),
                                             IdealSpec.make(ZZ, [4]), depth=4)
    assert first.passed and second.passed
    a = IdealSpec.make(ZZ, [6])
    first, second = radical_invariance_suite(a, a, depth=4)
    assert first.status == second.status


def test_radical_invariance_rejects_incomparable():
    ring = rational_poly_ring(("x", "y"))
    with pytest.raises(ValueError):
        radical_invariance_suite(IdealSpec.make(ring, ["x"]),
                                 IdealSpec.make(ring, ["y"]), depth=3)


# ---------------------------------------------------------------------------
# copointed idempotence


def test_copointed_z2():
    rep = copointed_idempotence_check(KoszulTower(IdealSpec.make(ZZ, [2]), 5),
                                      window=1)
    assert rep.passed


def test_copointed_qx():
    ring = rational_poly_ring(("x",))
    rep = copointed_idempotence_check(KoszulTower(IdealSpec.make(ring, ["x"]), 4),
                                      window=1)
    assert rep.passed


def test_copointed_empty_sequence():
    rep = copointed_idempotence_check(KoszulTower(IdealSpec.make(ZZ, []), 3),
                                      window=1)
    assert rep.passed


def test_copointed_h1_levelwise_bijections():
    # the counit H^1 maps are exact bijections at every level
    from proregular.complexes import (block_identity_map, cohomology as coh,
                                      induced_cohomology_map, tensor_complexes)
    from proregular.fpmod import kernel, cokernel
    a = IdealSpec.make(ZZ, [2])
    tower = KoszulTower(a, 5)
    for i in (1, 2, 3, 4, 5):
        dk = tower.duals[i - 1]
        sq = tensor_complexes(dk, dk)
        cu = block_identity_map(dk, sq)
        ind = induced_cohomology_map(cu, 1)
        assert kernel(ind)[0].is_zero()
        assert cokernel(ind)[0].is_zero()
        assert coh(sq, 1).abelian_invariants() == (0, [2 ** i])
