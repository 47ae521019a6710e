import random
import sys

import pytest

from proregular.fpmod import (FpModule, IdealSpec, free_module, direct_sum,
                              multiplication_morphism, quotient_module)
from proregular.koszul import KoszulTower
from proregular.rings import integers, rational_poly_ring
from proregular.torsion import (StabilizationBudgetError, completion_tower,
                                derived_completion_tower, ext_torsion_tower,
                                gamma, koszul_torsion_tower, mgm_check,
                                profinite_tower)
from proregular.towers import vanishing_check
from proregular.fpmod import kernel as mod_kernel
from reference_algebra import (ext_koszul_comparison, gamma_idempotence,
                               stabilized_koszul_level_zero, submodules_equal)

ZZ = integers()


def _zmod(n, name=None):
    return FpModule(ZZ, 1, [[n]], name=name)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_z12_at_2():
    g = gamma(_zmod(12), IdealSpec.make(ZZ, [2]))
    assert g.module.abelian_invariants() == (0, [4])


def test_gamma_free_poly_is_zero():
    ring = rational_poly_ring(("x",))
    g = gamma(free_module(ring, 1), IdealSpec.make(ring, ["x"]))
    assert g.module.is_zero()


def test_gamma_poly_quotient_example():
    ring = rational_poly_ring(("x", "y"))
    m = FpModule(ring, 1, [["x^2"], ["x*y"]])
    g = gamma(m, IdealSpec.make(ring, ["x", "y"]))
    # torsion part is (x)/(x^2, xy), one-dimensional over Q
    assert not g.module.is_zero()
    cols = [list(g.inclusion.matrix.col(j))
            for j in range(g.inclusion.matrix.ncols)]
    assert submodules_equal(m, cols, [[ring.parse("x")]])


def test_gamma_idempotence_cases():
    a2 = IdealSpec.make(ZZ, [2])
    assert gamma_idempotence(_zmod(12), a2)
    assert gamma_idempotence(_zmod(8), a2)  # torsion module: gamma = M
    assert gamma_idempotence(free_module(ZZ, 2), a2)  # both zero


def test_gamma_computes_one_canonical_form_per_stage(monkeypatch):
    """Z/4 at (2) has the three-stage chain ann(2) < ann(4) = ann(8): each
    stage's canonical form is computed once, beyond the forms of the modules
    the chain builds."""
    from proregular.rings import IntegerRing
    real = IntegerRing.canonical_columns
    forms = []

    def counting(self, cols, nrows, relations=()):
        if sys._getframe(1).f_code.co_name != "__init__":
            forms.append(nrows)
        return real(self, cols, nrows, relations)

    monkeypatch.setattr(IntegerRing, "canonical_columns", counting)
    g = gamma(_zmod(4), IdealSpec.make(ZZ, [2]))
    assert g.stabilization_index == 2
    assert len(forms) == 3


def test_gamma_budget():
    with pytest.raises(StabilizationBudgetError):
        gamma(_zmod(2 ** 9), IdealSpec.make(ZZ, [2]), max_stabilization=3)


def test_gamma_stabilization_monotone():
    rng = random.Random(2)
    a2 = IdealSpec.make(ZZ, [2])
    for _ in range(8):
        k = rng.randint(0, 5)
        odd = rng.choice([1, 3, 5, 9])
        g = gamma(_zmod(odd * 2 ** k if k else odd), a2)
        assert g.stabilization_index <= max(k, 1)


# ---------------------------------------------------------------------------
# torsion towers


def test_ext_tower_z_at_2():
    sys_ = ext_torsion_tower(free_module(ZZ, 1), IdealSpec.make(ZZ, [2]), 1, 6)
    assert [o.abelian_invariants() for o in sys_.objects] == \
        [(0, [2 ** i]) for i in range(1, 7)]
    for tr in sys_.transitions:
        k, _ = mod_kernel(tr)
        assert k.is_zero()  # injective transitions


def test_ext_tower_degree0_zero_for_free_target():
    sys_ = ext_torsion_tower(free_module(ZZ, 1), IdealSpec.make(ZZ, [2]), 0, 4)
    for o in sys_.objects:
        assert o.is_zero()


def test_koszul_tower_matches_shape():
    sys_ = koszul_torsion_tower(free_module(ZZ, 1),
                                KoszulTower(IdealSpec.make(ZZ, [2]), 5), 1)
    assert [o.abelian_invariants() for o in sys_.objects] == \
        [(0, [2 ** i]) for i in range(1, 6)]


def test_koszul_tower_degree_bounds():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    m = quotient_module(a, 1)
    for p in (3, 4):
        sys_ = koszul_torsion_tower(m, KoszulTower(a, 3), p)
        assert all(o.is_zero() for o in sys_.objects)


def test_koszul_tower_level0_ann_stabilizes():
    m = _zmod(8)
    a = IdealSpec.make(ZZ, [2])
    sys_ = koszul_torsion_tower(m, KoszulTower(a, 5), 0)
    invs = [o.abelian_invariants() for o in sys_.objects]
    assert invs == [(0, [2]), (0, [4]), (0, [8]), (0, [8]), (0, [8])]


def test_stabilized_level0_equals_gamma():
    a2 = IdealSpec.make(ZZ, [2])
    for m in (_zmod(12), _zmod(8), direct_sum([_zmod(4), free_module(ZZ, 1)])[0]):
        sub, incl, idx = stabilized_koszul_level_zero(m, a2)
        g = gamma(m, a2)
        cols_a = [list(incl.matrix.col(j)) for j in range(incl.matrix.ncols)]
        cols_b = [list(g.inclusion.matrix.col(j))
                  for j in range(g.inclusion.matrix.ncols)]
        assert submodules_equal(m, cols_a, cols_b)


def test_ext_koszul_comparison_z2():
    verdict = ext_koszul_comparison(free_module(ZZ, 1),
                                    KoszulTower(IdealSpec.make(ZZ, [2]), 6),
                                    1, window=2)
    assert verdict.passed


def test_cech_terms_are_torsion():
    # every H^p(Kdual (x) M) is annihilated by an ideal power
    from proregular.complexes import tensor_complexes, module_complex, cohomology
    from proregular.fpmod import annihilated_by_elements, ideal_power
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    m = quotient_module(a, 2)
    tower = KoszulTower(a, 2)
    for i in (1, 2):
        stage = tensor_complexes(tower.duals[i - 1], module_complex(m))
        for p in (0, 1, 2):
            h = cohomology(stage, p)
            if h.is_zero():
                continue
            killed = False
            for e in range(1, 5):
                sub, incl = annihilated_by_elements(h, ideal_power(a, e).generators)
                cols = [list(incl.matrix.col(j))
                        for j in range(incl.matrix.ncols)]
                gens = [[ring.one() if t == k else ring.zero()
                         for t in range(h.ngens)] for k in range(h.ngens)]
                if submodules_equal(h, cols, gens):
                    killed = True
                    break
            assert killed, (i, p)


# ---------------------------------------------------------------------------
# completion towers


def test_completion_tower_z_at_2():
    sys_ = completion_tower(free_module(ZZ, 1), IdealSpec.make(ZZ, [2]), 3)
    assert [o.abelian_invariants() for o in sys_.objects] == \
        [(0, [2]), (0, [4]), (0, [8])]
    from proregular.fpmod import cokernel
    for tr in sys_.transitions:
        assert cokernel(tr).is_zero()  # surjective transitions


def test_completion_tower_z6_at_2_constant():
    sys_ = completion_tower(_zmod(6), IdealSpec.make(ZZ, [2]), 3)
    assert [o.abelian_invariants() for o in sys_.objects] == [(0, [2])] * 3


def test_completion_tower_qx():
    ring = rational_poly_ring(("x",))
    sys_ = completion_tower(free_module(ring, 1), IdealSpec.make(ring, ["x"]), 3)
    from proregular.reports import hilbert_samples
    assert hilbert_samples(sys_.objects[1], 3) == [1, 1, 0, 0]


def test_profinite_tower_example():
    sys_ = profinite_tower(free_module(ZZ, 1), [2, 6, 30])
    assert [o.abelian_invariants() for o in sys_.objects] == \
        [(0, [2]), (0, [6]), (0, [30])]


def test_profinite_tower_z4():
    sys_ = profinite_tower(_zmod(4), [2, 4, 8])
    assert [o.abelian_invariants() for o in sys_.objects] == \
        [(0, [2]), (0, [4]), (0, [4])]


def test_profinite_tower_rejects_bad_chain():
    with pytest.raises(ValueError):
        profinite_tower(free_module(ZZ, 1), [2, 3])
    ring = rational_poly_ring(("x",))
    with pytest.raises(ValueError):
        profinite_tower(free_module(ring, 1), [2, 4])


def test_derived_completion_tower_z():
    from proregular.complexes import ring_complex
    towers = derived_completion_tower(ring_complex(ZZ),
                                      KoszulTower(IdealSpec.make(ZZ, [2]), 4))
    assert [o.abelian_invariants() for o in towers[0].objects] == \
        [(0, [2 ** i]) for i in range(1, 5)]
    assert all(o.is_zero() for o in towers[-1].objects)


def test_derived_completion_unit_ideal_vanishes():
    from proregular.complexes import ring_complex
    towers = derived_completion_tower(ring_complex(ZZ),
                                      KoszulTower(IdealSpec.make(ZZ, [1]), 3))
    for q, sys_ in towers.items():
        assert all(o.is_zero() for o in sys_.objects), q


def test_derived_completion_rejects_non_free():
    from proregular.complexes import module_complex
    with pytest.raises(ValueError):
        derived_completion_tower(module_complex(_zmod(4)),
                                 KoszulTower(IdealSpec.make(ZZ, [2]), 3))


# ---------------------------------------------------------------------------
# the equivalence check


def test_mgm_z2_module_z():
    rep = mgm_check(free_module(ZZ, 1), KoszulTower(IdealSpec.make(ZZ, [2]), 6),
                    window=2)
    assert rep.passed


def test_mgm_z2_module_z8():
    rep = mgm_check(_zmod(8), KoszulTower(IdealSpec.make(ZZ, [2]), 6), window=2)
    assert rep.passed


def test_mgm_zero_module():
    from proregular.fpmod import zero_module
    rep = mgm_check(zero_module(ZZ), KoszulTower(IdealSpec.make(ZZ, [2]), 4),
                    window=1)
    assert rep.passed
