import random
from math import gcd

import pytest

from proregular.fpmod import FpModule, free_module
from proregular.rings import integers
from proregular.zmodclass import (Summand, ZModClass, default_injective_test_set,
                                  injective_torsion_acyclicity_test,
                                  rationals_mod_integers, summand_cyclic,
                                  summand_pruefer, summand_Q,
                                  weak_stability_check, zmod_ext1, zmod_gamma,
                                  zmod_localization_map_cokernel)
from reference_algebra import ext_module, order

ZZ = integers()


def test_summand_validation():
    with pytest.raises(ValueError):
        summand_cyclic(4, 1)
    with pytest.raises(ValueError):
        summand_pruefer(6)
    with pytest.raises(ValueError):
        Summand("ZinvS")


def test_injectivity_flag():
    assert ZModClass([summand_Q(), summand_pruefer(3)]).is_injective()
    assert not ZModClass([Summand("Z")]).is_injective()
    assert not ZModClass([summand_cyclic(2, 3)]).is_injective()
    assert ZModClass().is_injective()


def test_gamma_examples():
    qz = rationals_mod_integers(13)
    g2 = zmod_gamma(2, qz)
    assert str(g2) == "Z(2^oo)"
    assert zmod_gamma(3, ZModClass([summand_Q()])).is_zero()
    mixed = ZModClass([summand_Q(), summand_pruefer(3)])
    assert str(zmod_gamma(3, mixed)) == "Z(3^oo)"
    assert zmod_gamma(2, ZModClass([Summand("Z"), Summand("ZinvS", primes=(3,))])).is_zero()


def test_ext_examples():
    assert zmod_ext1(8, ZModClass([Summand("Z")])) == \
        ZModClass([summand_cyclic(2, 3)])
    assert zmod_ext1(8, ZModClass([summand_pruefer(2)])).is_zero()
    assert zmod_ext1(8, ZModClass([summand_Q()])).is_zero()
    assert zmod_ext1(12, ZModClass([Summand("ZinvS", primes=(2,))])) == \
        ZModClass([summand_cyclic(3, 1)])


def test_localization_examples():
    # cokernel of Z -> Z[1/2] is the 2-power Pruefer module
    assert zmod_localization_map_cokernel(2, ZModClass([Summand("Z")])) == \
        ZModClass([summand_pruefer(2)])


# closed forms vs presentation computations on truncated models


def test_ext_closed_forms_match_brute_force():
    for n in range(1, 65):
        zn = FpModule(ZZ, 1, [[n]])
        e = ext_module(zn, free_module(ZZ, 1), 1)
        expect = zmod_ext1(n, ZModClass([Summand("Z")]))
        size = 1
        for s in expect.summands:
            size *= s.p ** s.k
        assert order(e) == size == n
        for p, k in ((2, 2), (3, 1), (5, 2)):
            e2 = ext_module(zn, FpModule(ZZ, 1, [[p ** k]]), 1)
            expect2 = zmod_ext1(n, ZModClass([summand_cyclic(p, k)]))
            size2 = 1
            for s in expect2.summands:
                size2 *= s.p ** s.k
            assert order(e2) == size2, (n, p, k)


def test_ext_inverted_primes_matches_stage_colimit():
    # Ext1(Z/n, Z[1/S]) = colim of Ext1(Z/n, Z) along multiplication by s
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 64)
        s_primes = tuple(sorted(rng.sample([2, 3, 5, 7], rng.randint(1, 2))))
        expect = zmod_ext1(n, ZModClass([Summand("ZinvS", primes=s_primes)]))
        size = 1
        for s in expect.summands:
            size *= s.p ** s.k
        # stage colimit: image of multiplication by (prod s)^big on Z/n
        s_val = 1
        for q in s_primes:
            s_val *= q
        img = n // gcd(n, s_val ** 12)
        assert size == img


# the stability checks


def test_weak_stability_pass_for_default_set():
    for p in (2, 3, 5):
        rep = weak_stability_check(p, depth=6)
        assert rep.passed


def test_weak_stability_rejects_non_injective():
    with pytest.raises(ValueError):
        weak_stability_check(2, test_set=[ZModClass([Summand("Z")])])


def test_thm45_battery():
    for p in (2, 3, 5):
        rep = injective_torsion_acyclicity_test(p)
        assert rep.passed
        # degree-0 parts recompute the torsion submodule
        for key, data in rep.per_module.items():
            assert "h0" in data and data["ok"]


def test_thm45_h0_values():
    rep = injective_torsion_acyclicity_test(2)
    per = list(rep.per_module.values())
    # Q/Z: torsion part is Z(2^oo); Q: zero
    assert per[0]["h0"] == "0"
    assert per[1]["h0"] == "Z(2^oo)"
    assert per[2]["h0"] == "Z(2^oo)"
