import random
from fractions import Fraction

import pytest

from proregular.complexes import cohomology
from proregular.fpmod import (FpModule, IdealSpec, free_module, minimized,
                              quotient_module)
from proregular.resolutions import (BudgetExceededError, free_resolution,
                                    lift_through_resolution)
from proregular.rings import (integers, quotient_ring, rational_poly_ring)
from reference_algebra import ext_module

ZZ = integers()


def test_resolution_z_mod6():
    m = FpModule(ZZ, 1, [[6]])
    res = free_resolution(m)
    assert res.length == 1
    assert res.ranks() == [1, 1]
    d = res.complex.diff(-1)
    assert abs(d.matrix.entry(0, 0)) == 6


def test_resolution_free_module_length_zero():
    res = free_resolution(free_module(ZZ, 3))
    assert res.length == 0
    assert res.ranks() == [3]


def test_resolution_koszul_shape_xy():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    m = quotient_module(a, 1)
    res = free_resolution(m)
    assert res.length == 2
    assert res.ranks() == [1, 2, 1]
    # composite of consecutive differentials vanishes
    comp = res.complex.diff(-1).compose(res.complex.diff(-2))
    assert comp.is_zero_morphism()


def test_resolution_exactness_by_syzygy_recheck():
    ring = rational_poly_ring(("x", "y"))
    m = FpModule(ring, 2, [["x", "y"], ["y^2", "0"]])
    res = free_resolution(m)
    for q in range(-res.length + 1, 0):
        assert cohomology(res.complex, q).is_zero(), q


def test_resolution_lengths_random_monomial_quotients():
    rng = random.Random(101)
    for nvars in (2, 3):
        varnames = tuple("xyz"[:nvars])
        ring = rational_poly_ring(varnames)
        for _ in range(25):
            gens = []
            for _g in range(rng.randint(1, 3 + nvars - 2)):
                exp = tuple(rng.randint(0, 3) for _ in range(nvars))
                if any(exp):
                    gens.append(ring.poly_ring.monomial(exp))
            if not gens:
                continue
            m = FpModule(ring, 1, [[g] for g in gens])
            res = free_resolution(m)
            assert res.length <= nvars, (varnames, [str(g) for g in gens])
            for q in range(-res.length + 1, 0):
                assert cohomology(res.complex, q).is_zero()


@pytest.mark.parametrize("varnames,gens", [
    # redundant syzygy leads once made this resolve in length 4
    (("x", "y", "z"), [["x*y^3*z^2"], ["x^3*y^2"], ["x^3*y*z"], ["x^2*y^2*z"]]),
    # ... and this one in length 5
    (("x", "y", "z", "w"),
     [["x^3*y*z"], ["x*y*z*w"], ["y^3*z*w^2"], ["x^2*z*w^3"], ["x^2*y^2"]]),
    # rank two, ranks [2, 8, 9, 3]: its exactness check once took 26 s,
    # minimizing every kernel it built
    (("x", "y", "z", "w"),
     [["w^2", "2*x^2*y^2*z*w^2 - y^2"], ["0", "2*y^2*z^2"],
      ["-2*x^2*z*w - 2*x^2*w", "-x*z*w - 2*x*y"]]),
])
def test_resolution_length_within_hilbert_bound(varnames, gens):
    """``gens`` are the relation columns of the module; the rank is their
    length."""
    ring = rational_poly_ring(varnames)
    m = FpModule(ring, len(gens[0]), gens)
    res = free_resolution(m)
    assert res.length <= len(varnames)
    for q in range(-res.length, 0):
        assert cohomology(res.complex, q).is_zero(), q


def test_resolution_rejects_syzygy_step_that_grows_basis(monkeypatch):
    import proregular.resolutions as resolutions
    real = resolutions.module_groebner

    def growing(ring, vectors, order, **kw):
        basis, syz = real(ring, vectors, order, **kw)
        return basis + [dict(basis[0])], syz

    monkeypatch.setattr(resolutions, "module_groebner", growing)
    ring = rational_poly_ring(("x", "y"))
    m = quotient_module(IdealSpec.make(ring, ["x", "y"]), 1)
    with pytest.raises(RuntimeError, match="not a Groebner basis"):
        free_resolution(m)


def test_resolution_budget_on_quotient_backend():
    base = rational_poly_ring(("x",))
    q = quotient_ring(base, ["x^2"])
    m = FpModule(q, 1, [["x"]])  # infinite periodic resolution
    with pytest.raises(BudgetExceededError):
        free_resolution(m, max_length=5)
    res = free_resolution(m, truncate_at=3)
    assert res.truncated
    assert res.length == 3


def test_ext_examples_over_z():
    for i in (1, 2, 3):
        m = FpModule(ZZ, 1, [[2 ** i]])
        e1 = ext_module(m, free_module(ZZ, 1), 1)
        assert e1.abelian_invariants() == (0, [2 ** i])
        e0 = ext_module(m, free_module(ZZ, 1), 0)
        assert e0.is_zero()


def test_ext0_of_ring_is_target():
    n = FpModule(ZZ, 1, [[6]])
    e0 = ext_module(free_module(ZZ, 1), n, 0)
    assert e0.abelian_invariants() == (0, [6])


def test_ext2_koszul_self_duality():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    m = quotient_module(a, 1)
    e2 = ext_module(m, free_module(ring, 1), 2)
    small, _, _ = minimized(e2)
    # Ext^2(A/(x,y), A) is again A/(x,y): 1 generator killed by x and y
    assert small.ngens == 1
    assert not small.is_zero()
    from proregular.fpmod import multiplication_morphism
    assert multiplication_morphism(small, ring.parse("x")).is_zero_morphism()
    assert multiplication_morphism(small, ring.parse("y")).is_zero_morphism()
    e1 = ext_module(m, free_module(ring, 1), 1)
    assert e1.is_zero()


def test_ext_independent_of_resolution_z():
    rng = random.Random(55)
    for _ in range(10):
        n_val = rng.randint(2, 30)
        m = FpModule(ZZ, 1, [[n_val]])
        target = FpModule(ZZ, 1, [[rng.randint(2, 30)]])
        direct = ext_module(m, target, 1)
        # non-minimal presentation of the same module
        m2 = FpModule(ZZ, 2, [[n_val, 0], [1, 1]])
        other = ext_module(m2, target, 1)
        assert direct.abelian_invariants() == other.abelian_invariants()


def test_ext_independent_of_resolution_poly_hilbert():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    m = quotient_module(a, 2)
    # non-minimal presentation: duplicate generator with a unit relation
    gens = [g for g in __import__("proregular.fpmod", fromlist=["ideal_power"])
            .ideal_power(a, 2).generators]
    m2 = FpModule(ring, 2, [[g, ring.zero()] for g in gens] +
                  [[ring.one(), ring.neg(ring.one())]])
    from proregular.reports import hilbert_samples
    for p in (0, 1, 2):
        e_min = ext_module(m, free_module(ring, 1), p)
        e_big = ext_module(m2, free_module(ring, 1), p)
        assert hilbert_samples(e_min) == hilbert_samples(e_big), p


def test_lift_through_resolution_commutes():
    m_big = FpModule(ZZ, 1, [[8]])
    m_small = FpModule(ZZ, 1, [[4]])
    from proregular.fpmod import ModuleMorphism
    from proregular.intlinalg import Mat
    proj = ModuleMorphism(m_big, m_small, Mat.from_rows([[1]]))
    res_big = free_resolution(m_big)
    res_small = free_resolution(m_small)
    lifted = lift_through_resolution(proj, res_big, res_small)
    # square with augmentations commutes
    left = proj.compose(res_big.augmentation)
    right = res_small.augmentation.compose(lifted.map_at(0))
    assert left.sub(right).is_zero_morphism()
    # chain map property
    l2 = lifted.map_at(0).compose(res_big.complex.diff(-1))
    r2 = res_small.complex.diff(-1).compose(lifted.map_at(-1))
    assert l2.sub(r2).is_zero_morphism()
