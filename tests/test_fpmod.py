import itertools
import random

import pytest

from proregular.fpmod import (FpModule, IdealSpec, ModuleError, ModuleMorphism,
                              annihilated_by_elements, cokernel, direct_sum,
                              free_module, ideal_power, identity_morphism,
                              kernel, minimized, multiplication_morphism,
                              power_sequence, quotient_module, tensor_module,
                              zero_module, zero_morphism)
from proregular.intlinalg import Mat
from proregular.rings import (integers, prime_poly_ring, quotient_ring,
                              rational_poly_ring)
from reference_algebra import hom_module, submodules_equal

ZZ = integers()


def zmod(n):
    return FpModule(ZZ, 1, [[n]], name=f"Z/{n}")


# ---------------------------------------------------------------------------
# ideals


def test_ideal_power_and_power_sequence_poly():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    p2 = ideal_power(a, 2)
    assert [str(g) for g in p2.generators] == ["x^2", "x*y", "y^2"]
    s2 = power_sequence(a, 2)
    assert [str(g) for g in s2.generators] == ["x^2", "y^2"]


def test_ideal_power_single_generator():
    a = IdealSpec.make(ZZ, [2])
    assert ideal_power(a, 3).generators == (8,)
    assert power_sequence(a, 3).generators == (8,)


def _ideal_power_by_all_products(a, i):
    """Every one of the n^i ordered products, deduplicated by equality in the ring."""
    ring = a.ring
    out = []
    for idx in itertools.product(range(len(a.generators)), repeat=i):
        p = ring.one()
        for k in idx:
            p = ring.mul(p, a.generators[k])
        if not ring.is_zero(p) and not any(ring.is_zero(ring.sub(p, q)) for q in out):
            out.append(p)
    return tuple(ring.generator_sort(out))


def _random_poly(rng, ring, nvars):
    text = "0"
    for _ in range(rng.randint(1, 3)):
        mono = "*".join(f"{v}^{rng.randint(0, 2)}" for v in ring.variables[:nvars])
        text += f" {rng.choice('+-')} {rng.randint(1, 2)}*{mono}"
    return text


def test_ideal_power_matches_all_products():
    rng = random.Random(7)
    base = rational_poly_ring(("x", "y", "z"))
    rings = [base, prime_poly_ring(5, ("x", "y", "z")),
             quotient_ring(base, ["x*y", "z^2 - x"])]
    cases = [IdealSpec.make(ZZ, [2, 3, 6, 4]), IdealSpec.make(ZZ, [-2, 2, 5])]
    for ring in rings:
        # equal supports with different coefficients tie in generator_sort
        cases.append(IdealSpec.make(ring, ["x + y", "2*x + 2*y", "x - y", "z"]))
        for _ in range(4):
            cases.append(IdealSpec.make(
                ring, [_random_poly(rng, ring, 3) for _ in range(rng.randint(1, 3))]))
    for a in cases:
        for i in range(1, 5):
            assert ideal_power(a, i).generators == _ideal_power_by_all_products(a, i), (a, i)


def test_ideal_power_counts_multisets():
    ring = rational_poly_ring(("x", "y", "z"))
    # 91 = C(14, 2) monomials of degree 12; the n^i products would be 531,441
    assert len(ideal_power(IdealSpec.make(ring, ["x", "y", "z"]), 12)) == 91


def test_ideal_power_4_6():
    a = IdealSpec.make(ZZ, [4, 6])
    p2 = ideal_power(a, 2)
    assert p2.generators == (16, 24, 36)
    # 4 = gcd(16,24,36) generates the same ideal: 4 must lie in it
    oracle = ZZ.span_oracle([[g] for g in p2.generators], 1)
    assert oracle.solve([4]) is not None


def test_zero_generators_dropped():
    a = IdealSpec.make(ZZ, [2, 0, 3])
    assert a.generators == (2, 3)
    assert a.dropped_zero


def test_ideal_power_rejects_bad_exponent():
    a = IdealSpec.make(ZZ, [2])
    with pytest.raises(ModuleError):
        ideal_power(a, 0)


def test_power_containments():
    ring = rational_poly_ring(("x", "y"))
    a = IdealSpec.make(ring, ["x", "y"])
    for i, j in [(1, 1), (1, 2), (2, 2)]:
        big = ideal_power(a, i + j)
        prod_oracle = ring.span_oracle(
            [[ring.mul(p, q)] for p in ideal_power(a, i).generators
             for q in ideal_power(a, j).generators], 1)
        for g in big.generators:
            assert prod_oracle.solve([g]) is not None
    # elementwise powers of ideal_power(a, n*i) reduce into power_sequence span
    n = len(a.generators)
    for i in (1, 2):
        seq_oracle = ring.span_oracle(
            [[g] for g in power_sequence(a, i).generators], 1)
        for g in ideal_power(a, n * i).generators:
            assert seq_oracle.solve([g]) is not None


# ---------------------------------------------------------------------------
# modules over Z


def test_is_zero_examples():
    assert FpModule(ZZ, 1, [[1]]).is_zero()
    assert not zmod(6).is_zero()
    assert zero_module(ZZ).is_zero()


def test_kernel_cokernel_mult_by_two():
    z = free_module(ZZ, 1)
    phi = multiplication_morphism(z, 2)
    k, _ = kernel(phi)
    assert k.is_zero()
    c = cokernel(phi)
    assert c.abelian_invariants() == (0, [2])
    assert c.ngens == phi.target.ngens  # presented on the target's generators


def test_kernel_cokernel_identity():
    m = zmod(12)
    k, _ = kernel(identity_morphism(m))
    c = cokernel(identity_morphism(m))
    assert k.is_zero() and c.is_zero()


def test_image_kernel_exactness_random():
    rng = random.Random(31)
    for _ in range(25):
        g_s, g_t = rng.randint(1, 3), rng.randint(1, 3)
        src = FpModule(ZZ, g_s, [[rng.randint(0, 12) for _ in range(g_s)]
                                 for _ in range(rng.randint(0, 2))])
        # build a random well-defined morphism by multiplying a free cover map
        tgt = FpModule(ZZ, g_t, [[rng.randint(0, 12) for _ in range(g_t)]
                                 for _ in range(rng.randint(0, 2))])
        # morphism given by arbitrary matrix times annihilator-safe scalar:
        # use matrix of multiples of exponent of target torsion to be safe;
        # simplest guaranteed-well-defined: zero and identity-ish maps
        mat = Mat.from_rows([[rng.choice([0, 1, 2]) for _ in range(g_s)]
                             for _ in range(g_t)])
        try:
            phi = ModuleMorphism(src, tgt, mat, check=True)
        except ModuleError:
            continue
        # the projection onto the cokernel is the identity on generators
        proj = ModuleMorphism(tgt, cokernel(phi), identity_morphism(tgt).matrix)
        _, k_incl = kernel(proj)
        # image(phi) == kernel(target -> coker) as submodules of target; the
        # image is spanned by the images of the source generators
        cols_img = [list(phi.matrix.col(j)) for j in range(phi.matrix.ncols)]
        cols_ker = [list(k_incl.matrix.col(j)) for j in range(k_incl.matrix.ncols)]
        assert submodules_equal(tgt, cols_img, cols_ker)


def test_hom_examples():
    h, gens = hom_module(zmod(4), zmod(6))
    assert h.abelian_invariants() == (0, [2])
    for g in gens:
        assert g.source.ngens == 1 and g.target.ngens == 1
    h2, _ = hom_module(free_module(ZZ, 1), zmod(6))
    assert h2.abelian_invariants() == (0, [6])


def test_tensor_examples():
    t = tensor_module(zmod(4), zmod(6))
    small, _, _ = minimized(t)
    assert small.abelian_invariants() == (0, [2])
    m = zmod(5)
    t2 = tensor_module(free_module(ZZ, 1), m)
    assert t2.abelian_invariants() == (0, [5])


def test_tensor_hom_adjunction_counts():
    rng = random.Random(8)
    mods = [zmod(2), zmod(4), zmod(6), zmod(9),
            FpModule(ZZ, 2, [[2, 0], [0, 4]])]
    for _ in range(6):
        m, n, p = rng.choice(mods), rng.choice(mods), rng.choice(mods)
        left, _ = hom_module(tensor_module(m, n), p)
        inner, _ = hom_module(n, p)
        right, _ = hom_module(m, inner)
        assert left.abelian_invariants() == right.abelian_invariants()


def test_quotient_module_examples():
    a = IdealSpec.make(ZZ, [2])
    q = quotient_module(a, 3)
    assert q.abelian_invariants() == (0, [8])
    ring = rational_poly_ring(("x", "y"))
    axy = IdealSpec.make(ring, ["x", "y"])
    q2 = quotient_module(axy, 2)
    assert q2.ngens == 1
    assert q2.relations.ncols == 3  # x^2, x*y, y^2


def test_annihilator_example():
    m = zmod(12)
    a = IdealSpec.make(ZZ, [2])
    s, incl = annihilated_by_elements(m, ideal_power(a, 2).generators)
    assert s.abelian_invariants() == (0, [4])
    # generated by 3 inside Z/12
    col = list(incl.matrix.col(0))
    assert col[0] % 3 == 0 and col[0] % 12 != 0


def test_annihilator_trivial_cases():
    ring = rational_poly_ring(("x",))
    ax = IdealSpec.make(ring, ["x"])
    s, _ = annihilated_by_elements(free_module(ring, 1), ideal_power(ax, 1).generators)
    assert s.is_zero()
    s2, _ = annihilated_by_elements(zero_module(ZZ),
                                    ideal_power(IdealSpec.make(ZZ, [3]), 1).generators)
    assert s2.is_zero()


def test_minimized_isomorphism_maps():
    m = FpModule(ZZ, 3, [[1, 2, 0], [0, 5, 3]])
    small, to_s, from_s = minimized(m)
    assert to_s.compose(from_s).sub(identity_morphism(small)).is_zero_morphism()
    assert from_s.compose(to_s).sub(identity_morphism(m)).is_zero_morphism()


def test_direct_sum_maps():
    m, n = zmod(2), zmod(3)
    s, incls, projs = direct_sum([m, n])
    assert s.abelian_invariants() == (0, [6])
    assert projs[0].compose(incls[0]).sub(identity_morphism(m)).is_zero_morphism()
    assert projs[1].compose(incls[0]).is_zero_morphism()


def test_morphism_well_defined_rejects():
    with pytest.raises(ModuleError):
        ModuleMorphism(zmod(4), free_module(ZZ, 1), Mat.from_rows([[1]]))


# ---------------------------------------------------------------------------
# polynomial and quotient backends


def test_kernel_cokernel_mult_x_on_qx_mod_x2():
    ring = rational_poly_ring(("x",))
    x = ring.parse("x")
    m = FpModule(ring, 1, [[ring.pow(x, 2)]])
    phi = multiplication_morphism(m, x)
    k, _ = kernel(phi)
    c = cokernel(phi)
    # kernel = (x)/(x^2), a 1-dim Q-space; cokernel = A/(x)
    assert k.ngens == 1 and not k.is_zero()
    assert c.ngens == 1 and not c.is_zero()
    xk = multiplication_morphism(k, x)
    assert xk.is_zero_morphism()
    xc = multiplication_morphism(c, x)
    assert xc.is_zero_morphism()


def test_is_zero_unit_relation_poly():
    ring = rational_poly_ring(("x", "y"))
    m = FpModule(ring, 2, [["x", "1"], ["1", "0"]])
    # second relation kills e_1; first then kills e_2 via x*e_1 + e_2 = 0
    assert m.is_zero()


def test_quotient_backend_arithmetic():
    base = rational_poly_ring(("x", "e1"))
    q = quotient_ring(base, ["e1*x", "e1^2"])
    e1x = q.parse("e1*x")
    assert q.is_zero(e1x)
    m = free_module(q, 1)
    phi = multiplication_morphism(m, q.parse("x"))
    k, incl = kernel(phi)
    # ann(x) in A/(e1 x, e1^2) is generated by e1
    assert not k.is_zero()
    cols = [list(incl.matrix.col(j)) for j in range(incl.matrix.ncols)]
    assert submodules_equal(m, cols, [[q.parse("e1")]])


def test_fp_backend_module():
    ring = prime_poly_ring(5, ("x", "y", "z"))
    a = IdealSpec.make(ring, ["x", "y", "z"])
    q = quotient_module(a, 1)
    assert not q.is_zero()
    assert q.relations.ncols == 3
