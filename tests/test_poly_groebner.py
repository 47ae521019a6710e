import random
from fractions import Fraction

import pytest

from proregular.fieldlinalg import PrimeField, RationalField
from proregular.groebner import (GraphBasis, TopOrder, groebner_basis,
                                 normal_form, reduced_module_groebner,
                                 columns_to_vectors)
from proregular.intlinalg import Mat
from proregular.poly import MonomialOrder, PolyRing
from reference_algebra import _reduce_poly, _spoly, rank


@pytest.fixture
def qxy():
    return PolyRing(RationalField(), ("x", "y"))


def test_field_matrix_examples():
    f5 = PrimeField(5)
    m = Mat.from_rows([[1, 2], [2, 4]])
    assert rank(f5, m) == 1
    assert rank(RationalField(), Mat.identity(3)) == 3
    assert rank(RationalField(), Mat.from_rows([[0, 0], [0, 0]])) == 0


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(4)


def test_grevlex_order():
    o = MonomialOrder("grevlex")
    # x > y, x^2 > xy > y^2
    assert o.key((1, 0)) > o.key((0, 1))
    assert o.key((2, 0)) > o.key((1, 1)) > o.key((0, 2))
    assert o.key((0, 3)) > o.key((2, 0))  # degree first


def test_poly_str_roundtrip(qxy):
    p = qxy.parse("3*x^2*y - 1/2*y + 7")
    assert str(p) == "3*x^2*y - 1/2*y + 7"
    assert qxy.parse(str(p)) == p
    assert str(qxy.parse("x - x")) == "0"
    assert str(qxy.parse("-x + 2")) == "-x + 2"
    assert qxy.parse("x*x*x") == qxy.parse("x^3")


def test_poly_arith(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    assert (x + y) * (x - y) == qxy.parse("x^2 - y^2")
    assert qxy.pow(x + y, 2) == qxy.parse("x^2 + 2*x*y + y^2")


def test_groebner_single_generator(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    gb = groebner_basis([x])
    assert list(gb) == [x]


def test_groebner_x2_xy(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    gb = groebner_basis([x * x, x * y])
    assert {str(g) for g in gb} == {"x^2", "x*y"}


def test_groebner_linear_forms(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    gb = groebner_basis([x + y, x - y])
    assert sorted(str(g) for g in gb) == ["x", "y"]


def test_normal_form_examples(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    gb = groebner_basis([x * x, x * y])
    assert normal_form(qxy.parse("x^2"), groebner_basis([x])).is_zero()
    assert normal_form(qxy.parse("x^2*y + y"), gb) == y
    assert normal_form(qxy.parse("y^3"), gb) == qxy.parse("y^3")
    # idempotence
    nf = normal_form(qxy.parse("x^3 + x*y^2 + y"), gb)
    assert normal_form(nf, gb) == nf


def test_groebner_spolys_reduce_to_zero_random():
    rng = random.Random(42)
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    mons = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    for _ in range(15):
        gens = []
        for _g in range(rng.randint(1, 3)):
            terms = [(rng.choice(mons), Fraction(rng.randint(-3, 3)))
                     for _ in range(rng.randint(1, 3))]
            p = ring.from_terms(terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        gb = groebner_basis(gens)
        polys = list(gb)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                s = _spoly(gb.ring, polys[i], polys[j])
                assert _reduce_poly(gb.ring, s, polys).is_zero()
        # membership of original generators
        for g in gens:
            assert normal_form(g, gb).is_zero()


def test_normal_form_confluence_random_insertion_order():
    rng = random.Random(7)
    ring = PolyRing(RationalField(), ("x", "y"))
    x, y = ring.parse("x"), ring.parse("y")
    gens = [x ** 2 + y, x * y - y, y ** 3]
    gb = groebner_basis(gens)
    f = ring.parse("x^5 + x^2*y^2 - 3*y + 1")
    reference = normal_form(f, gb)
    for _ in range(5):
        shuffled = list(gb.polys)
        rng.shuffle(shuffled)
        assert _reduce_poly(gb.ring, f, shuffled) == reference


def test_groebner_over_f5():
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.parse("x"), ring.parse("y")
    gb = groebner_basis([x * x + y, y * y + x])
    for g in gb:
        assert normal_form(g, gb).is_zero()
    assert normal_form(ring.mul(x * x + y, y), gb).is_zero()


def test_groebner_mixed_rings_error(qxy):
    other = PolyRing(RationalField(), ("x", "z"))
    with pytest.raises(ValueError):
        groebner_basis([qxy.parse("x"), other.parse("x")])


def test_syzygies_koszul_relation(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    syz = GraphBasis(qxy, [[x], [y]], 1).syzygy_columns()
    assert len(syz) == 1
    u = syz[0]
    got = qxy.add(qxy.mul(u[0], x), qxy.mul(u[1], y))
    assert got.is_zero()
    assert {str(p) for p in u} in ({"y", "-x"}, {"-y", "x"})


def test_syzygies_unit_column(qxy):
    one = qxy.one()
    assert GraphBasis(qxy, [[one]], 1).syzygy_columns() == []


def test_syzygies_multiply_back_to_zero_random():
    rng = random.Random(12)
    ring = PolyRing(RationalField(), ("x", "y"))
    mons = [(i, j) for i in range(3) for j in range(3)]
    for _ in range(10):
        nrows = rng.randint(1, 2)
        ncols = rng.randint(1, 3)
        cols = []
        for _c in range(ncols):
            col = []
            for _r in range(nrows):
                terms = [(rng.choice(mons), Fraction(rng.randint(-2, 2)))
                         for _ in range(rng.randint(0, 2))]
                col.append(ring.from_terms(terms))
            cols.append(col)
        for u in GraphBasis(ring, cols, nrows).syzygy_columns():
            for r in range(nrows):
                acc = ring.zero()
                for j in range(ncols):
                    acc = ring.add(acc, ring.mul(u[j], cols[j][r]))
                assert acc.is_zero()


def test_graph_basis_solve(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    gb = GraphBasis(qxy, [[x], [y]], 1)
    sol = gb.solve([qxy.parse("x^2 + x*y")])
    assert sol is not None
    got = qxy.add(qxy.mul(sol[0], x), qxy.mul(sol[1], y))
    assert got == qxy.parse("x^2 + x*y")
    assert gb.solve([qxy.one()]) is None


def test_reduced_module_groebner_canonical(qxy):
    x, y = qxy.parse("x"), qxy.parse("y")
    cols = [[x * x, y], [x * x * y, y * y]]
    vecs = columns_to_vectors(qxy, cols)
    order = TopOrder(qxy.order)
    gb1 = reduced_module_groebner(qxy, vecs, order)
    gb2 = reduced_module_groebner(qxy, list(reversed(vecs)), order)
    assert gb1 == gb2
