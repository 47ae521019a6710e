"""Element arithmetic of the backends.

``RationalField`` keeps an integral rational as an ``int`` and any other as
a lowest-terms ``Fraction``: every operation must agree in value with plain
``Fraction`` arithmetic, return an ``int`` exactly when the value is
integral, and print as the ``Fraction`` of the same value would.  Every
ring backend refuses a negative power.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from proregular.fieldlinalg import RationalField
from proregular.rings import integers, rational_poly_ring
from test_quotient_block import witness_ring

Q = RationalField()
RATIONALS = st.one_of(st.integers(-60, 60),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(RATIONALS, RATIONALS)
def test_rational_field_agrees_with_fraction_arithmetic(x, y):
    a, b = Q.coerce(x), Q.coerce(y)
    fx, fy = Fraction(x), Fraction(y)
    results = {"coerce": (a, fx), "add": (Q.add(a, b), fx + fy),
               "sub": (Q.sub(a, b), fx - fy), "mul": (Q.mul(a, b), fx * fy),
               "neg": (Q.neg(a), -fx)}
    if fy:
        results["inv"] = (Q.inv(b), 1 / fy)
    for name, (got, want) in results.items():
        assert got == want, name
        assert isinstance(got, int) == (want.denominator == 1), name
        assert Q.to_str(got) == str(want), name
    assert Q.is_zero(a) == (fx == 0)


@SETTINGS
@given(st.integers(-10**6, 10**6))
def test_integral_rationals_print_alike(n):
    assert Q.to_str(n) == Q.to_str(Fraction(n))
    assert Q.coerce(Fraction(n)) == n and isinstance(Q.coerce(Fraction(n)), int)


def test_units_of_the_integers_invert_to_ints():
    assert [Q.inv(u) for u in (1, -1)] == [1, -1]
    assert all(isinstance(Q.inv(u), int) for u in (1, -1, Fraction(1, 3), Fraction(-1, 7)))
    assert Q.inv(Fraction(-1, 7)) == -7
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


@pytest.mark.parametrize("ring, text", [(integers(), "2"),
                                        (rational_poly_ring(("x", "y")), "x + y"),
                                        (witness_ring(3), "x + e1")],
                         ids=["Z", "Q[x,y]", "A3"])
def test_pow_refuses_a_negative_exponent(ring, text):
    a = ring.parse(text)
    assert ring.pow(a, 0) == ring.one()
    assert ring.pow(a, 2) == ring.mul(a, a)
    with pytest.raises(ValueError, match="negative power"):
        ring.pow(a, -1)
