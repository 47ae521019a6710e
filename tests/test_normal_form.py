"""Ideal normal forms, the rank-1 case of the module engine, against sympy."""

import pytest
from hypothesis import given, settings, strategies as st

from proregular.fieldlinalg import PrimeField, RationalField
from proregular.groebner import groebner_basis, normal_form
from proregular.poly import PolyRing

RINGS = {"Q": PolyRing(RationalField(), ("x", "y", "z")),
         "F5": PolyRing(PrimeField(5), ("x", "y", "z"))}
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def polys(ring, max_terms):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.integers(-3, 3).filter(bool))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: ring.from_terms((e, ring.field.coerce(c)) for e, c in ts))


@st.composite
def ideal_and_poly(draw):
    """``(ring, generators, f)``: one to three nonzero generators of at most
    two terms and a polynomial of at most five terms."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    gens = draw(st.lists(polys(ring, 2).filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=3))
    return ring, gens, draw(polys(ring, 5))


@SETTINGS
@given(ideal_and_poly())
def test_normal_form_matches_sympy_remainder(case):
    sympy = pytest.importorskip("sympy")
    ring, gens, f = case
    symbols = sympy.symbols(ring.variables)
    opts = {"modulus": ring.field.p} if isinstance(ring.field, PrimeField) else {"domain": "QQ"}

    def expr(p):
        return sympy.sympify(str(p).replace("^", "**"))

    basis = sympy.groebner([expr(g) for g in gens], *symbols, order="grevlex", **opts)
    _, remainder = sympy.reduced(expr(f), list(basis.exprs), *symbols,
                                 order="grevlex", **opts)
    got = normal_form(f, groebner_basis(gens))
    assert sympy.Poly(expr(got), *symbols, **opts) == sympy.Poly(remainder, *symbols, **opts)


def test_normal_form_rejects_ring_with_other_order():
    grevlex = PolyRing(RationalField(), ("x", "y"))
    lex = PolyRing(RationalField(), ("x", "y"), "lex")
    gb = groebner_basis([grevlex.parse("x^2 - y")])
    with pytest.raises(ValueError):
        normal_form(lex.parse("x^2 + y^3"), gb)
