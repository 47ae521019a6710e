"""Membership as a zero remainder against a module's canonical relations.

Every ``FpModule`` stores its relations canonically, so ``contains`` asks
``ring.canonical_member`` -- back-substitution through the stored HNF over
Z, a remainder against the stored reduced basis over polynomials -- and
``submodules_equal`` compares canonical forms.  These answers are checked
against exact solving by span oracles, ``minimized`` against the
composition of whole morphisms (``reference_algebra``), and the membership
and unit tests are counted: they form no S-pair, build no graph basis and
run no normal form on canonical entries.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from proregular import groebner
from proregular.fpmod import (FpModule, ModuleMorphism, minimized,
                              multiplication_morphism)
from proregular.groebner import TopOrder, columns_to_vectors, vec_lead
from proregular.rings import integers, quotient_ring, rational_poly_ring
from reference_algebra import minimized_by_composition, submodules_equal
from test_quotient_block import (S16, count_reductions, polys, quotient_modules,
                                 witness_ring)

ZZ = integers()
QXY = rational_poly_ring(("x", "y"))
A3 = witness_ring(3)
RINGS = {"Z": ZZ, "Q[x,y]": QXY, "A3": A3, "s16": S16}
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def elements(ring):
    """Small elements: integers in [-6, 6]; or polynomials of up to two terms
    with exponents up to 2, and often a constant, so that units occur."""
    if ring is ZZ:
        return st.integers(-6, 6)
    return st.one_of(st.integers(-2, 2), polys(ring.poly_ring)).map(ring.coerce)


@st.composite
def modules(draw, ring, max_rank=3, max_cols=4):
    """``(rank, columns)`` over ``ring``."""
    rank = draw(st.integers(1, max_rank))
    cols = draw(st.lists(st.lists(elements(ring), min_size=rank, max_size=rank),
                         min_size=0, max_size=max_cols))
    return rank, cols


def combination(ring, cols, coeffs, nrows):
    out = [ring.zero()] * nrows
    for col, c in zip(cols, coeffs):
        out = [ring.add(o, ring.mul(c, x)) for o, x in zip(out, col)]
    return out


def in_span(ring, cols, nrows, target):
    return ring.span_oracle(cols, nrows).solve(target) is not None


@SETTINGS
@given(st.sampled_from(["Z", "Q[x,y]"]), st.data())
def test_contains_agrees_with_solve_over_z_and_qxy(name, data):
    ring = RINGS[name]
    rank, cols = data.draw(modules(ring))
    m = FpModule(ring, rank, cols)
    coeffs = data.draw(st.lists(elements(ring), min_size=len(cols), max_size=len(cols)))
    other = data.draw(st.lists(elements(ring), min_size=rank, max_size=rank))
    reachable = combination(ring, cols, coeffs, rank)
    assert m.contains(reachable)
    for target in (reachable, other):
        assert m.contains(target) == in_span(ring, cols, rank, target)


@SETTINGS
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_submodules_equal_agrees_with_two_way_solve(name, data):
    """Drawn column pairs, with ``b`` often a recombination of ``a``."""
    ring = RINGS[name]
    rank, rels = data.draw(modules(ring, max_rank=2, max_cols=2))
    parent = FpModule(ring, rank, rels)
    rel = parent.relations.cols()
    _, cols_a = data.draw(modules(ring, max_rank=rank, max_cols=3).filter(
        lambda m: m[0] == rank))
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(elements(ring), min_size=len(cols_a),
                                    max_size=len(cols_a)))
        cols_b = cols_a[::-1] + [combination(ring, cols_a, coeffs, rank)]
    else:
        _, cols_b = data.draw(modules(ring, max_rank=rank, max_cols=3).filter(
            lambda m: m[0] == rank))
    both_ways = all(in_span(ring, cols_b + rel, rank, c) for c in cols_a) and \
        all(in_span(ring, cols_a + rel, rank, c) for c in cols_b)
    assert submodules_equal(parent, cols_a, cols_b) == both_ways


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_minimized_matches_composed_morphisms(name, data):
    """Row operations give the relations and both matrices that composing
    whole morphisms gives, on 60 drawn modules over each of the rings."""
    ring = RINGS[name]
    rank, cols = data.draw(modules(ring))
    m = FpModule(ring, rank, cols)
    small, to_small, from_small = minimized(m)
    ref_small, ref_to, ref_from = minimized_by_composition(m)
    assert small.relations == ref_small.relations
    assert to_small.matrix == ref_to.matrix
    assert from_small.matrix == ref_from.matrix


@SETTINGS
@example((quotient_ring(QXY, ["x^2 + y"]), 1, [["y"]]))
@given(st.one_of(quotient_modules(),
                 st.sampled_from([A3, S16]).flatmap(
                     lambda q: modules(q).map(lambda m: (q, m[0], m[1])))))
def test_canonical_entries_answer_is_unit_as_their_normal_forms(module):
    """Every entry of a canonical module's relations over ``A/I`` is an
    element of ``ideal_gb``, or its own normal form, or the lead entry of its
    column with the lead monomial of an element of ``ideal_gb`` (such as
    ``x^2`` for the relation ``y`` over ``Q[x,y]/(x^2 + y)``).  In the last
    two cases it is a unit exactly when its normal form is, so the unit scan
    of ``minimized`` needs no normal form."""
    quot, rank, cols = module
    ring = quot.poly_ring
    order = TopOrder(ring.order)
    ideal_leads = {g.lead_exp() for g in quot.ideal_gb.polys}
    for col in FpModule(quot, rank, cols).relations.cols():
        lead_pos, lead_exp = vec_lead(order, columns_to_vectors(ring, [col])[0])
        for pos, a in enumerate(col):
            if a in quot._ideal_polys:
                continue
            nf = quot.normalize(a)
            assert a == nf or (pos == lead_pos and a.lead_exp() == lead_exp
                               and lead_exp in ideal_leads)
            assert ring.is_unit(a) == ring.is_unit(nf)


def test_unit_scan_runs_no_normal_form(monkeypatch):
    """``minimized`` over A3 on relations with no unit: the scan meets
    entries that are not block elements, and runs no reduction at all."""
    m = FpModule(A3, 2, [["x", "e1"], ["e2", "x^2"], ["e3", "x*e3"]])
    assert any(a.terms and a not in A3._ideal_polys for col in m.relations.cols() for a in col)
    callers = count_reductions(monkeypatch)
    small, _, _ = minimized(m)
    assert small is m
    assert callers == []


def test_membership_forms_no_s_pair_and_builds_no_graph(monkeypatch):
    """``is_zero``, ``is_zero_morphism`` and a checked ``ModuleMorphism``
    over A3 and over Q[x,y,z] call ``module_groebner`` zero times and build
    no ``GraphBasis``."""
    qxyz = rational_poly_ring(("x", "y", "z"))
    cases = []
    for ring, cols, scalar in ((A3, [["x", "e1"], ["e2", "x^2"]], "x"),
                               (qxyz, [["x^2", "0"], ["x*y", "y*z^2"]], "y")):
        m = FpModule(ring, 2, cols)
        cases.append((m, multiplication_morphism(m, scalar)))
    calls = []
    module_groebner = groebner.module_groebner
    graph_init = groebner.GraphBasis.__init__

    def counting_groebner(*args, **kwargs):
        calls.append("module_groebner")
        return module_groebner(*args, **kwargs)

    def counting_graph(self, *args, **kwargs):
        calls.append("GraphBasis")
        graph_init(self, *args, **kwargs)

    monkeypatch.setattr(groebner, "module_groebner", counting_groebner)
    monkeypatch.setattr(groebner.GraphBasis, "__init__", counting_graph)
    for m, phi in cases:
        assert not m.is_zero()
        assert not phi.is_zero_morphism()
        checked = ModuleMorphism(m, m, phi.matrix)
        assert checked.matrix == phi.matrix
    assert calls == []
