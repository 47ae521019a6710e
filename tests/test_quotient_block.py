"""The quotient ideal as a known Groebner block.

Over ``A/I`` every matrix service works modulo ``I * A^r``, and the block
``{g * e_k}`` over the reduced basis of ``I`` goes to the engine as
``known``.  Canonical forms are checked against the formula that appends
raw ideal-generator columns and passes no known block, span-oracle answers
and kernels modulo ``I``, and the absence of S-pair work inside the block.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from proregular import groebner
from proregular.fpmod import free_module
from proregular.groebner import (GraphBasis, TopOrder, columns_to_vectors,
                                 module_groebner, normal_form,
                                 reduced_module_groebner, vectors_to_columns)
from proregular.rings import prime_poly_ring, quotient_ring, rational_poly_ring

XYZ = ("x", "y", "z")
BASES = {"Q": rational_poly_ring(XYZ), "F5": prime_poly_ring(5, XYZ)}
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


def polys(ring, min_terms=0, max_terms=2):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.integers(-3, 3).filter(bool))
    return st.lists(term, min_size=min_terms, max_size=max_terms).map(
        lambda ts: ring.from_terms((e, ring.field.coerce(c)) for e, c in ts))


@st.composite
def quotient_modules(draw):
    """``(A/I, rank, columns)``: I has one to three generators of one to three
    terms each, mostly not a Groebner basis; one to three columns of rank one
    or two."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    ring = base.poly_ring
    gens = draw(st.lists(polys(ring, 1, 3).filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=3))
    rank = draw(st.integers(1, 2))
    cols = draw(st.lists(st.lists(polys(ring), min_size=rank, max_size=rank),
                         min_size=1, max_size=3))
    return quotient_ring(base, gens), rank, cols


def raw_ideal_columns(quot, rank):
    """The columns ``q * e_k`` for the generators ``q`` as given."""
    zero = quot.poly_ring.zero()
    return [[q if r == k else zero for r in range(rank)]
            for k in range(rank) for q in quot.ideal_generators]


def combination(ring, cols, coeffs, nrows):
    """``sum_j coeffs[j] * cols[j]`` in the polynomial ring, unreduced."""
    out = [ring.zero() for _ in range(nrows)]
    for col, c in zip(cols, coeffs):
        for r in range(nrows):
            out[r] = ring.add(out[r], ring.mul(c, col[r]))
    return out


def zero_modulo_ideal(quot, entries):
    return all(normal_form(p, quot.ideal_gb).is_zero() for p in entries)


@SETTINGS
@given(quotient_modules())
def test_canonical_columns_match_raw_ideal_columns(module):
    quot, rank, cols = module
    ring = quot.poly_ring
    vecs = [v for v in columns_to_vectors(ring, cols + raw_ideal_columns(quot, rank)) if v]
    want = vectors_to_columns(ring, reduced_module_groebner(ring, vecs, TopOrder(ring.order)),
                              rank)
    assert quot.canonical_columns(cols, rank) == want


@SETTINGS
@given(quotient_modules(), st.data())
def test_span_oracle_and_kernel_modulo_the_ideal(module, data):
    quot, rank, cols = module
    ring = quot.poly_ring
    oracle = quot.span_oracle(cols, rank)
    coeffs = data.draw(st.lists(polys(ring), min_size=len(cols), max_size=len(cols)))
    other = data.draw(st.lists(polys(ring), min_size=rank, max_size=rank))
    for target, reachable in ((combination(ring, cols, coeffs, rank), True),
                              (other, False)):
        x = oracle.solve(target)
        assert x is not None or not reachable
        assert oracle.member(target) == (x is not None)
        if x is not None:
            assert len(x) == len(cols)
            image = combination(ring, cols, x, rank)
            assert zero_modulo_ideal(quot, [ring.sub(a, b) for a, b in zip(image, target)])
    kernel = quot.kernel_of_columns(cols, rank)
    for v in kernel:
        assert len(v) == len(cols)
        assert zero_modulo_ideal(quot, combination(ring, cols, v, rank))
    # the same kernel as the graph with tailed raw ideal columns, projected
    raw = GraphBasis(ring, cols + raw_ideal_columns(quot, rank), rank).syzygy_columns()
    projected = [v[:len(cols)] for v in raw]
    assert quot.canonical_columns(kernel, len(cols)) == \
        quot.canonical_columns(projected, len(cols))


def test_free_module_canonical_form_runs_no_s_pair_reduction(monkeypatch):
    """Over A3 the canonical form of ``A3^3`` is the ideal block itself: every
    reduction is inter-reduction, none is an S-pair reduction."""
    base = rational_poly_ring(("x", "e1", "e2", "e3"))
    gens = ["e1*x", "e2*x^2", "e3*x^3"]
    gens += [f"e{i}*e{j}" for i in range(1, 4) for j in range(i, 4)]
    a3 = quotient_ring(base, gens)
    callers = []
    reduce = groebner._Reducer.reduce

    def counting(self, v, record=None):
        callers.append(sys._getframe(1).f_code.co_name)
        return reduce(self, v, record)

    monkeypatch.setattr(groebner._Reducer, "reduce", counting)
    m = free_module(a3, 3)
    assert m.relations.ncols == 3 * len(a3.ideal_gb)
    assert callers and set(callers) == {"reduced_module_groebner"}


def test_known_block_refuses_syzygies():
    ring = BASES["Q"].poly_ring
    x = ring.parse("x")
    vecs = columns_to_vectors(ring, [[x]])
    with pytest.raises(ValueError):
        module_groebner(ring, vecs, TopOrder(ring.order), want_syzygies=True,
                        known=vecs)
