"""Buchberger's chain criterion in the Groebner layer.

Pruned bases are checked by Buchberger's S-pair test, against the unpruned
``want_syzygies=True`` path, through ``GraphBasis`` answers and, in rank 1,
against sympy's reduced Groebner bases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from proregular.fieldlinalg import PrimeField, RationalField
from proregular.groebner import (GraphBasis, TopOrder, _Reducer,
                                 columns_to_vectors, groebner_basis,
                                 module_groebner, reduced_module_groebner,
                                 vec_add, vec_lead, vec_neg, vec_scale_term)
from proregular.poly import PolyRing, mono_div, mono_divides, mono_lcm
from proregular.rings import rational_poly_ring

RINGS = {"Q": PolyRing(RationalField(), ("x", "y", "z")),
         "F5": PolyRing(PrimeField(5), ("x", "y", "z"))}
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def s_vector(field, order, f, g):
    lf, lg = vec_lead(order, f), vec_lead(order, g)
    l = mono_lcm(lf[1], lg[1])
    a = vec_scale_term(field, f, mono_div(l, lf[1]), field.inv(f[lf]))
    b = vec_scale_term(field, g, mono_div(l, lg[1]), field.inv(g[lg]))
    return vec_add(field, a, vec_neg(field, b))


def assert_groebner_basis_of(ring, order, basis, generators):
    """Every generator and every S-vector of ``basis`` reduces to zero."""
    leads = [vec_lead(order, v) for v in basis]
    reducer = _Reducer(ring, order, basis, leads)
    for v in generators:
        assert not reducer.reduce(v)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if leads[i][0] == leads[j][0]:
                assert not reducer.reduce(s_vector(ring.field, order, basis[i], basis[j]))


def assert_reduced(ring, order, basis):
    """Monic leads, and no term divisible by another element's lead."""
    leads = [vec_lead(order, v) for v in basis]
    for idx, v in enumerate(basis):
        assert ring.field.is_zero(ring.field.sub(v[leads[idx]], ring.field.one()))
        for t, (pos, exp) in enumerate(leads):
            if t != idx:
                assert not any(p == pos and mono_divides(exp, e) for p, e in v)


def matvec(ring, cols, coeffs, nrows):
    out = [ring.zero() for _ in range(nrows)]
    for col, c in zip(cols, coeffs):
        for r in range(nrows):
            out[r] = ring.add(out[r], ring.mul(c, col[r]))
    return out


# four columns of a rank-two module over Q[x,y,z]
RANK_TWO_MODULE = [["3*x*y^2*z^2 - 2*x*z^2", "x^2*y^2*z + 3*x^2*z"],
                   ["2*x*y^2", "-2*x*y^2*z^2 + x*y^2"],
                   ["2*x^2*y^2 + 3*x", "3*x^2*y*z^2 + x*z"],
                   ["2*y^2*z^2 + 3*x^2*z", "-x^2*y"]]


def test_canonical_form_of_rank_two_module_over_q():
    """A canonical form that ran for more than 20 s without pair pruning."""
    R = rational_poly_ring(("x", "y", "z"))
    cols = [[R.parse(t) for t in col] for col in RANK_TWO_MODULE]
    out = R.canonical_columns(cols, 2)
    assert len(out) == 26
    ring, order = R.poly_ring, TopOrder(R.order)
    basis = columns_to_vectors(ring, out)
    assert_groebner_basis_of(ring, order, basis, columns_to_vectors(ring, cols))
    assert_reduced(ring, order, basis)


def polys(ring):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.integers(-3, 3).filter(bool))
    return st.lists(term, max_size=2).map(
        lambda ts: ring.from_terms((e, ring.field.coerce(c)) for e, c in ts))


@st.composite
def modules(draw, ranks=(1, 3)):
    """``(ring, rank, columns)``: one to three columns of a small free module
    over Q[x,y,z] or F5[x,y,z]."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    rank = draw(st.integers(*ranks))
    cols = draw(st.lists(st.lists(polys(ring), min_size=rank, max_size=rank),
                         min_size=1, max_size=3))
    return ring, rank, cols


@SETTINGS
@given(modules())
def test_pruned_basis_matches_unpruned(module):
    ring, _, cols = module
    order = TopOrder(ring.order)
    vecs = [v for v in columns_to_vectors(ring, cols) if v]
    pruned, _ = module_groebner(ring, vecs, order)
    assert_groebner_basis_of(ring, order, pruned, vecs)
    unpruned, _ = module_groebner(ring, vecs, order, want_syzygies=True)
    reduced = reduced_module_groebner(ring, vecs, order)
    assert reduced == reduced_module_groebner(ring, unpruned, order)
    assert_reduced(ring, order, reduced)


@SETTINGS
@given(modules(), st.data())
def test_graph_basis_solutions_and_syzygies(module, data):
    ring, rank, cols = module
    graph = GraphBasis(ring, cols, rank)
    coeffs = data.draw(st.lists(polys(ring), min_size=len(cols), max_size=len(cols)))
    reachable = matvec(ring, cols, coeffs, rank)
    x = graph.solve(reachable)
    assert x is not None and matvec(ring, cols, x, rank) == reachable
    other = data.draw(st.lists(polys(ring), min_size=rank, max_size=rank))
    x = graph.solve(other)
    if x is not None:
        assert matvec(ring, cols, x, rank) == other
    for u in graph.syzygy_columns():
        assert matvec(ring, cols, u, rank) == [ring.zero()] * rank


@SETTINGS
@given(modules(ranks=(1, 1)))
def test_rank_one_bases_match_sympy(module):
    sympy = pytest.importorskip("sympy")
    ring, _, cols = module
    gens = [col[0] for col in cols if not col[0].is_zero()]
    if not gens:
        return
    symbols = sympy.symbols(ring.variables)
    opts = {"modulus": ring.field.p} if isinstance(ring.field, PrimeField) else {"domain": "QQ"}

    def canon(texts):
        return sorted(str(sympy.Poly(sympy.sympify(t.replace("^", "**")), *symbols,
                                     **opts).as_expr()) for t in texts)

    want = canon(str(g.as_expr()) for g in
                 sympy.groebner([str(g).replace("^", "**") for g in gens],
                                *symbols, order="grevlex", **opts).polys)
    order = TopOrder(ring.order)
    module_gb = reduced_module_groebner(ring, columns_to_vectors(ring, [[g] for g in gens]),
                                        order)
    module_polys = [ring.from_terms((e, c) for (_, e), c in v.items()) for v in module_gb]
    assert canon(map(str, module_polys)) == want
    assert canon(map(str, groebner_basis(gens))) == want
