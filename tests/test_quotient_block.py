"""The quotient ideal as a known Groebner block.

Over ``A/I`` every matrix service works modulo ``I * A^r``, and the block
``{g * e_k}`` over the reduced basis of ``I`` goes to the engine as
``known``, once: stored block columns enter span oracles as zero columns,
and a bare block is its own canonical form.  Canonical forms are checked
against the formula that appends raw ideal-generator columns and passes no
known block, span-oracle answers and kernels modulo ``I`` (with and without
block columns among the inputs), and the absence of S-pair work inside the
block.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from proregular import groebner
from proregular.fpmod import FpModule, _relations_among, free_module
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
        assert FpModule(quot, rank, cols).contains(target) == (x is not None)
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


def witness_ring(n):
    """``A_n = Q[x, e_1..e_n]/(e_i x^i, e_i e_j)``."""
    base = rational_poly_ring(("x",) + tuple(f"e{i}" for i in range(1, n + 1)))
    gens = [f"e{i}*x^{i}" for i in range(1, n + 1)]
    gens += [f"e{i}*e{j}" for i in range(1, n + 1) for j in range(i, n + 1)]
    return quotient_ring(base, gens)


S16 = quotient_ring(BASES["F5"], ["x*y - z^2"])  # the ring of s16_f5_cone


def block_columns(quot, rank):
    """The columns ``g * e_k`` for ``g`` in the reduced basis of ``I``."""
    zero = quot.poly_ring.zero()
    return [[g if r == k else zero for r in range(rank)]
            for k in range(rank) for g in quot.ideal_gb.polys]


def count_reductions(monkeypatch):
    """Record the calling function of every ``_Reducer.reduce`` from now on."""
    callers = []
    reduce = groebner._Reducer.reduce

    def counting(self, v, record=None):
        callers.append(sys._getframe(1).f_code.co_name)
        return reduce(self, v, record)

    monkeypatch.setattr(groebner._Reducer, "reduce", counting)
    return callers


def test_free_module_canonical_form_runs_no_s_pair_reduction(monkeypatch):
    """Over A3 the canonical form of ``A3^3`` is the ideal block as it
    stands: building it runs no reduction at all."""
    a3 = witness_ring(3)
    ring = a3.poly_ring
    vecs = columns_to_vectors(ring, block_columns(a3, 3))
    want = vectors_to_columns(ring, reduced_module_groebner(ring, vecs, TopOrder(ring.order)), 3)
    callers = count_reductions(monkeypatch)
    m = free_module(a3, 3)
    assert callers == []
    assert [list(m.relations.col(j)) for j in range(m.relations.ncols)] == want
    assert m.relations.ncols == 3 * len(a3.ideal_gb)


def test_free_module_relation_oracle_reduces_no_s_pair(monkeypatch):
    """Every stored relation of ``A3^2`` is a block column, so each enters a
    span oracle over the relations as a zero column: no S-pair is formed, the
    syzygies are the unit vectors, and a block column is solved with all
    coordinates 0."""
    a3 = witness_ring(3)
    m = free_module(a3, 2)
    callers = count_reductions(monkeypatch)
    oracle = a3.span_oracle(m.relations.cols(), 2)
    assert "module_groebner" not in callers
    n = m.relations.ncols
    one, zero = a3.one(), a3.zero()
    units = {tuple(one if t == j else zero for t in range(n)) for j in range(n)}
    syz = oracle.syzygy_columns()
    assert len(syz) == n and set(map(tuple, syz)) == units
    assert oracle.solve(list(m.relations.col(0))) == [zero] * n
    assert oracle.solve([one, zero]) is None


def test_module_entries_are_normalized_once(monkeypatch):
    """``FpModule`` puts each relation entry over ``A/I`` through one normal
    form (its ``coerce``), and tests zero columns with no normal form: the
    column of ``e3*x^3`` and 0 is zero in ``A3^2`` and is dropped before the
    canonical form, which takes the two others as they normalize."""
    a3 = witness_ring(3)
    cols = [["x^2*e1 + e2", "e1*e2"], ["e3*x^3", "0"], ["x", "e1^2 + x*e3"]]
    callers = count_reductions(monkeypatch)
    m = FpModule(a3, 2, cols)
    assert callers.count("normal_form") == 6
    assert m.relations.cols() == \
        FpModule(a3, 2, [["e2", "0"], ["x", "x*e3"]]).relations.cols()


def test_bare_block_is_its_own_reduced_basis():
    """With no nonzero column the canonical form is the block, in the order
    and with the coefficients that the reduced-basis computation gives."""
    for quot in (witness_ring(2), quotient_ring(BASES["F5"], ["x^2 - y*z", "x*y + 2*z^3"])):
        ring = quot.poly_ring
        for rank in (1, 2, 3):
            vecs = columns_to_vectors(ring, block_columns(quot, rank))
            want = vectors_to_columns(
                ring, reduced_module_groebner(ring, vecs, TopOrder(ring.order)), rank)
            zero_col = [ring.zero()] * rank
            assert quot.canonical_columns([], rank) == want
            assert quot.canonical_columns([zero_col], rank) == want


@SETTINGS
@given(quotient_modules(), st.data())
def test_span_oracle_with_block_columns(module, data):
    """Relation columns that contain block columns: the canonical relations
    of the module and some raw block columns, after a few generators.  The
    generators include block columns with their zero entries filled, which
    lie outside ``I * A^r`` although one entry is in ``ideal_gb``."""
    quot, rank, cols = module
    ring = quot.poly_ring
    rels = quot.canonical_columns(cols, rank)
    block = block_columns(quot, rank)
    picked = data.draw(st.lists(st.sampled_from(block), min_size=1, max_size=3))
    gens = data.draw(st.lists(st.lists(polys(ring), min_size=rank, max_size=rank),
                              min_size=0, max_size=2))
    filled = [[p if p.terms else data.draw(polys(ring, 1, 2)) for p in c]
              for c in data.draw(st.lists(st.sampled_from(block), max_size=2))]
    mixed = gens + filled + picked + rels
    is_block = [c in block for c in mixed]
    oracle = quot.span_oracle(mixed, rank)
    coeffs = data.draw(st.lists(polys(ring), min_size=len(mixed), max_size=len(mixed)))
    other = data.draw(st.lists(polys(ring), min_size=rank, max_size=rank))
    for target, reachable in ((combination(ring, mixed, coeffs, rank), True),
                              (other, False)):
        x = oracle.solve(target)
        assert x is not None or not reachable
        assert FpModule(quot, rank, mixed).contains(target) == (x is not None)
        if x is not None:
            assert len(x) == len(mixed)
            assert all(p.is_zero() for p, b in zip(x, is_block) if b)
            image = combination(ring, mixed, x, rank)
            assert zero_modulo_ideal(quot, [ring.sub(a, b) for a, b in zip(image, target)])
    kernel = quot.kernel_of_columns(mixed, rank)
    for v in kernel:
        assert len(v) == len(mixed)
        assert zero_modulo_ideal(quot, combination(ring, mixed, v, rank))
    # the same kernel as the graph with every column tailed, raw ideal
    # columns appended and no known block, projected
    raw = GraphBasis(ring, mixed + raw_ideal_columns(quot, rank), rank).syzygy_columns()
    projected = [v[:len(mixed)] for v in raw]
    assert quot.canonical_columns(kernel, len(mixed)) == \
        quot.canonical_columns(projected, len(mixed))


def test_known_block_refuses_syzygies():
    ring = BASES["Q"].poly_ring
    x = ring.parse("x")
    vecs = columns_to_vectors(ring, [[x]])
    with pytest.raises(ValueError):
        module_groebner(ring, vecs, TopOrder(ring.order), want_syzygies=True,
                        known=vecs)


def test_kernel_coordinates_are_not_normal_forms():
    """``kernel_of_columns`` works in the polynomial ring and leaves its
    coordinates unreduced modulo ``I``: a syzygy can have terms and still be
    zero in ``A/I``, such as ``-e3^2`` for the column ``x^2`` over A3 and
    ``x*y - z^2`` for the column ``1`` over s16's ring.  So a zero test on
    kernel coordinates over ``A/I`` needs a normal form."""
    for quot, col, syzygy in ((witness_ring(3), "x^2", "-e3^2"), (S16, "1", "x*y - z^2")):
        ring = quot.poly_ring
        zero_in_quotient = [ring.parse(syzygy)]
        assert zero_in_quotient in quot.kernel_of_columns([[quot.parse(col)]], 1)
        assert zero_in_quotient[0].terms and zero_modulo_ideal(quot, zero_in_quotient)


@SETTINGS
@given(st.sampled_from(["A3", "s16"]), st.data())
def test_relations_among_drops_exactly_the_heads_zero_modulo_the_ideal(name, data):
    """Over A3 and s16's ring, on columns in normal form: every head that
    ``_relations_among`` keeps is a relation and nonzero in ``A/I``, and
    the kept heads span what all kernel heads span."""
    quot = witness_ring(3) if name == "A3" else S16
    ring = quot.poly_ring
    rank = data.draw(st.integers(1, 2))
    cols = [[quot.normalize(p) for p in c] for c in data.draw(
        st.lists(st.lists(polys(ring), min_size=rank, max_size=rank),
                 min_size=1, max_size=3))]
    kept = _relations_among(quot, cols, free_module(quot, rank))
    for h in kept:
        assert not zero_modulo_ideal(quot, h)
        assert zero_modulo_ideal(quot, combination(ring, cols, h, rank))
    heads = [v[:len(cols)] for v in quot.kernel_of_columns(cols, rank)]
    assert quot.canonical_columns(kept, len(cols)) == \
        quot.canonical_columns(heads, len(cols))
