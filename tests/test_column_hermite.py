"""The Z backend's column-list Hermite path against the ``Mat`` path it
replaced (``tests/reference_algebra.py``): the same H and V, kernel
columns, solutions, canonical forms and membership, on small integer
matrices with zero rows, zero columns and no columns at all."""

import pytest
from hypothesis import given, settings, strategies as st

from proregular import fpmod, rings
from proregular.intlinalg import Mat, column_hermite, hermite_kernel, mat_from_cols
from reference_algebra import (canonical_column_form, column_style_hermite,
                               kernel_basis, mat_hnf_solver, solve_columns)

ZZ = rings.integers()
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
ENTRY = st.integers(-15, 15)


def _lists(cols):
    return [list(c) for c in cols]


@st.composite
def column_lists(draw, nrows, max_cols=5):
    """0..max_cols columns of length ``nrows``, some rows and columns zeroed."""
    cols = draw(st.lists(st.lists(ENTRY, min_size=nrows, max_size=nrows),
                         max_size=max_cols))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1))) if nrows else set()
    zero_cols = draw(st.sets(st.integers(0, len(cols) - 1))) if cols else set()
    return [[0 if i in zero_rows or j in zero_cols else x for i, x in enumerate(c)]
            for j, c in enumerate(cols)]


@st.composite
def span_questions(draw):
    """``(nrows, cols, relations, target)``; half the targets are integer
    combinations of the columns and relations, so they have solutions."""
    nrows = draw(st.integers(0, 5))
    cols = draw(column_lists(nrows))
    relations = draw(column_lists(nrows, max_cols=3))
    spanning = cols + relations
    if spanning and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(spanning),
                               max_size=len(spanning)))
        target = [sum(k * c[i] for k, c in zip(coeffs, spanning)) for i in range(nrows)]
    else:
        target = draw(st.lists(ENTRY, min_size=nrows, max_size=nrows))
    return nrows, cols, relations, target


@SETTINGS
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), column_lists(n))))
def test_column_hermite_matches_mat_path(case):
    nrows, cols = case
    m = mat_from_cols([tuple(c) for c in cols], nrows)
    h_ref, v_ref = column_style_hermite(m)
    h, v = column_hermite(cols, nrows)
    assert h == _lists(h_ref.cols())
    assert v == _lists(v_ref.cols())
    assert hermite_kernel(h, v) == _lists(kernel_basis(m).cols())


@SETTINGS
@given(span_questions())
def test_span_oracle_matches_mat_path(question):
    nrows, cols, relations, target = question
    m = mat_from_cols([tuple(c) for c in cols + relations], nrows)
    x = solve_columns(m, mat_from_cols([tuple(target)], nrows))
    oracle = ZZ.span_oracle(cols, nrows, relations)
    assert oracle.solve(target) == (None if x is None else list(x.col(0))[:len(cols)])
    syz = [list(c)[:len(cols)] for c in kernel_basis(m).cols()]
    assert oracle.syzygy_columns() == syz
    canon = _lists(canonical_column_form(mat_from_cols([tuple(c) for c in syz],
                                                       len(cols))).cols()) if syz else []
    assert oracle.canonical_syzygies() == canon


@SETTINGS
@given(span_questions())
def test_canonical_columns_and_member_match_mat_path(question):
    nrows, cols, relations, target = question
    spanning = cols + relations
    form = ZZ.canonical_columns(cols, nrows, relations)
    ref = _lists(canonical_column_form(
        mat_from_cols([tuple(c) for c in spanning], nrows)).cols()) if spanning else []
    assert form == ref
    member = mat_hnf_solver(mat_from_cols([tuple(c) for c in ref], nrows))(target)
    assert ZZ.canonical_member(form, nrows)(target) == (member is not None)


def test_span_oracle_refuses_a_column_of_the_wrong_length():
    oracle = ZZ.span_oracle([[1, 2]], 2)
    for bad in ([1], [1, 2, 3]):
        with pytest.raises(ValueError):
            oracle.solve(bad)
    with pytest.raises(ValueError):
        ZZ.span_oracle([[1, 2], [3]], 2).syzygy_columns()


def test_factor_through_and_canonical_syzygies_run_one_form_per_oracle(monkeypatch):
    calls = []
    oracles = []

    def counting(cols, nrows):
        calls.append([list(c) for c in cols])
        return column_hermite(cols, nrows)

    def keeping(self, cols, nrows, relations=()):
        oracles.append(rings._ZSpanOracle(cols, nrows, relations))
        return oracles[-1]

    monkeypatch.setattr(rings, "column_hermite", counting)
    monkeypatch.setattr(rings.IntegerRing, "span_oracle", keeping)
    target = fpmod.FpModule(ZZ, 2, [[6, 0]])
    calls.clear()
    gens = Mat.from_rows([[2, 0, 4], [0, 3, 6]])
    want = Mat.from_rows([[2, 4, 0], [3, 0, 6]])
    coords = fpmod.factor_through(gens, target, want, "not in the span")
    for j in range(want.ncols):
        image = [sum(g * x for g, x in zip(row, coords.col(j))) for row in gens.rows]
        assert target.contains([w - y for w, y in zip(want.col(j), image)])
    (oracle,) = oracles
    spanned = [[2, 0], [0, 3], [4, 6], [6, 0]]
    assert calls == [spanned]
    assert oracle.canonical_syzygies()
    # the one other form is the canonical form of the syzygies themselves
    assert calls == [spanned, oracle.syzygy_columns()]
