import random
from functools import partial

import pytest

from proregular import rings
from proregular.intlinalg import Mat, column_hermite, mat_from_cols, smith_normal_form
from reference_algebra import (canonical_column_form, det, hermite_normal_form,
                               kernel_basis, minors_gcd, solve_columns)

ZZ = rings.integers()
matmul = partial(rings.ring_matmul, ZZ)


def test_snf_basic_example():
    m = Mat.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(m)
    assert snf.diagonal() == [2, 4]
    assert matmul(matmul(snf.u, m), snf.v).rows == snf.d.rows


def test_snf_identity_and_zero():
    for n in (1, 2, 4):
        snf = smith_normal_form(Mat.identity(n))
        assert snf.diagonal() == [1] * n
    snf = smith_normal_form(rings.ring_zero_mat(ZZ, 2, 3))
    assert snf.diagonal() == [0, 0]


def test_snf_divisibility_and_unimodularity_random():
    rng = random.Random(1234)
    for _ in range(200):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-15, 15) for _ in range(nc)] for _ in range(nr)])
        snf = smith_normal_form(m)
        assert det(snf.u) in (1, -1)
        assert det(snf.v) in (1, -1)
        assert matmul(matmul(snf.u, m), snf.v).rows == snf.d.rows
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # zeros trailing
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


def test_snf_minor_gcd_oracle():
    rng = random.Random(77)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = Mat.from_rows([[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)])
        diag = smith_normal_form(m).diagonal()
        prod = 1
        for k in range(1, min(nr, nc) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == minors_gcd(m, k)


def test_hnf_examples():
    h, u = hermite_normal_form(Mat.from_rows([[2], [3]]))
    assert h.rows == ((1,), (0,))
    assert matmul(u, Mat.from_rows([[2], [3]])).rows == h.rows

    ident = Mat.identity(3)
    h, _ = hermite_normal_form(ident)
    assert h.rows == ident.rows

    m = Mat.from_rows([[4, 0], [0, 6]])
    h, _ = hermite_normal_form(m)
    assert h.rows == m.rows


def test_hnf_shape_properties_random():
    rng = random.Random(5)
    for _ in range(80):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        h, u = hermite_normal_form(m)
        assert det(u) in (1, -1)
        assert matmul(u, m).rows == h.rows
        pivots = []
        for i in range(nr):
            row = h.rows[i]
            j = next((j for j, x in enumerate(row) if x), None)
            if j is None:
                assert all(not any(h.rows[k]) for k in range(i, nr))
                break
            assert h.entry(i, j) > 0
            for k in range(i):
                assert 0 <= h.entry(k, j) < h.entry(i, j)
            pivots.append(j)
        assert pivots == sorted(pivots)


def test_kernel_examples():
    k = kernel_basis(Mat.from_rows([[2, -1]]))
    assert k.cols() == [(1, 2)]
    assert kernel_basis(Mat.from_rows([[2, 0], [0, 3]])).ncols == 0
    k = kernel_basis(rings.ring_zero_mat(ZZ, 1, 2))
    assert k.ncols == 2


def test_kernel_random_saturated():
    rng = random.Random(9)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-8, 8) for _ in range(nc)] for _ in range(nr)])
        k = kernel_basis(m)
        for j in range(k.ncols):
            v = k.col(j)
            assert all(sum(m.entry(i, t) * v[t] for t in range(nc)) == 0 for i in range(nr))
        # rank-nullity over Q
        from proregular.fieldlinalg import RationalField
        from reference_algebra import rank
        assert rank(RationalField(), m) + k.ncols == nc


def test_solve_and_membership():
    m = Mat.from_rows([[2, 0], [0, 3]])
    x = solve_columns(m, mat_from_cols([(4, 9)], 2))
    assert x.col(0) == (2, 3)
    assert solve_columns(m, mat_from_cols([(1, 0)], 2)) is None
    assert solve_columns(m, mat_from_cols([(2, 3)], 2)) is not None
    assert solve_columns(m, mat_from_cols([(1, 1)], 2)) is None


def test_canonical_column_form_idempotent():
    m = Mat.from_rows([[2, 4, 6], [0, 2, 2]])
    c1 = canonical_column_form(m)
    c2 = canonical_column_form(c1)
    assert c1.rows == c2.rows


def test_det():
    assert det(Mat.from_rows([[2, 0], [0, 3]])) == 6
    assert det(Mat.from_rows([[0, 1], [1, 0]])) == -1
    assert det(Mat.identity(0)) == 1
    with pytest.raises(ValueError):
        det(rings.ring_zero_mat(ZZ, 2, 3))


def test_integer_canonical_form_of_no_columns_runs_no_hermite_form(monkeypatch):
    calls = []

    def counting(cols, nrows):
        calls.append(cols)
        return column_hermite(cols, nrows)

    monkeypatch.setattr(rings, "column_hermite", counting)
    z = rings.integers()
    assert z.canonical_columns([], 3) == []
    assert calls == []
    assert z.canonical_columns([[0, 4, 0], [0, 6, 0]], 3) == [[0, 2, 0]]
    assert len(calls) == 1
