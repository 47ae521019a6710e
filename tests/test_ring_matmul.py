"""Sparse ``ring_matmul`` against a dense triple loop, and its operation counts.

The sparse product must give the same entries as the textbook loop over
every ``(i, j, k)`` on Z, Q[x,y], F5[x,y,z] and a quotient ring, while it
multiplies only pairs of nonzero entries and never normalizes a zero.
"""

import pytest
from hypothesis import given, settings, strategies as st

from proregular.intlinalg import Mat
from proregular.rings import (RingError, integers, prime_poly_ring,
                              quotient_ring, rational_poly_ring, ring_matmul)

QXY = rational_poly_ring(("x", "y"))
RINGS = {
    "Z": (integers(), ["1", "-1", "2", "-3", "6"]),
    "Q[x,y]": (QXY, ["1", "-1", "x", "-x", "y", "x - y", "1/2*x*y + 1"]),
    "F5[x,y,z]": (prime_poly_ring(5, ("x", "y", "z")),
                  ["1", "4", "x", "4*x", "y*z", "x + z^2"]),
    "Q[x,y]/(x^2,xy)": (quotient_ring(QXY, ["x^2", "x*y"]),
                        ["1", "-1", "x", "-x", "y", "x + y", "y^2 - 1"]),
}
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def dense_product(ring, a: Mat, b: Mat) -> Mat:
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = ring.zero()
            for k in range(a.ncols):
                acc = ring.add(acc, ring.mul(a.entry(i, k), b.entry(k, j)))
            row.append(acc)
        rows.append(tuple(row))
    return Mat(a.nrows, b.ncols, tuple(rows))


def mat(ring, rows, nrows=None, ncols=None):
    rows = tuple(tuple(ring.parse(str(e)) for e in row) for row in rows)
    nrows = len(rows) if nrows is None else nrows
    ncols = (len(rows[0]) if rows else 0) if ncols is None else ncols
    return Mat(nrows, ncols, rows)


def structurally_zero(e) -> bool:
    return e == 0 if isinstance(e, int) else not e.terms


@st.composite
def products(draw):
    name = draw(st.sampled_from(sorted(RINGS)))
    ring, texts = RINGS[name]
    # zero is drawn about half the time, so zero rows, zero columns and
    # cancelling sums all come up
    entry = st.one_of(st.just("0"), st.sampled_from(texts))
    m, n, p = (draw(st.integers(0, 4)) for _ in range(3))
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [[draw(entry) for _ in range(p)] for _ in range(n)]
    return ring, mat(ring, a, m, n), mat(ring, b, n, p)


@SETTINGS
@given(products())
def test_sparse_product_matches_dense(case):
    ring, a, b = case
    assert ring_matmul(ring, a, b) == dense_product(ring, a, b)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_empty_shapes(name):
    ring, _ = RINGS[name]
    a = mat(ring, [[1, 2, 0]] * 2)
    for left, right, shape in ((mat(ring, [], 0, 2), a, (0, 3)),
                               (a, mat(ring, [[]] * 3, 3, 0), (2, 0)),
                               (mat(ring, [[]] * 2, 2, 0), mat(ring, [], 0, 3),
                                (2, 3))):
        out = ring_matmul(ring, left, right)
        assert (out.nrows, out.ncols) == shape
        assert out == dense_product(ring, left, right)
        assert all(structurally_zero(e) for row in out.rows for e in row)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_zero_rows_and_columns(name):
    ring, t = RINGS[name]
    a = mat(ring, [[t[0], t[1], t[2]], [0, 0, 0], [t[3], 0, t[4]]])
    b = mat(ring, [[t[2], 0], [t[1], 0], [t[4], 0]])
    out = ring_matmul(ring, a, b)
    assert out == dense_product(ring, a, b)
    assert all(structurally_zero(e) for e in out.rows[1])
    assert all(structurally_zero(row[1]) for row in out.rows)


@pytest.mark.parametrize("name,left,right", [
    ("Z", [[1, 1]], [[6], [-6]]),
    ("Q[x,y]", [[1, "x"]], [["x*y"], ["-y"]]),
    ("F5[x,y,z]", [[1, 1]], [["y*z"], ["4*y*z"]]),
    ("Q[x,y]/(x^2,xy)", [["x", 1]], [["x + 1"], ["-x"]]),
])
def test_cancelling_sums_are_zero(name, left, right):
    ring, _ = RINGS[name]
    a, b = mat(ring, left), mat(ring, right)
    out = ring_matmul(ring, a, b)
    assert out == dense_product(ring, a, b)
    assert structurally_zero(out.entry(0, 0))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_shape_mismatch_raises(name):
    ring, _ = RINGS[name]
    with pytest.raises(RingError):
        ring_matmul(ring, mat(ring, [[1, 2]]), mat(ring, [[1, 2]]))


# ---------------------------------------------------------------------------
# operation counts


def block_diagonal(ring, blocks):
    n = sum(len(blk) for blk in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            rows[at + i][at:at + len(row)] = row
        at += len(blk)
    return mat(ring, rows)


def record_calls(monkeypatch, obj, name):
    real = getattr(obj, name)
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(obj, name, recording)
    return calls


@pytest.mark.parametrize("make", [
    integers,
    lambda: rational_poly_ring(("x", "y")),
    lambda: quotient_ring(rational_poly_ring(("x", "y")), ["x^2", "x*y"]),
], ids=["Z", "Q[x,y]", "Q[x,y]/(x^2,xy)"])
def test_one_mul_per_pair_of_nonzero_entries(monkeypatch, make):
    ring = make()
    # entries with positive coefficients and no x: no product or sum vanishes
    # modulo (x^2, xy)
    e = [1, 2, 3, 5] if ring.kind == "integers" else ["1", "2", "y", "y + 1"]
    blocks = [[[e[0], e[1]], [e[2], e[3]]]] * 3
    a = block_diagonal(ring, blocks)
    b = block_diagonal(ring, [list(reversed(blk)) for blk in blocks])
    want = dense_product(ring, a, b)
    pairs = sum(1 for i in range(a.nrows) for k in range(a.ncols)
                for j in range(b.ncols)
                if not structurally_zero(a.entry(i, k))
                and not structurally_zero(b.entry(k, j)))
    assert pairs == 24  # three 2x2 blocks of 2x2x2 products; dense is 216
    muls = record_calls(monkeypatch, ring, "mul")
    normalized = record_calls(monkeypatch, ring, "normalize")
    assert ring_matmul(ring, a, b) == want
    assert len(muls) == pairs
    assert not any(structurally_zero(e) for args in muls for e in args)
    assert not any(structurally_zero(p) for (p,) in normalized)
