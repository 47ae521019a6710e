"""A module's canonical relations reach the engine once, as a known basis.

``kernel`` reads its relations off one graph basis over the kernel
generators with the source relations known, and inter-reduces them with no
second Buchberger run; ``cokernel``, the quotient towers and the
annihilator chain take the stored relations as known; ``factor_through``
solves modulo them; ``direct_sum`` sorts canonical relations on disjoint
positions and runs no engine.  Each is checked against the path that puts
the raw columns through a second canonical form (``reference_algebra``),
and the engine calls are counted.  The CLI's transition flags are two
membership tests, checked against whole kernels and cokernels.
"""

import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from proregular import groebner
from proregular.cli import _transition_flags
from proregular.fpmod import (FpModule, ModuleMorphism, cokernel, direct_sum,
                              factor_through, free_module, kernel, kernel_generators)
from proregular.intlinalg import Mat, mat_from_cols
from proregular.rings import prime_poly_ring, rational_poly_ring, ring_matmul
from reference_algebra import cokernel_by_concatenation, kernel_by_second_canonical_form
from test_canonical_member import ZZ, elements, modules
from test_quotient_block import block_columns, polys, witness_ring

QXY = rational_poly_ring(("x", "y"))
F5XYZ = prime_poly_ring(5, ("x", "y", "z"))
A3 = witness_ring(3)
RINGS = {"Z": ZZ, "Q[x,y]": QXY, "F5[x,y,z]": F5XYZ, "A3": A3}
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _with_block(data, ring, rank, cols):
    """Over ``A3``, often append stored block columns ``g * e_k`` (``g`` in
    ``ideal_gb``, not reduced) to drawn columns."""
    if ring is A3 and data.draw(st.booleans()):
        return cols + block_columns(ring, rank)[:data.draw(st.integers(1, 3))]
    return cols


@st.composite
def morphisms(draw, ring):
    """A well-defined ``phi : M -> N``: a drawn target, a drawn matrix, and a
    source related by drawn multiples of the kernel generators of the
    matrix from the free module (so the matrix respects them), often with
    block columns among the raw relations and the matrix columns over
    ``A3``."""
    data = SimpleNamespace(draw=draw)
    t, n_cols = draw(modules(ring, max_rank=2, max_cols=2))
    target = FpModule(ring, t, _with_block(data, ring, t, n_cols))
    s = draw(st.integers(1, 3))
    cols = [draw(st.lists(elements(ring), min_size=t, max_size=t)) for _ in range(s)]
    cols = _with_block(data, ring, t, cols)[-s:] if ring is A3 else cols
    matrix = mat_from_cols([tuple(c) for c in cols], t)
    gens = kernel_generators(ModuleMorphism(free_module(ring, s), target, matrix))
    multipliers = elements(ring) if ring is ZZ else \
        polys(ring.poly_ring, 1, 2).map(ring.coerce)
    keep = []
    for g in gens:
        c = draw(multipliers)
        keep.append([ring.mul(c, x) for x in g])
    source = FpModule(ring, s, _with_block(data, ring, s, keep))
    return ModuleMorphism(source, target, matrix, check=False)


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_kernel_and_cokernel_match_second_canonical_form(name, data):
    phi = data.draw(morphisms(RINGS[name]))
    small, incl = kernel(phi)
    ref_small, ref_incl = kernel_by_second_canonical_form(phi)
    assert small.relations == ref_small.relations
    assert small.free_rank == ref_small.free_rank
    assert incl.matrix == ref_incl.matrix
    c, proj, section = cokernel(phi)
    ref_c, ref_proj, ref_section = cokernel_by_concatenation(phi)
    assert c.relations == ref_c.relations
    assert c.free_rank == ref_c.free_rank
    assert proj.matrix == ref_proj.matrix
    assert section == ref_section


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_direct_sum_relations_are_the_canonical_form_of_the_union(name, data):
    ring = RINGS[name]
    parts = [FpModule(ring, rank, _with_block(data, ring, rank, cols))
             for rank, cols in data.draw(st.lists(modules(ring, max_rank=2, max_cols=2),
                                                  min_size=1, max_size=3))]
    total = sum(m.ngens for m in parts)
    raw, off = [], 0
    for m in parts:
        for rel in m.relations.cols():
            col = [ring.zero()] * total
            col[off:off + m.ngens] = rel
            raw.append(col)
        off += m.ngens
    s, _, _ = direct_sum(parts)
    ref = FpModule(ring, total, raw)
    assert s.relations == ref.relations
    assert (s.free_rank is None) == (ref.free_rank is None)


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_factor_through_solves_modulo_the_target_relations(name, data):
    """The coordinates may differ from a solve over ``[gens | relations]``,
    but ``gens * x - want`` is zero in the target: the same morphism."""
    phi = data.draw(morphisms(RINGS[name]))
    ring = phi.source.ring
    _, incl = kernel(phi)
    coeffs = data.draw(st.lists(st.lists(elements(ring), min_size=incl.matrix.ncols,
                                         max_size=incl.matrix.ncols),
                                min_size=1, max_size=2))
    x = Mat(incl.matrix.ncols, len(coeffs), tuple(zip(*coeffs))) if incl.matrix.ncols \
        else Mat(0, len(coeffs), ())
    want = ring_matmul(ring, incl.matrix, x)
    got = factor_through(incl.matrix, phi.source, want, "no factorization")
    back = ring_matmul(ring, incl.matrix, got)
    for b, w in zip(back.cols(), want.cols()):
        assert phi.source.contains([ring.sub(p, q) for p, q in zip(b, w)])


@pytest.mark.parametrize("name", ["Z", "Q[x,y]", "A3"])
@SETTINGS
@given(data=st.data())
def test_transition_flags_match_kernel_and_cokernel(name, data):
    phi = data.draw(morphisms(RINGS[name]))
    flags = _transition_flags(SimpleNamespace(transitions=[phi]))
    assert flags == [{"injective": kernel(phi)[0].is_zero(),
                      "surjective": cokernel(phi)[0].is_zero()}]


def _count_engine(monkeypatch):
    """Record, per ``module_groebner`` call, where it came from: a graph
    basis, a canonical form inside ``minimized``, or some other canonical
    form."""
    calls = []
    real = groebner.module_groebner

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        names = []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        if names[0] == "__init__":
            calls.append("graph")
        else:
            calls.append("pivot" if "minimized" in names else "other")
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "module_groebner", counting)
    return calls


def test_kernel_runs_the_engine_only_for_graph_bases_and_pivots(monkeypatch):
    """The zero map from Q[x,y]^2/((x, 1), (y, 0)) to Q[x,y]: two graph
    bases (the generators, then their relations) and one minimization
    pivot, which leaves Q[x,y]/(y)."""
    source = FpModule(QXY, 2, [["x", 1], ["y", 0]])
    zero = Mat(1, 2, ((QXY.zero(), QXY.zero()),))
    phi = ModuleMorphism(source, free_module(QXY, 1), zero)
    calls = _count_engine(monkeypatch)
    small, _ = kernel(phi)
    assert small.ngens == 1 and small.free_rank is None
    assert calls == ["graph", "graph", "pivot"]


def test_kernel_over_a_quotient_runs_no_second_canonical_form(monkeypatch):
    """Multiplication by x on A3: the kernel is generated by e1, e2, e3 with
    relations that need no pivot; only the two graph bases run."""
    x = A3.coerce("x")
    m = free_module(A3, 1)
    phi = ModuleMorphism(m, m, Mat(1, 1, ((x,),)))
    calls = _count_engine(monkeypatch)
    small, _ = kernel(phi)
    assert small.ngens == 3
    assert calls == ["graph", "graph"]


def test_direct_sum_runs_no_engine(monkeypatch):
    parts = [FpModule(QXY, 2, [["x", "y"], ["y^2", 0]]), FpModule(A3, 1, [["x^2"]])]
    calls = _count_engine(monkeypatch)
    for m in parts:
        direct_sum([m, m, free_module(m.ring, 1)])
    assert calls == []
