"""The reducer's lead index and the order-key memos.

``_Reducer`` scans only the leads in a term's position; it must pick the
reducer that a scan over all leads picks, so remainders and division records
equal those of ``reference_algebra.reduce_by_scan`` under every module order,
whose keys are recomputed here from ``MonomialOrder.key`` with no memo.  Each
order computes a monomial's key once, and no memo outlives the command that
built it.
"""

import contextlib
import gc
import io
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from proregular import cli
from proregular.groebner import (ElimOrder, SchreyerOrder, TopOrder, _Reducer,
                                 vec_lead)
from proregular.poly import KeyMemo, MonomialOrder, mono_mul
from proregular.rings import prime_poly_ring, rational_poly_ring
from reference_algebra import reduce_by_scan
from test_groebner_pruning import RANK_TWO_MODULE
from test_quotient_block import witness_ring

A3 = witness_ring(3)
RINGS = {"Q[x,y]": rational_poly_ring(("x", "y")),
         "F5[x,y,z]": prime_poly_ring(5, ("x", "y", "z")),
         "A3": A3}
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def exponents(ring, top):
    return st.tuples(*[st.integers(0, top)] * ring.nvars)


def vectors(ring, rank, max_terms, top=2):
    """Nonzero module vectors with up to ``max_terms`` terms."""
    term = st.tuples(st.integers(0, rank - 1), exponents(ring, top),
                     st.integers(-3, 3).filter(bool))
    field = ring.field

    def build(terms):
        v = {}
        for pos, exp, c in terms:
            s = field.add(v.get((pos, exp), field.zero()), field.coerce(c))
            if field.is_zero(s):
                v.pop((pos, exp), None)
            else:
                v[(pos, exp)] = s
        return v
    return st.lists(term, min_size=1, max_size=max_terms).map(build).filter(bool)


@st.composite
def orders(draw, ring, rank):
    """``(order, key)``: a module order of rank ``rank`` and its sort key,
    computed from ``MonomialOrder.key`` directly."""
    ring_key = ring.order.key
    kind = draw(st.sampled_from(["top", "elim", "schreyer"]))
    if kind == "top":
        return TopOrder(ring.order), lambda m: (ring_key(m[1]), -m[0])
    if kind == "elim":
        cut = draw(st.integers(1, rank))
        return (ElimOrder(ring.order, cut),
                lambda m: (1 if m[0] < cut else 0, ring_key(m[1]), -m[0]))
    anchors = draw(st.lists(st.tuples(st.integers(0, 1), exponents(ring, 2)),
                            min_size=rank, max_size=rank))

    def key(m):
        apos, aexp = anchors[m[0]]
        return ((ring_key(mono_mul(m[1], aexp)), -apos), -m[0])
    return SchreyerOrder(TopOrder(ring.order), anchors), key


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_reducer_matches_scan_over_all_leads(name, data):
    """Same remainder, in the same term order, and the same record; over A3
    the basis also holds the quotient block."""
    R = RINGS[name]
    ring = R.poly_ring
    rank = data.draw(st.integers(1, 3))
    order, key = data.draw(orders(ring, rank))
    basis = data.draw(st.lists(vectors(ring, rank, 3), min_size=1, max_size=4))
    basis += R._ideal_block(rank)
    v = data.draw(vectors(ring, rank, 6, top=3))
    leads = [max(b, key=key) for b in basis]
    assert leads == [vec_lead(order, b) for b in basis]
    got_record, want_record = {}, {}
    got = _Reducer(ring, order, basis, leads).reduce(v, got_record)
    want = reduce_by_scan(ring.field, key, basis, leads, v, want_record)
    assert list(got.items()) == list(want.items())
    assert got_record == want_record


def test_canonical_form_evaluates_each_ring_key_once(monkeypatch):
    """The rank-two canonical form of ``test_groebner_pruning`` asks its
    ring order for the key of each exponent at most once."""
    evaluated = Counter()
    key = MonomialOrder.key

    def counting(self, exp):
        evaluated[exp] += 1
        return key(self, exp)
    monkeypatch.setattr(MonomialOrder, "key", counting)
    R = rational_poly_ring(("x", "y", "z"))
    cols = [[R.parse(t) for t in col] for col in RANK_TWO_MODULE]
    assert len(R.canonical_columns(cols, 2)) == 26
    assert evaluated and max(evaluated.values()) == 1


def test_no_key_memo_outlives_its_command(monkeypatch, tmp_path):
    """A3 ``wpr --depth 3`` builds memos, and once it returns (and cycles are
    collected) none of them is left, and no memo that was alive before it
    has grown."""
    session = tmp_path / "a3.session"
    gens = ", ".join(A3.poly_ring.to_str(g) for g in A3.ideal_generators)
    session.write_text(f"ring Q[x, e1, e2, e3] mod ({gens})\n"
                       "ideal a = (x)\nmodule R = [[]]\n", encoding="utf-8")
    gc.collect()
    # memos of rings that other test modules keep, each with its size
    alive = {id(o): (o, len(o)) for o in gc.get_objects() if isinstance(o, KeyMemo)}
    built = Counter()
    init = KeyMemo.__init__

    def counting(self, key):
        built["memos"] += 1
        init(self, key)
    monkeypatch.setattr(KeyMemo, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["wpr", str(session), "--depth", "3"])
    assert code == 2
    assert built["memos"]
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, KeyMemo)
                and (id(o) not in alive or len(o) != alive[id(o)][1])]
