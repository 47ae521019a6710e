"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact (no tolerances); the two timed criteria carry their
stated wall-clock budgets.
"""

import contextlib
import io
import json
import os
import random
import time

import pytest

from proregular.cli import run as cli_run
from proregular.complexes import (block_identity_map, cohomology,
                                  induced_cohomology_map, tensor_complexes)
from proregular.fpmod import (FpModule, IdealSpec, direct_sum, free_module,
                              kernel as mod_kernel, cokernel as mod_cokernel,
                              minimized, quotient_module)
from proregular.groebner import groebner_basis
from proregular.intlinalg import Mat, smith_normal_form
from proregular.koszul import (KoszulTower, copointed_idempotence_check,
                               koszul_complex, weak_proregularity_check)
from proregular.poly import PolyRing
from proregular.fieldlinalg import RationalField
from proregular.resolutions import free_resolution
from proregular.rings import (integers, prime_poly_ring, quotient_ring,
                              rational_poly_ring)
from proregular.torsion import ext_torsion_tower, gamma
from proregular.zmodclass import (injective_torsion_acyclicity_test,
                                  weak_stability_check)
from reference_algebra import (_reduce_poly, _spoly, ext_koszul_comparison,
                               minors_gcd, radical_invariance_suite,
                               stabilized_koszul_level_zero, submodules_equal)

ZZ = integers()
SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


def sess(name):
    return os.path.join(SESSIONS, name)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_run(argv)
    return code, buf.getvalue()


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS  {text}")


WPR_SESSIONS = ["s01_z_p2.session", "s02_z_46.session", "s03_q_xy.session",
                "s04_f5_xyz.session", "s05_q_mixed.session"]


def test_criterion_01_noetherian_wpr():
    started = time.monotonic()
    for name in WPR_SESSIONS:
        code, out = run_cli(["wpr", sess(name), "--depth", "5", "--window", "1"])
        assert code == 0, (name, out)
        assert json.loads(out)["verdict"] == "pass"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    report(1, f"wpr --depth 5 passes on all 5 noetherian test rings "
              f"({elapsed:.1f}s < 60s)")


REGULAR_CASES = [
    (ZZ, ["2"]),
    (rational_poly_ring(("x", "y")), ["x", "y"]),
    (prime_poly_ring(5, ("x", "y", "z")), ["x", "y", "z"]),
]


def test_criterion_02_regular_sequence_acyclicity():
    checked = 0
    for ring, gens in REGULAR_CASES:
        a = IdealSpec.make(ring, gens)
        n = len(a.generators)
        for i in range(1, 6):
            k = koszul_complex(a, i)
            for p in range(1, n + 1):
                assert cohomology(k, -p).is_zero(), (gens, i, -p)
                checked += 1
    report(2, f"H^(-p)(K(A; seq^i)) = 0 exactly for all {checked} "
              "(sequence, power, degree) combinations")


def test_criterion_03_radical_invariance():
    qxy = rational_poly_ring(("x", "y"))
    first, second = radical_invariance_suite(IdealSpec.make(qxy, ["x", "y"]),
                                             IdealSpec.make(qxy, ["x^2", "x*y", "y^3"]),
                                             depth=5, window=1)
    assert first.passed and second.passed
    first, second = radical_invariance_suite(IdealSpec.make(ZZ, [2]),
                                             IdealSpec.make(ZZ, [4]),
                                             depth=5, window=1)
    assert first.passed and second.passed
    report(3, "paired verdicts agree (both pass) for (x,y)~(x^2,xy,y^3) "
              "and (2)~(4) at depth 5")


def _canonical_submodule(parent, incl):
    cols = [list(incl.matrix.col(j)) for j in range(incl.matrix.ncols)]
    rels = [list(parent.relations.col(j))
            for j in range(parent.relations.ncols)]
    canon = parent.ring.canonical_columns(cols + rels, parent.ngens)
    return tuple(tuple(parent.ring.to_str(x) for x in col) for col in canon)


def test_criterion_04_torsion_identity():
    a2 = IdealSpec.make(ZZ, [2])
    z_modules = [FpModule(ZZ, 1, [[n]]) for n in (4, 6, 8, 12, 24, 40, 9, 16)]
    z_modules.append(direct_sum([FpModule(ZZ, 1, [[8]]), free_module(ZZ, 1)])[0])
    z_modules.append(FpModule(ZZ, 2, [[2, 0], [0, 12]]))
    assert len(z_modules) == 10
    qxy = rational_poly_ring(("x", "y"))
    axy = IdealSpec.make(qxy, ["x", "y"])
    q_modules = [
        quotient_module(axy, 1),
        quotient_module(axy, 2),
        FpModule(qxy, 1, [["x^2"], ["x*y"]]),
        FpModule(qxy, 1, [["x^3"], ["y^2"]]),
        direct_sum([free_module(qxy, 1), quotient_module(axy, 1)])[0],
    ]
    for m, ideal in [(m, a2) for m in z_modules] + [(m, axy) for m in q_modules]:
        sub, incl, _ = stabilized_koszul_level_zero(m, ideal)
        g = gamma(m, ideal)
        cols_a = [list(incl.matrix.col(j)) for j in range(incl.matrix.ncols)]
        cols_b = [list(g.inclusion.matrix.col(j))
                  for j in range(g.inclusion.matrix.ncols)]
        assert submodules_equal(m, cols_a, cols_b)
        assert _canonical_submodule(m, incl) == _canonical_submodule(m, g.inclusion)
    report(4, "stabilized level-0 Koszul tower equals the torsion submodule "
              "(canonical presentations identical) on 10 Z- and 5 Q[x,y]-modules")


def test_criterion_05_local_cohomology_of_z():
    sys_ = ext_torsion_tower(free_module(ZZ, 1), IdealSpec.make(ZZ, [2]), 1, 6)
    for i, obj in enumerate(sys_.objects, start=1):
        assert obj.abelian_invariants() == (0, [2 ** i])
    for tr in sys_.transitions:
        assert mod_kernel(tr)[0].is_zero()
    verdict = ext_koszul_comparison(free_module(ZZ, 1),
                                    KoszulTower(IdealSpec.make(ZZ, [2]), 6),
                                    1, window=2)
    assert verdict.passed
    report(5, "Ext tower has invariant factors [2^i] with injective "
              "transitions; Koszul model matches at window 2")


def test_criterion_06_weak_stability():
    for p in (2, 3, 5):
        stab = weak_stability_check(p, depth=6)
        assert stab.passed, p
        acyc = injective_torsion_acyclicity_test(p, depth=6)
        assert acyc.passed, p
        wpr = weak_proregularity_check(KoszulTower(IdealSpec.make(ZZ, [p]), 6),
                                       window=1)
        assert wpr.passed, p
    report(6, "weak stability + injective torsion acyclicity + wpr hold "
              "simultaneously for p in {2, 3, 5} at depth 6")


def test_criterion_07_non_wpr_witness():
    code, out = run_cli(["wpr", sess("s06_witness_a4.session"), "--depth", "4"])
    assert code == 2
    rep = json.loads(out)
    assert rep["verdict"] == "undetermined"
    deg = rep["per_degree"]["-1"]
    assert deg["witness_level"] == 1
    assert deg["nonzero_partners"] == [2, 3, 4]
    assert all(deg["certificates"][str(i)] is None for i in (1, 2, 3))
    report(7, "truncated witness ring: wpr --depth 4 exits 2 with witness "
              "level 1 and nonzero composites for all j <= 4")


def test_criterion_08_copointed_idempotence():
    rep_z = copointed_idempotence_check(KoszulTower(IdealSpec.make(ZZ, [2]), 5),
                                        window=1)
    assert rep_z.passed
    qx = rational_poly_ring(("x",))
    rep_q = copointed_idempotence_check(KoszulTower(IdealSpec.make(qx, ["x"]), 5),
                                        window=1)
    assert rep_q.passed
    # H^1 level maps are exact bijections at every stage
    for ring, gens in ((ZZ, [2]), (qx, ["x"])):
        tower = KoszulTower(IdealSpec.make(ring, gens), 5)
        for i in range(1, 6):
            dk = tower.duals[i - 1]
            sq = tensor_complexes(dk, dk)
            cu = block_identity_map(dk, sq)
            ind = induced_cohomology_map(cu, 1)
            assert mod_kernel(ind)[0].is_zero()
            assert mod_cokernel(ind).is_zero()
    report(8, "copointed idempotence passes at depth 5, window 1 for (Z,(2)) "
              "and (Q[x],(x)); H^1 counit maps are levelwise bijections")


def test_criterion_09_mgm_at_finite_depth():
    from proregular.torsion import mgm_check
    started = time.monotonic()
    a2 = IdealSpec.make(ZZ, [2])
    z8 = FpModule(ZZ, 1, [[8]])
    for m in (free_module(ZZ, 1), z8,
              direct_sum([free_module(ZZ, 1), z8])[0]):
        rep = mgm_check(m, KoszulTower(a2, 6), window=2)
        assert rep.passed
    qx = rational_poly_ring(("x",))
    ax = IdealSpec.make(qx, ["x"])
    for m in (free_module(qx, 1), FpModule(qx, 1, [["x^3"]])):
        rep = mgm_check(m, KoszulTower(ax, 6), window=2)
        assert rep.passed
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 9 runtime {elapsed:.1f}s exceeds 120s"
    report(9, f"torsion/completion equivalence passes both sides at depth 6, "
              f"window 2 on all 5 module cases ({elapsed:.1f}s < 120s)")


def test_criterion_10_kernel_properties():
    rng = random.Random(20260810)
    # Smith form vs brute-force minor gcds
    for _ in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-15, 15) for _ in range(nc)]
                           for _ in range(nr)])
        diag = smith_normal_form(m).diagonal()
        prod = 1
        for k in range(1, min(nr, nc) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == minors_gcd(m, k)
    # Buchberger: every emitted basis has all S-polynomials reducing to zero
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    mons = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    gb_count = 0
    from fractions import Fraction
    for _ in range(20):
        gens = []
        for _g in range(rng.randint(1, 3)):
            terms = [(rng.choice(mons), Fraction(rng.randint(-3, 3)))
                     for _ in range(rng.randint(1, 3))]
            p = ring.from_terms(terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        gb = groebner_basis(gens)
        polys = list(gb)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                s = _spoly(gb.ring, polys[i], polys[j])
                assert _reduce_poly(gb.ring, s, polys).is_zero()
        gb_count += 1
    # free resolutions on random monomial-ideal quotients
    res_count = 0
    for nvars in (2, 3):
        ring2 = rational_poly_ring(tuple("xyz"[:nvars]))
        while res_count < (25 if nvars == 2 else 50):
            gens = []
            for _g in range(rng.randint(1, nvars + 1)):
                exp = tuple(rng.randint(0, 3) for _ in range(nvars))
                if any(exp):
                    gens.append(ring2.poly_ring.monomial(exp))
            if not gens:
                continue
            m = FpModule(ring2, 1, [[g] for g in gens])
            res = free_resolution(m)
            assert res.length <= nvars
            for q in range(-res.length + 1, 0):
                assert cohomology(res.complex, q).is_zero()
            res_count += 1
            if nvars == 2 and res_count == 25:
                break
    # d o d = 0 enforced on construction for all complexes built here
    for ring3, gens in ((ZZ, [2]), (ZZ, [4, 6])):
        a = IdealSpec.make(ring3, gens)
        from proregular.complexes import BoundedComplex
        k = koszul_complex(a, 2)
        BoundedComplex(k.ring, k.lo,
                       [k.module(q) for q in k.degrees()],
                       [k.diff(q) for q in range(k.lo, k.hi)], check=True)
    report(10, f"SNF minor-gcd oracle on 200 matrices; S-polynomials reduce "
               f"to zero on {gb_count} bases; {res_count} monomial "
               "resolutions have length <= #vars; d o d = 0 verified")


def test_criterion_11_determinism():
    commands = [
        ["wpr", sess("s02_z_46.session"), "--depth", "5"],
        ["wpr", sess("s06_witness_a4.session"), "--depth", "4"],
        ["gamma", sess("s01_z_p2.session"), "--module", "M12"],
        ["lc-tower", sess("s01_z_p2.session"), "--module", "Zfree",
         "--degree", "1", "--depth", "4", "--model", "koszul"],
        ["completion-tower", sess("s01_z_p2.session"), "--module", "M12",
         "--depth", "3"],
        ["profinite-tower", sess("s09_z_profinite.session"), "--module", "M4",
         "--chain", "2,4,8"],
        ["mgm-check", sess("s07_z_mgm.session"), "--module", "M",
         "--depth", "4"],
        ["stability", sess("s13_z_p3.session"), "--depth", "6"],
        ["thm45", sess("s14_z_p5.session"), "--depth", "6"],
        ["idempotence", sess("s08_qx.session"), "--depth", "4"],
        ["koszul", sess("s03_q_xy.session"), "--depth", "3"],
    ]
    for argv in commands:
        outs = [run_cli(argv)[1] for _ in range(3)]
        assert outs[0] == outs[1] == outs[2], argv
        json.loads(outs[0])
    report(11, f"byte-identical JSON over 3 repeated runs of "
               f"{len(commands)} golden commands")
