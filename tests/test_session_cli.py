import io
import json
import contextlib
import os
import subprocess
import sys

import pytest

from proregular.cli import run
from proregular.session import SessionError, parse_session

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def sess(name):
    return os.path.join(SESSIONS, name)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# session parsing


def test_parse_minimal_session():
    s = parse_session(sess("s01_z_p2.session"))
    assert repr(s.ring) == "Z"
    assert list(s.ideals) == ["a"]
    assert set(s.modules) == {"M12", "Zfree", "M8"}
    assert s.modules["Zfree"].free_rank == 1


def test_parse_poly_and_quotient_sessions():
    s = parse_session(sess("s03_q_xy.session"))
    assert s.ring.kind == "polynomial"
    s6 = parse_session(sess("s06_witness_a4.session"))
    assert s6.ring.kind == "quotient"


def test_parse_complex_session():
    s = parse_session(sess("s10_complex.session"))
    c = s.complexes["C"]
    assert c.lo == -1 and c.hi == 0
    assert c.diff(-1).matrix.entry(0, 0) == 3


def test_reject_non_prime_field():
    with pytest.raises(SessionError) as exc:
        parse_session(sess("s11_bad_field.session"))
    assert "prime" in str(exc.value)
    assert "line 1" in str(exc.value)


def test_reject_dd_nonzero_complex():
    with pytest.raises(SessionError) as exc:
        parse_session(sess("s12_bad_complex.session"))
    assert "d o d" in str(exc.value)


def test_reject_duplicate_and_unresolved(tmp_path):
    bad = tmp_path / "dup.session"
    bad.write_text("ring Z\nideal a = (2)\nideal a = (3)\n")
    with pytest.raises(SessionError) as exc:
        parse_session(str(bad))
    assert "line 3" in str(exc.value)
    bad2 = tmp_path / "unres.session"
    bad2.write_text("ring Z\nmodule F = [[]]\n"
                    "complex C = degrees (0, 1) modules (F, G) maps ([[2]])\n")
    with pytest.raises(SessionError):
        parse_session(str(bad2))


def test_ring_must_come_first(tmp_path):
    bad = tmp_path / "noring.session"
    bad.write_text("ideal a = (2)\n")
    with pytest.raises(SessionError):
        parse_session(str(bad))


# ---------------------------------------------------------------------------
# exit code contract on the corpus


GOLDEN_RUNS = [
    (["wpr", sess("s01_z_p2.session"), "--depth", "4"], 0),
    (["wpr", sess("s02_z_46.session"), "--depth", "5"], 0),
    (["wpr", sess("s03_q_xy.session"), "--depth", "4"], 0),
    (["wpr", sess("s04_f5_xyz.session"), "--depth", "4"], 0),
    (["wpr", sess("s05_q_mixed.session"), "--depth", "4"], 0),
    (["wpr", sess("s06_witness_a4.session"), "--depth", "4"], 2),
    (["gamma", sess("s01_z_p2.session"), "--module", "M12"], 0),
    (["lc-tower", sess("s01_z_p2.session"), "--module", "Zfree",
      "--degree", "1", "--depth", "4", "--model", "ext"], 0),
    (["lc-tower", sess("s01_z_p2.session"), "--module", "Zfree",
      "--degree", "1", "--depth", "4", "--model", "koszul"], 0),
    (["completion-tower", sess("s01_z_p2.session"), "--module", "M12",
      "--depth", "3"], 0),
    (["completion-tower", sess("s10_complex.session"), "--complex", "C",
      "--depth", "3"], 0),
    (["profinite-tower", sess("s09_z_profinite.session"), "--module", "M4",
      "--chain", "2,4,8"], 0),
    (["mgm-check", sess("s07_z_mgm.session"), "--module", "M",
      "--depth", "4", "--window", "1"], 0),
    (["idempotence", sess("s01_z_p2.session"), "--depth", "4"], 0),
    (["idempotence", sess("s06_witness_a4.session"), "--depth", "4"], 2),
    (["stability", sess("s13_z_p3.session"), "--depth", "6"], 0),
    (["thm45", sess("s14_z_p5.session"), "--depth", "6"], 0),
    (["koszul", sess("s08_qx.session"), "--depth", "3"], 0),
    (["wpr", sess("s11_bad_field.session")], 3),
    (["wpr", sess("s12_bad_complex.session")], 3),
    (["gamma", sess("s01_z_p2.session")], 3),  # several modules, none picked
    (["wpr", sess("missing_file.session")], 3),
    (["profinite-tower", sess("s09_z_profinite.session"), "--module", "M4",
      "--chain", "2,3"], 3),
    (["gamma", sess("s09_z_profinite.session"), "--module", "M4"], 3),  # no ideal
    (["wpr", sess("s01_z_p2.session"), "--depth", "1"], 3),
    (["idempotence", sess("s01_z_p2.session"), "--depth", "1"], 3),
    (["wpr", sess("s01_z_p2.session"), "--depth", "4", "--window", "4"], 3),
    (["completion-tower", sess("s01_z_p2.session"), "--module", "M12",
      "--depth", "0"], 3),
    (["stability", sess("s13_z_p3.session"), "--depth", "-1"], 3),
    (["koszul", sess("s08_qx.session"), "--depth", "0"], 3),
    (["gamma", sess("s01_z_p2.session"), "--module", "M8",
      "--max-stabilization", "0"], 3),
    (["gamma", sess("s01_z_p2.session"), "--module", "M8",
      "--max-stabilization", "-3"], 3),
    # A4's certificate boundary: undetermined at depth 5, pass at depth 6
    (["wpr", sess("s06_witness_a4.session"), "--depth", "5"], 2),
    (["wpr", sess("s06_witness_a4.session"), "--depth", "6"], 0),
    # mgm-check refuses A4 before its weak proregularity is established
    (["mgm-check", sess("s17_witness_a4_module.session"), "--module", "R",
      "--depth", "4"], 2),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_RUNS,
                         ids=[" ".join(os.path.basename(a) for a in argv[:2])
                              + f"#{i}" for i, (argv, _) in enumerate(GOLDEN_RUNS)])
def test_exit_code_contract(argv, expected):
    code, out = run_cli(argv)
    assert code == expected, out
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["exit_status"] == expected


def test_budget_exit_code(tmp_path):
    code, out = run_cli(["gamma", sess("s01_z_p2.session"), "--module", "M8",
                         "--max-stabilization", "1"])
    assert code == 4
    assert json.loads(out)["exit_status"] == 4


def test_completion_tower_of_a_complex_that_is_not_free_is_an_input_error(tmp_path):
    """Derived completion needs a degreewise free complex: Z/4 in two
    degrees gets an exit-3 report with an error, not a traceback."""
    path = tmp_path / "not_free.session"
    path.write_text("ring Z\nideal a = (2)\nmodule M = [[4]]\n"
                    "complex C = degrees (-1, 0) modules (M, M) maps ([[1]])\n")
    code, out = run_cli(["completion-tower", str(path), "--complex", "C", "--depth", "3"])
    report = json.loads(out)
    assert code == 3 and report["exit_status"] == 3
    assert report["error"] == "derived completion requires a degreewise free complex"


PARSER_COUNT = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from proregular import cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["wpr", {session!r}, "--depth", "2"])
    counts.append(len(built))
print(counts)
"""


def test_import_builds_no_parser_and_run_builds_one():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = PARSER_COUNT.format(session=sess("s01_z_p2.session"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [0, 1, 2]


def golden_report(name):
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        return fh.read()


def test_reports_byte_identical_across_runs():
    for i, (argv, _) in enumerate(GOLDEN_RUNS[:18]):
        outs = [run_cli(argv)[1] for _ in range(3)]
        assert len(set(outs)) == 1, argv
        assert outs[0] == golden_report(f"run_{i:02d}"), argv


# more towers over Q[x, y] and Q[x], pinned byte for byte
PINNED_RUNS = [
    ("mgm_s03_Mxy", ["mgm-check", sess("s03_q_xy.session"), "--module", "Mxy",
                     "--depth", "4"]),
    ("mgm_s08_A", ["mgm-check", sess("s08_qx.session"), "--module", "A",
                   "--depth", "4"]),
    ("mgm_s08_Ax3", ["mgm-check", sess("s08_qx.session"), "--module", "Ax3",
                     "--depth", "4"]),
    ("lc_ext_s03_Mxy_p0", ["lc-tower", sess("s03_q_xy.session"), "--module", "Mxy",
                           "--depth", "4", "--model", "ext", "--degree", "0"]),
    ("lc_ext_s03_Mxy_p1", ["lc-tower", sess("s03_q_xy.session"), "--module", "Mxy",
                           "--depth", "4", "--model", "ext", "--degree", "1"]),
    ("lc_ext_s03_Mxy_p2", ["lc-tower", sess("s03_q_xy.session"), "--module", "Mxy",
                           "--depth", "4", "--model", "ext", "--degree", "2"]),
    ("lc_koszul_s03_Mxy_p2", ["lc-tower", sess("s03_q_xy.session"), "--module", "Mxy",
                              "--depth", "4", "--model", "koszul", "--degree", "2"]),
    ("lc_ext_s08_Ax3_p0", ["lc-tower", sess("s08_qx.session"), "--module", "Ax3",
                           "--depth", "4", "--model", "ext", "--degree", "0"]),
    ("lc_koszul_s08_Ax3_p0", ["lc-tower", sess("s08_qx.session"), "--module", "Ax3",
                              "--depth", "4", "--model", "koszul", "--degree", "0"]),
    ("completion_s03_Mxy", ["completion-tower", sess("s03_q_xy.session"),
                            "--depth", "3"]),
    ("completion_s08_Ax3", ["completion-tower", sess("s08_qx.session"),
                            "--module", "Ax3", "--depth", "3"]),
    ("gamma_s03_Mxy", ["gamma", sess("s03_q_xy.session")]),
    ("gamma_s08_Ax3", ["gamma", sess("s08_qx.session"), "--module", "Ax3"]),
    ("idempotence_s03", ["idempotence", sess("s03_q_xy.session")]),
    ("idempotence_s08", ["idempotence", sess("s08_qx.session")]),
    # quotient rings by non-monomial ideals
    ("wpr_s15", ["wpr", sess("s15_q_cusp.session"), "--depth", "4"]),
    ("wpr_s16", ["wpr", sess("s16_f5_cone.session"), "--depth", "4"]),
    ("gamma_s15_Mx", ["gamma", sess("s15_q_cusp.session"), "--module", "Mx"]),
    ("gamma_s16_R", ["gamma", sess("s16_f5_cone.session"), "--module", "R"]),
    ("completion_s15_Mx", ["completion-tower", sess("s15_q_cusp.session"),
                           "--module", "Mx", "--depth", "3"]),
    ("completion_s16_R", ["completion-tower", sess("s16_f5_cone.session"),
                          "--module", "R", "--depth", "3"]),
    ("lc_ext_s15_Mx_p1", ["lc-tower", sess("s15_q_cusp.session"), "--module", "Mx",
                          "--depth", "3", "--model", "ext", "--degree", "1"]),
    ("lc_koszul_s15_Mx_p1", ["lc-tower", sess("s15_q_cusp.session"), "--module", "Mx",
                             "--depth", "3", "--model", "koszul", "--degree", "1"]),
    ("lc_ext_s16_R_p1", ["lc-tower", sess("s16_f5_cone.session"), "--module", "R",
                         "--depth", "3", "--model", "ext", "--degree", "1"]),
    ("lc_koszul_s16_R_p1", ["lc-tower", sess("s16_f5_cone.session"), "--module", "R",
                            "--depth", "3", "--model", "koszul", "--degree", "1"]),
    ("mgm_s15_R", ["mgm-check", sess("s15_q_cusp.session"), "--module", "R",
                   "--depth", "3"]),
    ("mgm_s16_R", ["mgm-check", sess("s16_f5_cone.session"), "--module", "R",
                   "--depth", "4"]),
    ("idempotence_s16_d4", ["idempotence", sess("s16_f5_cone.session"),
                            "--depth", "4"]),
    ("idempotence_s15_d3", ["idempotence", sess("s15_q_cusp.session"),
                            "--depth", "3"]),
    # the witness ring A4 on both sides of its certificate boundary
    ("wpr_s06_d5", ["wpr", sess("s06_witness_a4.session"), "--depth", "5"]),
    ("wpr_s06_d6", ["wpr", sess("s06_witness_a4.session"), "--depth", "6"]),
    # mgm-check's weak proregularity precondition, not established on A4
    ("mgm_s17_R", ["mgm-check", sess("s17_witness_a4_module.session"),
                   "--module", "R", "--depth", "4"]),
    # ... and established at depth 6, where the check passes
    ("mgm_s17_R_d6", ["mgm-check", sess("s17_witness_a4_module.session"),
                      "--module", "R", "--depth", "6"]),
]


@pytest.mark.parametrize("name,argv", PINNED_RUNS, ids=[n for n, _ in PINNED_RUNS])
def test_report_matches_golden_file(name, argv):
    code, out = run_cli(argv)
    assert code in (0, 2), out
    assert out == golden_report(name)


def test_report_shapes_wpr():
    code, out = run_cli(["wpr", sess("s02_z_46.session"), "--depth", "5"])
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert rep["per_degree"]["-1"]["certificates"]["3"] == 5
    assert rep["per_degree"]["-1"]["certificates"]["4"] is None


def test_report_witness_a4():
    code, out = run_cli(["wpr", sess("s06_witness_a4.session"), "--depth", "4"])
    rep = json.loads(out)
    assert rep["verdict"] == "undetermined"
    deg = rep["per_degree"]["-1"]
    assert deg["witness_level"] == 1
    assert deg["nonzero_partners"] == [2, 3, 4]


def test_report_gamma_invariants():
    code, out = run_cli(["gamma", sess("s01_z_p2.session"), "--module", "M12"])
    rep = json.loads(out)
    assert rep["torsion_submodule"]["invariant_factors"] == [4]


def test_tsv_format_deterministic():
    a = run_cli(["gamma", sess("s01_z_p2.session"), "--module", "M12",
                 "--format", "tsv"])
    b = run_cli(["gamma", sess("s01_z_p2.session"), "--module", "M12",
                 "--format", "tsv"])
    assert a == b
    assert "torsion_submodule.invariant_factors\t4" in a[1]


def test_out_flag(tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(["gamma", sess("s01_z_p2.session"), "--module", "M12",
                         "--out", str(path)])
    assert out == ""
    assert json.loads(path.read_text())["exit_status"] == 0


def test_unknown_command_is_input_error():
    code, _ = run_cli(["frobnicate", sess("s01_z_p2.session")])
    assert code == 3


def test_lc_tower_requires_degree():
    code, out = run_cli(["lc-tower", sess("s01_z_p2.session"),
                         "--module", "Zfree"])
    assert code == 3


def test_timing_flag_adds_key():
    code, out = run_cli(["gamma", sess("s01_z_p2.session"), "--module", "M12",
                         "--timing"])
    assert "timing_seconds" in json.loads(out)


@pytest.mark.parametrize("text,line", [
    ("ring F5[x]\nideal a = (x)\nmodule M = [[1/5]]\n", 3),
    ("ring F5[x] mod (x^2 + 1/10)\nideal a = (x)\n", 1),
    ("ring Q[x]\nideal a = (x)\nmodule M = [[1/0]]\n", 3),
    ("ring Q[x]\nideal a = (x)\nmodule M = [[x^]]\n", 3),
    ("ring Q[x]\nideal a = (x, 1/)\n", 2),
], ids=["F5 entry", "F5 ideal", "Q zero denominator", "no exponent",
        "no denominator"])
def test_unparsable_polynomial_is_input_error(tmp_path, text, line):
    path = tmp_path / "entry.session"
    path.write_text(text)
    code, out = run_cli(["wpr", str(path), "--depth", "2"])
    assert code == 3
    report = json.loads(out)
    assert report["exit_status"] == 3
    assert report["error"].startswith(f"line {line}: ")
