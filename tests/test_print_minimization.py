"""Presentations are minimized only where a report prints them.

Kernels, cokernels and cohomology keep the presentations they are computed
on; ``reports.module_summary`` minimizes the module it prints, and the CLI
minimizes the levels of a system whose transitions it flags.  The calls to
``fpmod.minimized`` are counted through every name it is imported under.
"""

import json

import pytest

from proregular import cli, fpmod, reports
from test_session_cli import run_cli, sess


@pytest.fixture
def minimized_calls(monkeypatch):
    calls = []
    real = fpmod.minimized

    def counting(m):
        calls.append(m.ngens)
        return real(m)

    for module in (fpmod, reports, cli):
        monkeypatch.setattr(module, "minimized", counting, raising=False)
    return calls


@pytest.mark.parametrize("argv", [
    ["wpr", sess("s06_witness_a4.session")],
    ["idempotence", sess("s06_witness_a4.session")],
    ["wpr", sess("s17_witness_a4_module.session")],
    ["idempotence", sess("s17_witness_a4_module.session")],
    ["mgm-check", sess("s17_witness_a4_module.session")],
])
def test_verdict_commands_minimize_nothing(argv, minimized_calls):
    code, _ = run_cli([*argv, "--depth", "4"])
    assert code in (0, 2)
    assert minimized_calls == []


def test_koszul_minimizes_each_printed_cohomology_module_once(minimized_calls):
    code, out = run_cli(["koszul", sess("s03_q_xy.session"), "--depth", "3"])
    assert code == 0
    printed = [h for level in json.loads(out)["levels"].values()
               for h in level["cohomology"].values()]
    assert len(printed) == 9
    assert len(minimized_calls) == len(printed)
