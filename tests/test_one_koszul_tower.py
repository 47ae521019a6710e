"""One Koszul tower per command: stages and transitions are built once.

Only ``koszul.py`` builds Koszul stages and transitions; everything else
reads them from a ``KoszulTower``.  A depth-``N`` command therefore calls
``koszul_complex`` ``N`` times and ``koszul_transition`` ``N - 1`` times,
however many checks it runs on the tower.
"""

import ast
import contextlib
import io
import os

import pytest

import proregular.koszul as koszul
from proregular.cli import run
from proregular.fpmod import IdealSpec, free_module
from proregular.koszul import KoszulTower
from proregular.rings import integers
from reference_algebra import ext_koszul_comparison

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "proregular")
SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")
BUILDERS = ("koszul_complex", "koszul_transition")


def _called_names(source: str) -> set:
    """Names of the functions a module calls, as ``f(...)`` or ``m.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute):
                names.add(f.attr)
    return names


def test_detector_finds_direct_and_attribute_calls():
    source = ("from .koszul import koszul_complex\n"
              "import proregular.koszul as k\n"
              "def f(a):\n"
              "    return koszul_complex(a, 2), k.koszul_transition(a, 2, 1)\n")
    assert set(BUILDERS) <= _called_names(source)


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py") and f != "koszul.py"))
def test_only_koszul_builds_stages_and_transitions(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        called = _called_names(fh.read())
    assert not called & set(BUILDERS), name


@pytest.fixture
def builds(monkeypatch):
    """Counts of ``koszul_complex`` and ``koszul_transition`` calls."""
    counts = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:
        real = getattr(koszul, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(koszul, name, counting)
    return counts


@pytest.mark.parametrize("argv", [
    ["mgm-check", "s07_z_mgm.session", "--module", "M"],
    ["idempotence", "s01_z_p2.session"],
    ["wpr", "s03_q_xy.session"],
    ["lc-tower", "s03_q_xy.session", "--model", "koszul", "--module", "Mxy",
     "--degree", "2"],
], ids=lambda argv: argv[0])
def test_command_builds_each_stage_and_transition_once(builds, argv):
    argv = [argv[0], os.path.join(SESSIONS, argv[1]), *argv[2:], "--depth", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    assert builds == {"koszul_complex": 4, "koszul_transition": 3}


def test_ext_koszul_comparison_builds_each_stage_once(builds):
    zz = integers()
    tower = KoszulTower(IdealSpec.make(zz, [2]), 4)
    assert ext_koszul_comparison(free_module(zz, 1), tower, 1).passed
    assert builds == {"koszul_complex": 4, "koszul_transition": 3}
