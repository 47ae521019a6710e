"""The weak proregularity boundary of the witness rings has a closed form.

Over ``A_n = Q[x, e_1..e_n]/(e_k x^k, e_k e_l)`` with ``a = (x)``,
``H^{-1}(K(x^i)) = ann(x^i)`` holds ``e_k`` for ``k <= min(i, n)``, and
``x^{j-i}`` kills ``e_k`` exactly when ``j - i >= k``.  So the least zero
partner (certificate) of level ``i`` is ``i + n``, and the least passing
depth ``N`` at window ``w`` is the least with ``n + 1 <= N``, ``w < N`` and
``floor((N - w) / 2) + n <= N``: every required level ``{1} union
{i : 2 i + w <= N}`` then has its certificate.  ``perfbench/workloads.py``
checks the benchmark's ``wpr`` commands with the same rule.
"""

import json

import pytest

from test_session_cli import run_cli


def witness_session(n: int) -> str:
    rels = [f"e{k}*x^{k}" for k in range(1, n + 1)]
    rels += [f"e{k}*e{l}" for k in range(1, n + 1) for l in range(k, n + 1)]
    variables = ", ".join(["x"] + [f"e{k}" for k in range(1, n + 1)])
    return f"ring Q[{variables}] mod ({', '.join(rels)})\nideal a = (x)\n"


def least_passing_depth(n: int, window: int) -> int:
    depth = 2
    while not (n + 1 <= depth and window < depth and (depth - window) // 2 + n <= depth):
        depth += 1
    return depth


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("n", range(1, 7))
def test_wpr_boundary_of_the_witness_ring(tmp_path, n, window):
    path = tmp_path / f"A{n}.session"
    path.write_text(witness_session(n))
    boundary = least_passing_depth(n, window)
    for depth, want in ((boundary, 0), (boundary - 1, 2)):
        code, out = run_cli(["wpr", str(path), "--depth", str(depth),
                             "--window", str(window)])
        if depth < 2 or window >= depth:
            assert code == 3  # below the least depth the options allow
            continue
        assert code == want, (depth, out)
        certificates = json.loads(out)["per_degree"]["-1"]["certificates"]
        assert certificates == {str(i): i + n if i + n <= depth else None
                                for i in range(1, depth)}


def test_least_passing_depth_at_window_one():
    """``max(n + 1, 2 n - 2)``, the boundary measured for ``n <= 8``."""
    assert [least_passing_depth(n, 1) for n in range(1, 9)] == \
        [max(n + 1, 2 * n - 2) for n in range(1, 9)]
