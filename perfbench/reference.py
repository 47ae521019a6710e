"""Reference figures for the benchmark's README.

Usage, from the root of a checkout:

    python3 perfbench/reference.py golden
    python3 perfbench/reference.py noise

``golden`` times every command of ``GOLDEN_RUNS`` in
``tests/test_session_cli.py`` in this process through ``proregular.cli.run``
and prints the median and the fastest of five runs of each.

``noise`` measures how fast the host is from one minute to the next: it
starts 14 processes one after another, and each times
``wpr sessions/s06_witness_a4.session --depth 4`` and a fixed pure-Python
loop, in wall and CPU time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
REPEATS = 5
PROCESSES = 14


def _timed_cli(argv):
    from proregular.cli import run

    w0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, time.perf_counter() - w0, time.process_time() - c0


def golden():
    from test_session_cli import GOLDEN_RUNS

    for argv, _ in GOLDEN_RUNS:
        times = [_timed_cli(argv)[1] for _ in range(REPEATS)]
        shown = " ".join(Path(a).name if a.endswith(".session") else a for a in argv)
        print(f"{statistics.median(times) * 1000:9.1f} ms  "
              f"(min {min(times) * 1000:.1f})  {shown}")


def _loop():
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return time.perf_counter() - w0, time.process_time() - c0


def noise_child():
    argv = ["wpr", str(ROOT / "sessions" / "s06_witness_a4.session"), "--depth", "4"]
    _, wpr_wall, wpr_cpu = _timed_cli(argv)
    loop_wall, loop_cpu = _loop()
    print(json.dumps({"wpr_wall": wpr_wall, "wpr_cpu": wpr_cpu,
                      "loop_wall": loop_wall, "loop_cpu": loop_cpu}))


def noise():
    rows = []
    for _ in range(PROCESSES):
        out = subprocess.run([sys.executable, __file__, "noise-child"], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        rows.append(json.loads(out.stdout))
        print(" ".join(f"{k} {v:.3f}" for k, v in rows[-1].items()), flush=True)
    for key in rows[0]:
        values = [r[key] for r in rows]
        print(f"{key}: {min(values):.3f}-{max(values):.3f} s, "
              f"median {statistics.median(values):.3f} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("what", choices=("golden", "noise", "noise-child"))
    args = p.parse_args(argv)
    if args.what == "golden":
        golden()
    elif args.what == "noise":
        noise()
    else:
        noise_child()
    return 0


if __name__ == "__main__":
    sys.exit(main())
