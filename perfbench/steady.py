"""Steadiness record: how much the end-to-end medians move between sets.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --sets 10

Runs ``run.py`` once per set and workload of ``BENCHMARK.json``, for its
``run_seconds``, each run in its own process, one process at a time, with
seed ``set number`` (1..sets) and the sets interleaved across workloads so
that a slow spell of the host falls on every workload alike.  For each
workload and end-to-end metric it prints the median, the quartiles and the
spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the share of
failed operations, and whether every run was correct.  The raw results go
to ``perfbench-out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results: list) -> dict:
    out = {"failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
           "correct": all(r["correct"] for r in results), "metrics": {}}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out["metrics"][metric] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med,
                                  "min": min(values), "max": max(values)}
    return out


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", type=int, default=10)
    args = p.parse_args(argv)
    seconds = benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    raw = {name: [] for name in names}
    for seed in range(1, args.sets + 1):
        for name in names:
            raw[name].append(run_once(name, seed, seconds))
            print(f"set {seed} {name}: {json.dumps(raw[name][-1])}", flush=True)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {name: summarize(results) for name, results in raw.items()}
    for name, s in summary.items():
        print(f"\n{name}: correct={s['correct']} failed share={s['failed_share']}")
        for metric, v in s["metrics"].items():
            print(f"  {metric:12s} median {v['median']:.6g}  q1 {v['q1']:.6g}  "
                  f"q3 {v['q3']:.6g}  spread {v['spread']:.4f}  "
                  f"(bound {bounds.get(metric)})")
    out = ROOT / "perfbench-out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(
        json.dumps({"seconds": seconds, "raw": raw, "summary": summary}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
