"""Benchmark of the ``proregular`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload witness-q --seed 1 --seconds 40 --trace 0

The workload's commands run in this process through ``proregular.cli.run``,
exactly the argument lists a user passes to ``proregular``, one sweep of the
whole list after another until ``--seconds`` would be exceeded (at least one
sweep).  Before each sweep, outside its timed span, ``proregular`` is
imported afresh, so that no sweep finds a cache that an earlier one filled,
just as every ``proregular <command> <session>`` starts a new process.
Every report is checked against the benchmark's own computation (see
``workloads.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
sweeps).  With ``--trace 1`` the layers are wrapped (see ``layertrace.py``) and
the metrics are the per-layer ones: counts of one sweep and median self
times; the full per-layer table goes to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 20  # before the sweeps; each sweep adds one more set-up

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(name: str, seed: int, session_dir: Path):
    """Import ``proregular`` afresh and write the workload's session files.

    Returns the CLI module and the commands with session paths filled in.
    """
    for mod in [m for m in sys.modules if m == "proregular" or m.startswith("proregular.")]:
        del sys.modules[mod]
    cli = importlib.import_module("proregular.cli")
    load = workloads.WORKLOADS[name](seed)
    session_dir.mkdir(parents=True, exist_ok=True)
    for fname, text in load.sessions.items():
        (session_dir / fname).write_text(text, encoding="utf-8")
    for cmd in load.commands:
        cmd.argv = [str(session_dir / a) if a in load.sessions else a for a in cmd.argv]
    return cli, load.commands


def run_command(cli, argv):
    """One CLI invocation: ``(exit_code, report_or_None, wall_s, cpu_s)``.

    An exception escaping ``cli.run`` is what a user sees as a traceback and
    exit status 1."""
    buf = io.StringIO()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    except Exception:  # noqa: BLE001 - the benchmark records the crash
        code = 1
    w1, c1 = time.perf_counter(), time.process_time()
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = None
    return code, report, w1 - w0, c1 - c0


def sweep(cli, commands, stats):
    """Run every command once; returns ``(wall_s, cpu_s, per-command wall)``."""
    wall = cpu = 0.0
    times = []
    for cmd in commands:
        code, report, w, c = run_command(cli, cmd.argv)
        wall += w
        cpu += c
        times.append(w)
        reason = "no JSON report" if report is None else cmd.check(code, report)
        stats["attempted"] += 1
        if reason is not None:
            stats["failed"] += 1
            if not cmd.fault:
                stats["correct"] = False
                stats["errors"].setdefault(" ".join(cmd.argv), reason)
    return wall, cpu, times


def measure(workload, seed, session_dir, seconds, stats, setup_times, before=None,
            after=None):
    """Set-up and sweep, again and again, until the next pair would end past
    ``seconds``.  The set-up times are appended to ``setup_times``."""
    results = []
    started = time.perf_counter()
    while True:
        lap = time.perf_counter()
        gc.collect()
        t0 = time.perf_counter()
        cli, commands = set_up(workload, seed, session_dir)
        setup_times.append(time.perf_counter() - t0)
        if before:
            before()
        results.append(sweep(cli, commands, stats))
        if after:
            after()
        now = time.perf_counter()
        if now - started + (now - lap) > seconds:
            return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proregular" / "cli.py").is_file():
        print(f"proregular sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    session_dir = OUT / f"{args.workload}-seed{args.seed}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        set_up(args.workload, args.seed, session_dir)
        setup_times.append(time.perf_counter() - t0)

    stats = {"attempted": 0, "failed": 0, "correct": True, "errors": {}}
    if args.trace:
        metrics = traced_metrics(args, session_dir, stats, setup_times)
    else:
        results = measure(args.workload, args.seed, session_dir, args.seconds, stats,
                          setup_times)
        per_command = [statistics.median(r[2][k] for r in results)
                       for k in range(len(results[0][2]))]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(r[0] for r in results), "s"),
            "cpu_s": (statistics.median(r[1] for r in results), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "cmd_p50_s": (statistics.median(per_command), "s"),
        }
    for command, reason in stats["errors"].items():
        print(f"check failed: {command}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": stats["correct"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(args, session_dir, stats, setup_times):
    from layertrace import Tracer, sweep_metrics

    tracer = Tracer()
    sweeps = []
    results = measure(args.workload, args.seed, session_dir, args.seconds, stats,
                      setup_times, before=tracer.install,
                      after=lambda: sweeps.append(sweep_metrics(tracer)))
    counts = sweeps[0][0]
    times = {k: statistics.median(s[1][k] for s in sweeps) for k in sweeps[0][1]}
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "sweeps": len(sweeps),
        "counts_repeat": all(s[0] == counts for s in sweeps),
        "traced_wall_s": statistics.median(r[0] for r in results),
        "counts": counts, "times": times,
        "per_sweep_layers": [s[2] for s in sweeps],
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    metrics = {k: (v, "ratio" if k.endswith("_ratio") else "count")
               for k, v in counts.items()}
    metrics.update({k: (v, "s") for k, v in times.items()})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
