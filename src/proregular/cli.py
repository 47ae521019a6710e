"""Command line front end.

Commands operate on a session file and emit one canonical report on stdout
(or ``--out PATH``).  Exit codes: 0 pass/success, 2 undetermined,
3 input error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time

from .complexes import cohomology
from .fieldlinalg import is_prime
from .fpmod import IdealSpec, kernel_generators, quotient_by
from .koszul import (KoszulTower, copointed_idempotence_check,
                     weak_proregularity_check)
from .reports import (SCHEMA_VERSION, module_summary, render_json, render_tsv,
                      vanishing_verdict_dict)
from .resolutions import BudgetExceededError
from .session import SessionError, parse_session
from .torsion import (StabilizationBudgetError, completion_tower,
                      derived_completion_tower, ext_torsion_tower, gamma,
                      koszul_torsion_tower, mgm_check, profinite_tower)
from .zmodclass import (injective_torsion_acyclicity_test,
                        weak_stability_check)

EXIT_PASS = 0
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


class CliInputError(ValueError):
    pass


def _pick(named: dict, requested, what: str):
    if requested is not None:
        if requested not in named:
            raise CliInputError(f"unknown {what} {requested!r}")
        return named[requested]
    if len(named) == 1:
        return next(iter(named.values()))
    if not named:
        raise CliInputError(f"session declares no {what}")
    raise CliInputError(
        f"session declares several {what}s; pick one with --{what}")


def _ideal_of(session, args) -> IdealSpec:
    return _pick(session.ideals, getattr(args, "ideal", None), "ideal")


def _module_of(session, args):
    return _pick(session.modules, getattr(args, "module", None), "module")


def _prime_of(session, args) -> int:
    ideal = _ideal_of(session, args)
    if session.ring.kind != "integers":
        raise CliInputError("this command needs the integer backend")
    if len(ideal.generators) != 1:
        raise CliInputError("this command needs a single-generator ideal (p)")
    p = abs(int(ideal.generators[0]))
    if not is_prime(p):
        raise CliInputError(f"ideal generator {p} is not prime")
    return p


# least --depth of each command that reads it; the window commands also
# read --window, which must satisfy 1 <= window < depth
_LEAST_DEPTH = {"koszul": 1, "lc-tower": 1, "completion-tower": 1, "stability": 1,
                "wpr": 2, "idempotence": 2, "mgm-check": 2}
_WINDOW_COMMANDS = ("wpr", "idempotence", "mgm-check")


def _check_options(args) -> None:
    """Refuse option values the command cannot work with, before any work."""
    least = _LEAST_DEPTH.get(args.command)
    if least is not None and args.depth < least:
        raise CliInputError(f"{args.command} needs --depth >= {least}")
    if args.command in _WINDOW_COMMANDS and not 1 <= args.window < args.depth:
        raise CliInputError(f"{args.command} needs 1 <= --window < --depth")
    if args.command == "gamma" and args.max_stabilization < 1:
        raise CliInputError("gamma needs --max-stabilization >= 1")


def _system_levels(system) -> list:
    return [module_summary(obj) for obj in system.objects]


def _transition_flags(system) -> list:
    """Per transition: is it injective (every kernel generator is zero in
    the source) / surjective (the target modulo the image is zero)?"""
    return [{"injective": all(map(tr.source.contains, kernel_generators(tr))),
             "surjective": quotient_by(tr.target, tr.matrix.cols()).is_zero()}
            for tr in system.transitions]


# ---------------------------------------------------------------------------
# command implementations (each returns (details_dict, exit_code))


def _cmd_koszul(session, args):
    ideal = _ideal_of(session, args)
    levels = {}
    for i, k in enumerate(KoszulTower(ideal, args.depth).stages, start=1):
        ranks = {str(q): k.module(q).free_rank for q in k.degrees()}
        hs = {str(q): module_summary(cohomology(k, q)) for q in k.degrees()}
        levels[str(i)] = {"ranks": ranks, "cohomology": hs}
    return {"ideal": _ideal_dict(ideal), "levels": levels}, EXIT_PASS


def _cmd_wpr(session, args):
    ideal = _ideal_of(session, args)
    verdict = weak_proregularity_check(KoszulTower(ideal, args.depth), args.window)
    details = {
        "ideal": _ideal_dict(ideal),
        "verdict": verdict.status,
        "per_degree": {str(p): vanishing_verdict_dict(v)
                       for p, v in sorted(verdict.per_degree.items())},
    }
    return details, EXIT_PASS if verdict.passed else EXIT_UNDETERMINED


def _cmd_gamma(session, args):
    ideal = _ideal_of(session, args)
    module = _module_of(session, args)
    data = gamma(module, ideal, max_stabilization=args.max_stabilization)
    details = {
        "ideal": _ideal_dict(ideal),
        "module": module.name,
        "stabilization_index": data.stabilization_index,
        "torsion_submodule": module_summary(data.module),
    }
    return details, EXIT_PASS


def _cmd_lc_tower(session, args):
    ideal = _ideal_of(session, args)
    module = _module_of(session, args)
    p = args.degree
    if p is None or p < 0:
        raise CliInputError("lc-tower needs --degree p with p >= 0")
    if args.model == "ext":
        system = ext_torsion_tower(module, ideal, p, args.depth)
    else:
        system = koszul_torsion_tower(module, KoszulTower(ideal, args.depth), p)
    details = {
        "ideal": _ideal_dict(ideal),
        "module": module.name,
        "model": args.model,
        "degree": p,
        "levels": _system_levels(system),
        "transitions": _transition_flags(system),
    }
    return details, EXIT_PASS


def _cmd_completion_tower(session, args):
    ideal = _ideal_of(session, args)
    if getattr(args, "complex", None):
        if args.complex not in session.complexes:
            raise CliInputError(f"unknown complex {args.complex!r}")
        cx = session.complexes[args.complex]
        try:
            towers = derived_completion_tower(cx, KoszulTower(ideal, args.depth))
        except ValueError as exc:
            raise CliInputError(str(exc)) from None
        details = {
            "ideal": _ideal_dict(ideal),
            "complex": args.complex,
            "per_degree": {str(q): _system_levels(sys_)
                           for q, sys_ in sorted(towers.items())},
        }
        return details, EXIT_PASS
    module = _module_of(session, args)
    system = completion_tower(module, ideal, args.depth)
    details = {
        "ideal": _ideal_dict(ideal),
        "module": module.name,
        "levels": _system_levels(system),
        "transitions": _transition_flags(system),
    }
    return details, EXIT_PASS


def _cmd_profinite_tower(session, args):
    module = _module_of(session, args)
    if not args.chain:
        raise CliInputError("profinite-tower needs --chain k1,k2,...")
    try:
        moduli = [int(x) for x in args.chain.split(",")]
    except ValueError:
        raise CliInputError("--chain must be a comma list of integers") from None
    try:
        system = profinite_tower(module, moduli)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    details = {
        "module": module.name,
        "chain": moduli,
        "levels": _system_levels(system),
    }
    return details, EXIT_PASS


def _wpr_refusal(tower: KoszulTower, window: int, head: dict):
    """The exit-2 report of ``mgm-check`` and ``idempotence`` when their
    premise, weak proregularity, is not established on ``tower`` at its
    depth (``head`` plus the reason); ``None`` when it is."""
    if weak_proregularity_check(tower, window).passed:
        return None
    return dict(head, verdict="undetermined",
                reason="weak proregularity precondition not established"), \
        EXIT_UNDETERMINED


def _cmd_mgm_check(session, args):
    ideal = _ideal_of(session, args)
    module = _module_of(session, args)
    tower = KoszulTower(ideal, args.depth)
    head = {"ideal": _ideal_dict(ideal), "module": module.name}
    refusal = _wpr_refusal(tower, args.window, head)
    if refusal:
        return refusal
    report = mgm_check(module, tower, args.window)
    details = {
        **head,
        "verdict": "pass" if report.passed else "undetermined",
        "torsion_of_completion": _side_dict(report.tau_side),
        "completion_of_torsion": _side_dict(report.sigma_side),
    }
    return details, EXIT_PASS if report.passed else EXIT_UNDETERMINED


def _side_dict(side):
    return {
        "status": side.status,
        "stages": {str(k): {str(q): vanishing_verdict_dict(v)
                            for q, v in sorted(per_q.items())}
                   for k, per_q in sorted(side.per_stage.items())},
    }


def _cmd_stability(session, args):
    p = _prime_of(session, args)
    report = weak_stability_check(p, depth=args.depth)
    details = {
        "prime": p,
        "verdict": report.status,
        "modules": report.per_module,
    }
    return details, EXIT_PASS if report.passed else EXIT_UNDETERMINED


def _cmd_thm45(session, args):
    p = _prime_of(session, args)
    report = injective_torsion_acyclicity_test(p, depth=args.depth)
    details = {
        "prime": p,
        "verdict": report.status,
        "modules": report.per_module,
    }
    return details, EXIT_PASS if report.passed else EXIT_UNDETERMINED


def _cmd_idempotence(session, args):
    ideal = _ideal_of(session, args)
    tower = KoszulTower(ideal, args.depth)
    head = {"ideal": _ideal_dict(ideal)}
    refusal = _wpr_refusal(tower, args.window, head)
    if refusal:
        return refusal
    report = copointed_idempotence_check(tower, args.window)
    # the right counit's verdicts are the left's (see the check's docstring)
    per_degree = {str(p): {"status": v.status}
                  for p, v in sorted(report.per_degree.items())}
    details = {
        **head,
        "verdict": report.status,
        "sides": {"left": per_degree, "right": per_degree},
    }
    return details, EXIT_PASS if report.passed else EXIT_UNDETERMINED


def _ideal_dict(ideal: IdealSpec) -> dict:
    return {
        "name": ideal.name,
        "generators": [ideal.ring.to_str(g) for g in ideal.generators],
    }


_COMMANDS = {
    "koszul": _cmd_koszul,
    "wpr": _cmd_wpr,
    "gamma": _cmd_gamma,
    "lc-tower": _cmd_lc_tower,
    "completion-tower": _cmd_completion_tower,
    "profinite-tower": _cmd_profinite_tower,
    "mgm-check": _cmd_mgm_check,
    "stability": _cmd_stability,
    "thm45": _cmd_thm45,
    "idempotence": _cmd_idempotence,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: each command reads the options it needs."""
    parser = argparse.ArgumentParser(
        prog="proregular",
        description="Exact Koszul-tower computations on session files")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("session", help="path to the session file")
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--window", type=int, default=1)
    parser.add_argument("--ideal", default=None)
    parser.add_argument("--module", default=None)
    parser.add_argument("--degree", type=int, default=None)
    parser.add_argument("--model", choices=("ext", "koszul"), default="ext")
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--max-stabilization", type=int, default=32,
                        dest="max_stabilization")
    parser.add_argument("--chain", default=None)
    parser.add_argument("--complex", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--timing", action="store_true")
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    started = time.perf_counter()
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "options": {
            "depth": args.depth,
            "window": args.window,
            "model": args.model,
            "degree": args.degree,
            "max_stabilization": args.max_stabilization,
        },
    }
    try:
        _check_options(args)
        session = parse_session(args.session)
        report["ring"] = repr(session.ring)
        details, code = _COMMANDS[args.command](session, args)
        report.update(details)
        report["exit_status"] = code
    except (SessionError, CliInputError, OSError) as exc:
        report["error"] = str(exc)
        report["exit_status"] = EXIT_INPUT
        code = EXIT_INPUT
    except (BudgetExceededError, StabilizationBudgetError) as exc:
        report["error"] = str(exc)
        report["exit_status"] = EXIT_BUDGET
        code = EXIT_BUDGET
    if args.timing:
        report["timing_seconds"] = round(time.perf_counter() - started, 3)
    text = render_json(report) if args.format == "json" else render_tsv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
