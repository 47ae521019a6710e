"""Workload generators and the independent checks of their reports.

Each workload turns a seed into session-file texts and a list of CLI
commands over those files.  Every command carries a check that compares the
command's exit code and JSON report with a result the benchmark computes by
itself (closed forms, or its own monomial combinatorics), never with saved
output and never with ``proregular`` code.

A check returns ``None`` when the report is right and a one-line reason
otherwise.  Commands marked ``fault`` exercise a known break of the CLI's
exit-code contract (bad options must give exit 3 with a JSON ``error``):
they count as failed operations until the program is mended, but do not
make the run incorrect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import gcd
from typing import Callable

EXIT_PASS = 0
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3
SAMPLES = 7  # reports give Hilbert samples in degrees 0..6


@dataclass
class Command:
    argv: list          # CLI arguments; a session is named by its file name
    check: Callable     # (exit_code, report) -> None | reason
    fault: bool = False


@dataclass
class Workload:
    sessions: dict      # file name -> session text
    commands: list      # Command, in sweep order


# ---------------------------------------------------------------------------
# shared checks


def _expect(cond, reason):
    return None if cond else reason


def _all_checks(*results):
    for r in results:
        if r is not None:
            return r
    return None


def _certificates(n_ann: int, depth: int) -> dict:
    """Least zero partner of each level for ``a = (x)`` acting on a ring in
    which ``H^{-1}(K(x^j)) -> H^{-1}(K(x^i))`` is multiplication by
    ``x^{j-i}`` on ``ann(x^j)``, nonzero exactly when ``j - i < n_ann``."""
    out = {}
    for i in range(1, depth):
        j = i + max(n_ann, 1)
        out[str(i)] = j if j <= depth else None
    return out


def _required_levels(depth: int, window: int) -> list:
    return sorted({1} | {i for i in range(1, depth + 1) if 2 * i + window <= depth})


def wpr_expectation(n_ann: int, depth: int, window: int = 1) -> dict:
    certs = _certificates(n_ann, depth)
    req = _required_levels(depth, window)
    missing = [i for i in req if certs[str(i)] is None]
    exp = {"status": "pass" if not missing else "undetermined",
           "depth": depth, "window": window, "required_levels": req,
           "certificates": certs}
    if missing:
        exp["witness_level"] = missing[0]
        exp["nonzero_partners"] = list(range(missing[0] + 1, depth + 1))
    return exp


def check_wpr(n_ann: int, depth: int):
    exp = wpr_expectation(n_ann, depth)

    def check(code, rep):
        want_code = EXIT_PASS if exp["status"] == "pass" else EXIT_UNDETERMINED
        return _all_checks(
            _expect(code == want_code, f"exit {code}, expected {want_code}"),
            _expect(rep.get("verdict") == exp["status"],
                    f"verdict {rep.get('verdict')}, expected {exp['status']}"),
            _expect(rep.get("per_degree") == {"-1": exp},
                    "per-degree certificates differ from the closed form"))
    return check


def check_idempotence(n_ann: int, depth: int):
    precheck = wpr_expectation(n_ann, depth)["status"] == "pass"

    def check(code, rep):
        verdict = rep.get("verdict")
        if not precheck:
            return _all_checks(
                _expect(code == EXIT_UNDETERMINED, f"exit {code} without WPR"),
                _expect(verdict == "undetermined" and "reason" in rep,
                        "missing precheck verdict"))
        sides = rep.get("sides") or {}
        statuses = [v["status"] for per in sides.values() for v in per.values()]
        want = EXIT_PASS if verdict == "pass" else EXIT_UNDETERMINED
        return _all_checks(
            _expect("reason" not in rep, "WPR precheck failed unexpectedly"),
            _expect(verdict in ("pass", "undetermined"), f"verdict {verdict}"),
            _expect(code == want, f"exit {code} disagrees with verdict {verdict}"),
            _expect(bool(statuses), "no side verdicts"),
            _expect((verdict == "pass") == all(s == "pass" for s in statuses),
                    "verdict disagrees with the side verdicts"))
    return check


def check_fault(code, rep):
    return _all_checks(
        _expect(code == EXIT_INPUT, f"exit {code}, expected {EXIT_INPUT}"),
        _expect("error" in rep, "no error in the report"))


# ---------------------------------------------------------------------------
# witness-q: non-Noetherian-looking witness rings over Q


def witness_ring_text(rng: random.Random, n: int) -> str:
    """``A_n = Q[x, e_1..e_n]/(e_i x^i, e_i e_j)`` with ``a = (c x)``.

    The seed only rescales generators by units and shuffles the order of the
    defining relations: the ring, the ideal and every verdict stay the same.
    """
    units = (1, 2, 3, -1, -2, -3)
    rels = [f"e{i}*x^{i}" for i in range(1, n + 1)]
    rels += [f"e{i}*e{j}" for i in range(1, n + 1) for j in range(i, n + 1)]
    rels = [r if (u := rng.choice(units)) == 1 else f"{u}*{r}" for r in rels]
    rng.shuffle(rels)
    variables = ", ".join(["x"] + [f"e{i}" for i in range(1, n + 1)])
    c = rng.choice(units)
    gen = "x" if c == 1 else f"{c}*x"
    return (f"# witness ring A{n}\n"
            f"ring Q[{variables}] mod ({', '.join(rels)})\n"
            f"ideal a = ({gen})\n")


# (n, depth) of each wpr command: certificates of A_n appear from depth
# n + 1 on, so the list sits on both sides of that level.
WITNESS_WPR = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
# (n, depth) of each idempotence command: A1 passes the WPR precheck at
# depth 4, A2 fails it at depth 2.
WITNESS_IDEMPOTENCE = ((1, 4), (2, 2))


def witness_q(seed: int) -> Workload:
    rng = random.Random(f"witness-q:{seed}")
    ns = sorted({n for n, _ in WITNESS_WPR + WITNESS_IDEMPOTENCE})
    sessions = {f"A{n}.session": witness_ring_text(rng, n) for n in ns}
    commands = [Command(["wpr", f"A{n}.session", "--depth", str(d)],
                        check_wpr(n, d)) for n, d in WITNESS_WPR]
    commands += [Command(["idempotence", f"A{n}.session", "--depth", str(d)],
                         check_idempotence(n, d))
                 for n, d in WITNESS_IDEMPOTENCE]
    return Workload(sessions, commands)


# ---------------------------------------------------------------------------
# poly-ext: Ext and Koszul towers over polynomial rings


def monomials(nvars: int, degree: int):
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        yield tuple(e)


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def quotient_hilbert(gens, nvars: int, power: int) -> list:
    """Hilbert function of ``k[x]/b^power`` in degrees 0..6, counted
    directly: monomials divisible by no product of ``power`` generators."""
    prods = set()
    for combo in combinations_with_replacement(gens, power):
        prods.add(tuple(map(sum, zip(*combo))))
    return [sum(1 for m in monomials(nvars, d)
                if not any(divides(g, m) for g in prods))
            for d in range(SAMPLES)]


def grade(gens, nvars: int) -> int:
    """Grade of a monomial ideal: the least number of variables meeting the
    support of every generator (its height, over a polynomial ring)."""
    for size in range(nvars + 1):
        for cover in combinations(range(nvars), size):
            if all(any(g[v] for v in cover) for g in gens):
                return size
    raise ValueError("the zero ideal has no finite grade")


def koszul_top_hilbert(nvars: int, power: int) -> list:
    """Coefficients of ``((1 - t^power)/(1 - t))^nvars`` in degrees 0..6."""
    coeffs = [1]
    for _ in range(nvars):
        nxt = [0] * (len(coeffs) + power - 1)
        for i, c in enumerate(coeffs):
            for k in range(power):
                nxt[i + k] += c
        coeffs = nxt
    return (coeffs + [0] * SAMPLES)[:SAMPLES]


def _levels(rep):
    levels = rep.get("levels")
    return levels if isinstance(levels, list) else []


def check_levels(depth: int, samples_of_level, surjective: bool = False):
    """Each level ``i = 1..depth`` must have the Hilbert samples
    ``samples_of_level(i)``; with ``surjective``, so must every transition
    be surjective."""
    def check(code, rep):
        levels = _levels(rep)
        if code != EXIT_PASS or len(levels) != depth:
            return f"exit {code} with {len(levels)} levels, expected 0 and {depth}"
        for i, lev in enumerate(levels, start=1):
            want = samples_of_level(i)
            if lev.get("hilbert_samples") != want:
                return f"level {i}: samples {lev.get('hilbert_samples')}, expected {want}"
        if surjective and not all(t.get("surjective") for t in rep["transitions"]):
            return "a transition is not surjective"
        return None
    return check


def check_vanishing(depth: int, nonzero: bool):
    """Every level zero (``nonzero`` false) or every level nonzero.

    Samples come from a Groebner basis of the relations, so a module is
    nonzero exactly when some generator is a standard monomial, i.e. when
    the degree-0 sample is positive."""
    def check(code, rep):
        levels = _levels(rep)
        if code != EXIT_PASS or len(levels) != depth:
            return f"exit {code} with {len(levels)} levels, expected 0 and {depth}"
        for i, lev in enumerate(levels, start=1):
            samples = lev.get("hilbert_samples") or [0]
            if (samples[0] > 0) is not nonzero:
                return f"level {i} is {'zero' if not samples[0] else 'nonzero'}"
        return None
    return check


def check_mgm_pass(code, rep):
    return _all_checks(
        _expect(code == EXIT_PASS, f"exit {code}, expected 0"),
        _expect(rep.get("verdict") == "pass", f"verdict {rep.get('verdict')}"),
        _expect(rep.get("torsion_of_completion", {}).get("status") == "pass"
                and rep.get("completion_of_torsion", {}).get("status") == "pass",
                "a side of the equivalence did not pass"))


def random_monomial_ideal(rng: random.Random, nvars: int, ngens: int,
                          want_grade: int) -> list:
    """``ngens`` minimal monomials of degree 2 or 3 with exponents <= 2,
    generating an ideal of grade ``want_grade`` (fixed, so that every seed
    runs the same commands)."""
    pool = [m for d in (2, 3) for m in monomials(nvars, d) if max(m) <= 2]
    while True:
        gens = rng.sample(pool, ngens)
        if not any(a != b and divides(a, b) for a in gens for b in gens) \
                and grade(gens, nvars) == want_grade:
            return sorted(gens, reverse=True)


def monomial_text(exp, names) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e]
    return "*".join(parts)


def poly_session(field: str, names, gens, ideal: str) -> str:
    gens_text = ", ".join(monomial_text(g, names) for g in gens)
    return (f"ring {field}[{', '.join(names)}]\n"
            f"ideal {ideal} = ({gens_text})\n"
            "module R = [[]]\n")


XY = ("x", "y")
XYZ = ("x", "y", "z")
DEPTH = 3  # depth of every tower


def poly_ext(seed: int) -> Workload:
    rng = random.Random(f"poly-ext:{seed}")
    sessions = {
        "s03.session": "ring Q[x, y]\nideal a = (x, y)\nmodule Mxy = [[x, y]]\n",
    }
    commands = []

    def tower(name, model, degree, check):
        commands.append(Command(
            ["lc-tower", name, "--module", "R", "--degree", str(degree),
             "--depth", str(DEPTH), "--model", model], check))

    def completion(name, samples_of_level):
        commands.append(Command(
            ["completion-tower", name, "--module", "R", "--depth", str(DEPTH)],
            check_levels(DEPTH, samples_of_level, surjective=True)))

    for field, names in (("Q", XY), ("Q", XYZ), ("F5", XYZ)):
        r = len(names)
        name = f"m_{field}{r}.session"
        maximal = [tuple(int(i == v) for i in range(r)) for v in range(r)]
        sessions[name] = poly_session(field, names, maximal, "m")
        tower(name, "ext", r, check_levels(
            DEPTH, lambda i, m=maximal, r=r:
            (quotient_hilbert(m, r, i)[:i][::-1] + [0] * SAMPLES)[:SAMPLES]))
        tower(name, "koszul", r, check_levels(
            DEPTH, lambda i, r=r: koszul_top_hilbert(r, i)))
        for model in ("ext", "koszul"):
            tower(name, model, r - 1, check_vanishing(DEPTH, nonzero=False))
        completion(name, lambda i, m=maximal, r=r: quotient_hilbert(m, r, i))

    # the seed picks one monomial ideal of grade 2 in each number of variables
    b2 = random_monomial_ideal(rng, 2, 3, 2)
    b3 = random_monomial_ideal(rng, 3, 3, 2)
    for field, names, gens in (("Q", XY, b2), ("Q", XYZ, b3), ("F5", XYZ, b3)):
        r = len(names)
        name = f"b_{field}{r}.session"
        sessions[name] = poly_session(field, names, gens, "b")
        g = grade(gens, r)
        for p in range(g + 1):
            for model in ("ext", "koszul"):
                tower(name, model, p, check_vanishing(DEPTH, nonzero=(p == g)))
        completion(name, lambda i, gens=gens, r=r: quotient_hilbert(gens, r, i))

    commands.append(Command(["mgm-check", "s03.session", "--module", "Mxy",
                             "--depth", "4"], check_mgm_pass))
    return Workload(sessions, commands)


# ---------------------------------------------------------------------------
# integers: many short commands over Z


def z_module(m: int) -> dict:
    """``module_summary`` of ``Z/m`` (``m >= 1``)."""
    return {"backend": "Z", "free_rank": 0,
            "invariant_factors": [m] if m > 1 else []}


def v_p(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def check_z_levels(key: str, modules, surjective: bool = False):
    """The report's ``key`` entry is exactly ``modules``; with
    ``surjective``, every transition must be surjective."""
    def check(code, rep):
        got = rep.get(key)
        if code != EXIT_PASS or got != modules:
            return f"exit {code}, {key} {got}, expected {modules}"
        if surjective and not all(t.get("surjective") for t in rep["transitions"]):
            return "a transition is not surjective"
        return None
    return check


def check_z_gamma(want: dict):
    def check(code, rep):
        return _expect(code == EXIT_PASS and rep.get("torsion_submodule") == want,
                       f"exit {code}, torsion {rep.get('torsion_submodule')}, "
                       f"expected {want}")
    return check


def check_z_verdicts(prime: int):
    """``stability`` and ``thm45`` pass for every prime."""
    def check(code, rep):
        mods = rep.get("modules") or {}
        return _all_checks(
            _expect(code == EXIT_PASS and rep.get("verdict") == "pass",
                    f"exit {code}, verdict {rep.get('verdict')}"),
            _expect(rep.get("prime") == prime, f"prime {rep.get('prime')}"),
            _expect(bool(mods) and all(m.get("ok") is True for m in mods.values()),
                    "a test module is not ok"))
    return check


def check_z_koszul(prime: int, depth: int):
    want = {str(i): {"ranks": {"-1": 1, "0": 1},
                     "cohomology": {"-1": z_module(1), "0": z_module(prime ** i)}}
            for i in range(1, depth + 1)}
    return check_z_levels("levels", want)


def check_z_pass(code, rep):
    return _expect(code == EXIT_PASS and rep.get("verdict") == "pass",
                   f"exit {code}, verdict {rep.get('verdict')}")


PRIMES = (2, 3, 5, 7)
Z_CASES = 4
Z_DEPTH = 4

FAULT_SESSION = "ring Z\nideal a = (2)\nmodule M = [[4]]\n"
# Bad options that must be refused with exit 3; independent of the seed.
FAULT_ARGV = (
    ["wpr", "faults.session", "--depth", "1"],
    ["idempotence", "faults.session", "--depth", "1"],
    ["wpr", "faults.session", "--depth", "4", "--window", "4"],
    ["completion-tower", "faults.session", "--module", "M", "--depth", "0"],
    ["stability", "faults.session", "--depth", "-1"],
    ["koszul", "faults.session", "--depth", "0"],
)


def _cofactor(rng: random.Random, p: int) -> int:
    return rng.choice([u for u in (1, 2, 3, 5, 7, 11, 13) if u % p])


def integers(seed: int) -> Workload:
    rng = random.Random(f"integers:{seed}")
    sessions = {"faults.session": FAULT_SESSION}
    commands = []
    d = Z_DEPTH
    for case in range(Z_CASES):
        p = rng.choice(PRIMES)
        n = p ** rng.randint(1, 3) * _cofactor(rng, p)
        c = p ** rng.randint(0, 3) * _cofactor(rng, p)
        chain = [rng.randint(2, 6)]
        for _ in range(2):
            chain.append(chain[-1] * rng.randint(2, 3))
        name = f"z{case}.session"
        sessions[name] = (f"ring Z\nideal a = ({p})\nmodule M = [[{n}]]\n"
                          "module Z1 = [[]]\nmodule F = [[]]\n"
                          f"complex C = degrees (-1, 0) modules (F, F) maps ([[{c}]])\n")
        pw = [p ** i for i in range(1, d + 1)]
        mod_n = [z_module(gcd(n, q)) for q in pw]
        free = [z_module(q) for q in pw]
        zero = [z_module(1)] * d

        def add(argv, check):
            commands.append(Command([argv[0], name] + argv[1:], check))

        add(["wpr", "--depth", str(d + 1)], check_wpr(0, d + 1))
        add(["koszul", "--depth", "3"], check_z_koszul(p, 3))
        add(["gamma", "--module", "M"], check_z_gamma(z_module(p ** v_p(n, p))))
        add(["gamma", "--module", "Z1"], check_z_gamma(z_module(1)))
        for model in ("ext", "koszul"):
            add(["lc-tower", "--module", "Z1", "--degree", "1", "--depth", str(d),
                 "--model", model], check_z_levels("levels", free))
            add(["lc-tower", "--module", "Z1", "--degree", "0", "--depth", str(d),
                 "--model", model], check_z_levels("levels", zero))
            for degree in (0, 1):
                add(["lc-tower", "--module", "M", "--degree", str(degree),
                     "--depth", str(d), "--model", model],
                    check_z_levels("levels", mod_n))
        add(["completion-tower", "--module", "M", "--depth", str(d)],
            check_z_levels("levels", mod_n, surjective=True))
        add(["completion-tower", "--module", "Z1", "--depth", str(d)],
            check_z_levels("levels", free, surjective=True))
        tor = [z_module(gcd(c, q)) for q in pw]
        add(["completion-tower", "--complex", "C", "--depth", str(d)],
            check_z_levels("per_degree", {"-2": zero, "-1": tor, "0": tor}))
        add(["profinite-tower", "--module", "M", "--chain", ",".join(map(str, chain))],
            check_z_levels("levels", [z_module(gcd(n, k)) for k in chain]))
        add(["mgm-check", "--module", "M", "--depth", str(d)], check_mgm_pass)
        add(["idempotence", "--depth", str(d)], check_z_pass)
        add(["stability", "--depth", "6"], check_z_verdicts(p))
        add(["thm45", "--depth", "6"], check_z_verdicts(p))
    commands += [Command(list(argv), check_fault, fault=True) for argv in FAULT_ARGV]
    return Workload(sessions, commands)


WORKLOADS = {"witness-q": witness_q, "poly-ext": poly_ext, "integers": integers}
