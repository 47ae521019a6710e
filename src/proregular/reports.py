"""Canonical machine-readable reports for the command line front end.

Reports are plain dicts built in a fixed key order and rendered either as
JSON (schema 1) or TSV.  Given identical inputs the rendered bytes are
identical across runs: every list is canonically ordered and timing is
only included on request.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement

from .fpmod import FpModule, minimized
from .towers import VanishingVerdict
from .poly import mono_divides


SCHEMA_VERSION = 1


def module_summary(m: FpModule) -> dict:
    """Canonical summary: invariant factors over Z, generator/relation
    counts plus Hilbert samples of the minimized presentation otherwise."""
    if m.ring.kind == "integers":
        rank, tors = m.abelian_invariants()
        return {"backend": "Z", "free_rank": rank, "invariant_factors": tors}
    m = minimized(m)[0]
    return {
        "backend": "poly",
        "generators": m.ngens,
        "relations": m.relations.ncols,
        "hilbert_samples": hilbert_samples(m),
    }


def hilbert_samples(m: FpModule, max_degree: int = 6) -> list:
    """Counts of standard module monomials per total degree ``0..max``.

    A standard monomial is ``x^e * gen_k`` not divisible by the leading
    term of any relation in the reduced module Groebner basis; for graded
    input this is the Hilbert function of the cokernel.
    """
    base = m.ring.poly_ring
    from .groebner import TopOrder, columns_to_vectors, vec_lead
    order = TopOrder(base.order)
    vecs = [v for v in columns_to_vectors(
        base, [list(m.relations.col(j)) for j in range(m.relations.ncols)]) if v]
    leads = [vec_lead(order, v) for v in vecs]
    nvars = base.nvars
    out = []
    for d in range(max_degree + 1):
        count = 0
        for exps in combinations_with_replacement(range(nvars), d):
            exp = [0] * nvars
            for i in exps:
                exp[i] += 1
            exp = tuple(exp)
            for pos in range(m.ngens):
                if not any(lp == pos and mono_divides(le, exp) for lp, le in leads):
                    count += 1
        out.append(count)
    return out


def vanishing_verdict_dict(v: VanishingVerdict) -> dict:
    out = {
        "status": v.status,
        "depth": v.depth,
        "window": v.window,
        "required_levels": list(v.required_levels),
        "certificates": {str(i): v.certificates.get(i)
                         for i in sorted(v.certificates)},
    }
    if v.status != "pass":
        out["witness_level"] = v.witness_level
        out["nonzero_partners"] = list(v.nonzero_partners)
    return out


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def render_tsv(report: dict) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            if all(not isinstance(x, (dict, list, tuple)) for x in value):
                lines.append(prefix + "\t" + "\t".join(_scalar(x) for x in value))
            else:
                for i, x in enumerate(value):
                    walk(f"{prefix}[{i}]", x)
        else:
            lines.append(prefix + "\t" + _scalar(value))

    walk("", report)
    return "\n".join(lines) + "\n"


def _scalar(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)
