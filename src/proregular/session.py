"""Line-oriented session files describing a ring, ideals, modules, complexes.

Grammar (one declaration per line; ``#`` starts a comment):

    ring Z
    ring Q[x, y]                     # optional: "order grevlex|lex|grlex"
    ring F5[x, y, z] order lex
    ring Q[x, e1] mod (e1*x, e1^2)   # quotient of the polynomial ring
    ideal a = (4, 6)
    module M = [[12]]                # rows = generators, columns = relations
    module N = [[2, 0], [0, 3]]
    complex C = degrees (-1, 0) modules (F, F) maps ([[2]])

Matrix entries are integers or polynomial strings in the declared
variables.  A module line gives the presentation matrix row by row (``g``
rows of ``s`` entries each); ``[[]]`` is one generator with no relations.
A complex lists one module name per degree and, for each adjacent pair,
the matrix of the differential ``C^q -> C^{q+1}`` (``g_{q+1}`` rows).
Validation failures carry the offending line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .complexes import BoundedComplex, ComplexError
from .fpmod import FpModule, IdealSpec, ModuleError, ModuleMorphism
from .intlinalg import Mat
from .rings import (RingError, integers, prime_poly_ring, quotient_ring,
                    rational_poly_ring)


class SessionError(ValueError):
    """Parse or validation failure; carries the 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class SessionFile:
    path: str
    ring: object = None
    ideals: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    complexes: dict = field(default_factory=dict)


_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _strip_comment(line: str) -> str:
    out = []
    for ch in line:
        if ch == "#":
            break
        out.append(ch)
    return "".join(out).strip()


def _split_top_level(text: str, line_no: int):
    """Split on commas at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
            cur.append(ch)
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise SessionError(line_no, "unbalanced brackets")
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SessionError(line_no, "unbalanced brackets")
    last = "".join(cur).strip()
    if last or parts:
        parts.append(last)
    return parts


def _expect_wrapped(text: str, open_ch: str, close_ch: str, line_no: int,
                    what: str) -> str:
    text = text.strip()
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        raise SessionError(line_no, f"expected {what} wrapped in {open_ch}...{close_ch}")
    return text[1:-1].strip()


def _parse_matrix(text: str, ring, line_no: int):
    """``[[a, b], [c, d]]`` -> list of rows of ring elements."""
    inner = _expect_wrapped(text, "[", "]", line_no, "a matrix")
    if not inner:
        raise SessionError(line_no, "empty matrix; use [[]] for one generator")
    rows = []
    for part in _split_top_level(inner, line_no):
        row_text = _expect_wrapped(part, "[", "]", line_no, "a matrix row")
        if not row_text:
            rows.append([])
            continue
        row = []
        for ent in _split_top_level(row_text, line_no):
            try:
                row.append(ring.parse(ent))
            except (RingError, ValueError) as exc:
                raise SessionError(line_no, f"bad entry {ent!r}: {exc}") from None
        rows.append(row)
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise SessionError(line_no, "ragged matrix rows")
    return rows


_RING_HEAD = re.compile(r"^(Z|Q|F(\d+))\s*(\[([^\]]*)\])?\s*(.*)$")


def _parse_ring(rest: str, line_no: int):
    m = _RING_HEAD.match(rest.strip())
    if not m:
        raise SessionError(line_no, f"cannot parse ring {rest!r}")
    head, prime, _, vars_text, tail = m.groups()
    tail = (tail or "").strip()
    if head == "Z":
        if vars_text is not None or tail:
            raise SessionError(line_no, "ring Z takes no variables or clauses")
        return integers()
    if vars_text is None:
        raise SessionError(line_no, "polynomial ring needs variables in [...]")
    variables = [v.strip() for v in vars_text.split(",") if v.strip()]
    if not variables:
        raise SessionError(line_no, "need at least one variable")
    order = "grevlex"
    mod_text = None
    while tail:
        if tail.startswith("order"):
            parts = tail[5:].strip().split(None, 1)
            if not parts:
                raise SessionError(line_no, "order clause needs a value")
            order = parts[0]
            tail = parts[1].strip() if len(parts) > 1 else ""
        elif tail.startswith("mod"):
            mod_text = tail[3:].strip()
            tail = ""
        else:
            raise SessionError(line_no, f"unexpected ring clause {tail!r}")
    if order not in ("grevlex", "lex", "grlex"):
        raise SessionError(line_no, f"unknown monomial order {order!r}")
    try:
        if head == "Q":
            base = rational_poly_ring(variables, order)
        else:
            base = prime_poly_ring(int(prime), variables, order)
    except ValueError as exc:
        raise SessionError(line_no, str(exc)) from None
    if mod_text is None:
        return base
    gens_text = _expect_wrapped(mod_text, "(", ")", line_no, "ideal generators")
    gens = []
    for g in _split_top_level(gens_text, line_no):
        try:
            gens.append(base.parse(g))
        except (RingError, ValueError) as exc:
            raise SessionError(line_no, f"bad ideal generator {g!r}: {exc}") from None
    try:
        return quotient_ring(base, gens)
    except RingError as exc:
        raise SessionError(line_no, str(exc)) from None


def parse_session(path: str) -> SessionFile:
    """Parse and validate a session file; raises ``SessionError``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    session = SessionFile(path=path)
    pending_complexes = []
    for line_no, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "ring":
            if session.ring is not None:
                raise SessionError(line_no, "only one ring per session file")
            session.ring = _parse_ring(rest, line_no)
            continue
        if session.ring is None:
            raise SessionError(line_no, "the ring must be declared first")
        if head in ("ideal", "module", "complex"):
            name, _, body = rest.partition("=")
            name = name.strip()
            body = body.strip()
            if not _NAME.match(name):
                raise SessionError(line_no, f"bad name {name!r}")
            if name in session.ideals or name in session.modules \
                    or name in session.complexes:
                raise SessionError(line_no, f"duplicate name {name!r}")
            if not body:
                raise SessionError(line_no, "missing '=' body")
            if head == "ideal":
                gens_text = _expect_wrapped(body, "(", ")", line_no, "ideal generators")
                gens = []
                for g in _split_top_level(gens_text, line_no):
                    try:
                        gens.append(session.ring.parse(g))
                    except (RingError, ValueError) as exc:
                        raise SessionError(line_no, f"bad generator {g!r}: {exc}") from None
                session.ideals[name] = IdealSpec.make(session.ring, gens, name=name)
            elif head == "module":
                rows = _parse_matrix(body, session.ring, line_no)
                cols = [[rows[r][c] for r in range(len(rows))]
                        for c in range(len(rows[0]))]
                session.modules[name] = FpModule(session.ring, len(rows), cols,
                                                 name=name)
            else:
                pending_complexes.append((line_no, name, body))
            continue
        raise SessionError(line_no, f"unknown declaration {head!r}")
    if session.ring is None:
        raise SessionError(len(lines) or 1, "no ring declared")
    for line_no, name, body in pending_complexes:
        session.complexes[name] = _parse_complex(session, body, line_no, name)
    return session


_COMPLEX_RE = re.compile(
    r"^degrees\s*\(([^)]*)\)\s*modules\s*\((.*?)\)\s*maps\s*\((.*)\)$")


def _parse_complex(session: SessionFile, body: str, line_no: int,
                   name: str) -> BoundedComplex:
    m = _COMPLEX_RE.match(body.strip())
    if not m:
        raise SessionError(line_no,
                           "complex syntax: degrees (lo, hi) modules (...) maps (...)")
    deg_text, mods_text, maps_text = m.groups()
    degs = [d.strip() for d in deg_text.split(",")]
    if len(degs) != 2:
        raise SessionError(line_no, "degrees clause needs (lo, hi)")
    try:
        lo, hi = int(degs[0]), int(degs[1])
    except ValueError:
        raise SessionError(line_no, "degrees must be integers") from None
    if hi < lo:
        raise SessionError(line_no, "degrees must satisfy lo <= hi")
    mod_names = [t.strip() for t in _split_top_level(mods_text, line_no)]
    if len(mod_names) != hi - lo + 1:
        raise SessionError(line_no,
                           f"expected {hi - lo + 1} modules, got {len(mod_names)}")
    mods = []
    for mn in mod_names:
        if mn not in session.modules:
            raise SessionError(line_no, f"unresolved module reference {mn!r}")
        mods.append(session.modules[mn])
    map_texts = _split_top_level(maps_text, line_no) if maps_text.strip() else []
    if len(map_texts) != max(0, hi - lo):
        raise SessionError(line_no,
                           f"expected {max(0, hi - lo)} maps, got {len(map_texts)}")
    diffs = []
    for q, mt in enumerate(map_texts):
        rows = _parse_matrix(mt, session.ring, line_no)
        src, tgt = mods[q], mods[q + 1]
        if len(rows) != tgt.ngens or (rows and len(rows[0]) != src.ngens):
            raise SessionError(
                line_no, f"map {q + lo} must be {tgt.ngens}x{src.ngens}")
        mat = Mat(tgt.ngens, src.ngens, tuple(tuple(r) for r in rows))
        try:
            diffs.append(ModuleMorphism(src, tgt, mat, check=True))
        except ModuleError as exc:
            raise SessionError(line_no, f"map at degree {q + lo}: {exc}") from None
    try:
        return BoundedComplex(session.ring, lo, mods, diffs, check=True)
    except ComplexError as exc:
        raise SessionError(line_no, f"complex {name!r}: {exc}") from None
