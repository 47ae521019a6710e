"""Multivariate polynomial arithmetic over Q and F_p.

Monomials are exponent tuples (one slot per ring variable).  A polynomial is
an immutable, canonically sorted term list; the ring object owns the
coefficient field, the variable names and the monomial order, and provides
parsing and canonical printing of the term grammar

    3*x^2*y - 1/2*z + 7

Terms are printed in the ring's order with coefficients in lowest terms, so
string output is deterministic and round-trips through ``PolyRing.parse``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub

from .fieldlinalg import PrimeField, RationalField


class KeyMemo(dict):
    """Sort keys of an order, each computed once: ``memo[m]`` calls
    ``key(m)`` on the first lookup of ``m`` and stores the result.

    A memo belongs to one order object and dies with it; no memo is kept at
    module level."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __missing__(self, m):
        k = self[m] = self.key(m)
        return k


class MonomialOrder:
    """A total monomial order: one of ``grevlex``, ``lex``, ``grlex``.

    ``keys`` memoizes ``key`` per exponent for the life of the order (one
    ring's, in practice)."""

    VARIANTS = ("grevlex", "lex", "grlex")

    def __init__(self, variant: str = "grevlex"):
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown monomial order {variant!r}")
        self.variant = variant
        self.keys = KeyMemo(self.key)

    def key(self, exp: tuple):
        if self.variant == "lex":
            return exp
        if self.variant == "grlex":
            return (sum(exp), exp)
        # grevlex: higher total degree first, ties broken by the smallest
        # trailing exponent (reverse scan, negated)
        return (sum(exp), tuple(-e for e in reversed(exp)))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.variant == self.variant

    def __hash__(self):
        return hash(self.variant)

    def __repr__(self):
        return self.variant


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mono_deg(a: tuple) -> int:
    return sum(a)


class Poly:
    """Immutable polynomial: term list sorted descending by the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        # terms: iterable of (exp tuple, coeff); assumed normalized by ring
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def lead_exp(self) -> tuple:
        return self.terms[0][0]

    def constant_value(self):
        """Coefficient of the constant monomial (0 if absent)."""
        nil = (0,) * self.ring.nvars
        for e, c in self.terms:
            if e == nil:
                return c
        return self.ring.field.zero()

    def is_constant(self) -> bool:
        nil = (0,) * self.ring.nvars
        return all(e == nil for e, _ in self.terms)

    def __add__(self, other):
        return self.ring.add(self, other)

    def __sub__(self, other):
        return self.ring.sub(self, other)

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def __pow__(self, k: int):
        return self.ring.pow(self, k)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(type(self)), self.terms))

    def __repr__(self):
        return self.ring.to_str(self)


class PolyRing:
    """Polynomial ring ``field[vars]`` with a fixed monomial order."""

    def __init__(self, field, variables, order: MonomialOrder | str = "grevlex"):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for v in variables:
            if not v.isidentifier():
                raise ValueError(f"bad variable name {v!r}")
        self.field = field
        self.variables = variables
        self.nvars = len(variables)
        self.order = order if isinstance(order, MonomialOrder) else MonomialOrder(order)
        self._zero = Poly(self, ())
        self._one = Poly(self, (((0,) * self.nvars, field.one()),))

    # -- construction -----------------------------------------------------

    def from_terms(self, items) -> Poly:
        acc = {}
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != self.nvars:
                raise ValueError("exponent length mismatch")
            c0 = acc.get(exp, self.field.zero())
            acc[exp] = self.field.add(c0, c)
        keys = self.order.keys
        terms = [(e, c) for e, c in acc.items() if not self.field.is_zero(c)]
        terms.sort(key=lambda t: keys[t[0]], reverse=True)
        return Poly(self, terms)

    def zero(self) -> Poly:
        return self._zero

    def one(self) -> Poly:
        return self._one

    def coerce(self, x) -> Poly:
        if isinstance(x, Poly):
            if x.ring != self:
                raise ValueError("polynomial from a different ring")
            return x
        if isinstance(x, str):
            return self.parse(x)
        return self.from_terms([((0,) * self.nvars, self.field.coerce(x))])

    def monomial(self, exp: tuple, coeff=None) -> Poly:
        c = self.field.one() if coeff is None else coeff
        return self.from_terms([(tuple(exp), c)])

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Poly, b: Poly) -> Poly:
        return self.from_terms(list(a.terms) + list(b.terms))

    def neg(self, a: Poly) -> Poly:
        return Poly(self, tuple((e, self.field.neg(c)) for e, c in a.terms))

    def sub(self, a: Poly, b: Poly) -> Poly:
        return self.add(a, self.neg(b))

    def mul(self, a: Poly, b: Poly) -> Poly:
        if a.is_zero() or b.is_zero():
            return self.zero()
        acc = {}
        f = self.field
        for ea, ca in a.terms:
            for eb, cb in b.terms:
                e = mono_mul(ea, eb)
                c0 = acc.get(e)
                c = f.mul(ca, cb)
                acc[e] = c if c0 is None else f.add(c0, c)
        keys = self.order.keys
        terms = [(e, c) for e, c in acc.items() if not f.is_zero(c)]
        terms.sort(key=lambda t: keys[t[0]], reverse=True)
        return Poly(self, terms)

    def pow(self, a: Poly, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power")
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def is_unit(self, a: Poly) -> bool:
        return a.is_constant() and not a.is_zero()

    # -- printing / parsing -------------------------------------------------

    def _mono_str(self, exp: tuple) -> str:
        parts = []
        for name, e in zip(self.variables, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def to_str(self, a: Poly) -> str:
        if a.is_zero():
            return "0"
        out = []
        for idx, (exp, c) in enumerate(a.terms):
            mono = self._mono_str(exp)
            cs = self.field.to_str(c)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            if mono and mag == "1":
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = mag
            if idx == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f" - {body}" if neg else f" + {body}")
        return "".join(out)

    def parse(self, text: str) -> Poly:
        """Parse the term grammar; inverse of ``to_str`` on canonical output."""
        return _parse_poly(self, text)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing) and other.field == self.field
            and other.variables == self.variables and other.order == self.order)

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.variables)}] ({self.order})"


# ---------------------------------------------------------------------------
# parsing


class PolyParseError(ValueError):
    pass


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            toks.append(ch)
            i += 1
        elif ch == "/":
            toks.append("/")
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r} in polynomial")
    return toks


def _parse_poly(ring: PolyRing, text: str) -> Poly:
    toks = _tokenize(text)
    if not toks:
        raise PolyParseError("empty polynomial")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        if pos == len(toks):
            raise PolyParseError("unexpected end of polynomial")
        t = toks[pos]
        pos += 1
        return t

    var_index = {v: i for i, v in enumerate(ring.variables)}

    def parse_factor():
        t = peek()
        if isinstance(t, int):
            take()
            num = t
            if peek() == "/":
                take()
                den = take()
                if not isinstance(den, int):
                    raise PolyParseError("expected integer denominator")
                try:
                    coeff = ring.field.coerce(Fraction(num, den))
                except ZeroDivisionError:
                    raise PolyParseError(
                        f"{num}/{den} is not an element of {ring.field}") from None
            else:
                coeff = ring.field.coerce(num)
            return ring.from_terms([((0,) * ring.nvars, coeff)])
        if isinstance(t, str) and t not in "+-*^()/":
            take()
            if t not in var_index:
                raise PolyParseError(f"unknown variable {t!r}")
            e = 1
            if peek() == "^":
                take()
                ex = take()
                if not isinstance(ex, int):
                    raise PolyParseError("expected integer exponent")
                e = ex
            exp = tuple(e if j == var_index[t] else 0 for j in range(ring.nvars))
            return ring.monomial(exp)
        raise PolyParseError(f"unexpected token {t!r}")

    def parse_term():
        f = parse_factor()
        while peek() == "*":
            take()
            f = ring.mul(f, parse_factor())
        return f

    def parse_signed_term(allow_bare: bool):
        sign = 1
        t = peek()
        if t == "+":
            take()
        elif t == "-":
            take()
            sign = -1
        elif not allow_bare:
            raise PolyParseError(f"expected '+' or '-' before {t!r}")
        term = parse_term()
        return term if sign == 1 else ring.neg(term)

    result = parse_signed_term(allow_bare=True)
    while pos < len(toks):
        result = ring.add(result, parse_signed_term(allow_bare=False))
    return result


__all__ = [
    "KeyMemo", "MonomialOrder", "Poly", "PolyRing", "PolyParseError", "PrimeField",
    "RationalField", "mono_mul", "mono_divides", "mono_div", "mono_lcm",
    "mono_deg",
]
