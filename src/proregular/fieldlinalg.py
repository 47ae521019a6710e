"""The coefficient fields: the rationals and prime fields.

A field is a small arithmetic object (``RationalField`` or ``PrimeField``).
An element of Q is an ``int`` when it is integral and a lowest-terms
``Fraction`` otherwise, one form per value (see ``RationalField``); an
element of F_p is an int in ``[0, p)``.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _integral(q):
    """``q`` as an ``int`` when its denominator is 1; ``q`` otherwise."""
    return q if q.__class__ is int or q.denominator != 1 else q.numerator


class RationalField:
    """The field Q.

    An element is an ``int`` when it is integral and a ``Fraction`` in
    lowest terms otherwise.  Every operation returns that form (``_integral``
    turns a result with denominator 1 back into an ``int``), so each value has
    one representation, and it is canonical: an ``int`` compares, hashes and
    prints like the ``Fraction`` of the same value, so polynomials, their
    equality and every report are as with ``Fraction`` elements alone.
    Arithmetic on integral values, most of a Groebner basis computation,
    builds no ``Fraction``.
    """

    tag = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        return x if x.__class__ is int else _integral(Fraction(x))

    def add(self, a, b):
        return _integral(a + b)

    def sub(self, a, b):
        return _integral(a - b)

    def mul(self, a, b):
        return _integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a.__class__ is int:
            return a if a == 1 or a == -1 else Fraction(1, a)
        return _integral(Fraction(a.denominator, a.numerator))

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p; elements are ints reduced mod p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.tag = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"
