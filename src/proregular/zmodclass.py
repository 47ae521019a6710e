"""Closed-form arithmetic for a fixed class of Z-modules.

The class consists of finite direct sums of the indecomposables

    Z,   Z[1/S] (S a finite nonempty set of primes),   Q,
    Z/p^k,   and the Pruefer module Z(p^oo),

which is exactly what is needed to test torsion acyclicity on injective
modules: the injectives in the class are the sums of ``Q`` and ``Z(p^oo)``
summands (the divisible ones).

Closed forms used (all classical):

    Ext1(Z/n, Z)      = Z/n
    Ext1(Z/n, Z[1/S]) = Z/n'   (n' = n with all prime factors in S removed)
    Ext1(Z/n, Z/p^k)  = Z/p^min(v_p(n), k)
    Ext1(Z/n, divisible) = 0
    Gamma_p  picks the p-primary summands (Z/p^k and Z(p^oo))
    the cokernel of D -> D[1/p] has one Z(p^oo) for each summand Z, and for
    each summand Z[1/S] with p not in S

Every closed form is cross-checked against presentation computations on
truncated models in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fieldlinalg import is_prime


def _v_p(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class Summand:
    """One indecomposable: kind in {"Z", "ZinvS", "Q", "Zmod", "Pruefer"}."""

    kind: str
    primes: tuple = ()  # ZinvS: the inverted primes
    p: int = 0          # Zmod / Pruefer
    k: int = 0          # Zmod exponent

    def __post_init__(self):
        if self.kind == "ZinvS":
            if not self.primes:
                raise ValueError("Z[1/S] needs a nonempty prime set")
            for q in self.primes:
                if not is_prime(q):
                    raise ValueError(f"{q} is not prime")
            if tuple(sorted(set(self.primes))) != self.primes:
                raise ValueError("primes must be sorted and distinct")
        elif self.kind in ("Zmod", "Pruefer"):
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
            if self.kind == "Zmod" and self.k < 1:
                raise ValueError("Z/p^k needs k >= 1")
        elif self.kind not in ("Z", "Q"):
            raise ValueError(f"unknown summand kind {self.kind}")

    def is_divisible(self) -> bool:
        return self.kind in ("Q", "Pruefer")

    def sort_key(self):
        order = {"Z": 0, "ZinvS": 1, "Q": 2, "Zmod": 3, "Pruefer": 4}
        return (order[self.kind], self.primes, self.p, self.k)

    def __str__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        if self.kind == "ZinvS":
            return "Z[1/{%s}]" % ",".join(str(q) for q in self.primes)
        if self.kind == "Zmod":
            return f"Z/{self.p ** self.k}" if self.k > 1 else f"Z/{self.p}"
        return f"Z({self.p}^oo)"


def summand_Q() -> Summand:
    return Summand("Q")


def summand_cyclic(p: int, k: int) -> Summand:
    return Summand("Zmod", p=p, k=k)


def summand_pruefer(p: int) -> Summand:
    return Summand("Pruefer", p=p)


class ZModClass:
    """Finite multiset of indecomposable summands, kept sorted."""

    __slots__ = ("summands",)

    def __init__(self, summands=()):
        self.summands = tuple(sorted(summands, key=lambda s: s.sort_key()))

    def __add__(self, other: "ZModClass") -> "ZModClass":
        return ZModClass(self.summands + other.summands)

    def is_zero(self) -> bool:
        return not self.summands

    def is_injective(self) -> bool:
        """Divisible = injective over Z."""
        return all(s.is_divisible() for s in self.summands)

    def __eq__(self, other):
        return isinstance(other, ZModClass) and other.summands == self.summands

    def __hash__(self):
        return hash(self.summands)

    def __str__(self):
        if not self.summands:
            return "0"
        return " + ".join(str(s) for s in self.summands)

    __repr__ = __str__


def rationals_mod_integers(prime_bound: int = 13) -> ZModClass:
    """``Q/Z`` truncated to its ``p``-primary parts for ``p <= bound``."""
    ps = [p for p in range(2, prime_bound + 1) if is_prime(p)]
    return ZModClass([summand_pruefer(p) for p in ps])


# ---------------------------------------------------------------------------
# the closed forms


def zmod_gamma(p: int, d: ZModClass) -> ZModClass:
    """p-power torsion part: keeps ``Z/p^k`` and ``Z(p^oo)`` summands."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = []
    for s in d.summands:
        if s.kind in ("Zmod", "Pruefer") and s.p == p:
            out.append(s)
    return ZModClass(out)


def zmod_ext1(n: int, d: ZModClass) -> ZModClass:
    """``Ext^1(Z/n, D)`` by the summand table."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for s in d.summands:
        if s.is_divisible():
            continue
        if s.kind == "Z":
            out.extend(_cyclic_factors(n))
        elif s.kind == "ZinvS":
            n2 = n
            for q in s.primes:
                while n2 % q == 0:
                    n2 //= q
            out.extend(_cyclic_factors(n2))
        elif s.kind == "Zmod":
            e = min(_v_p(n, s.p), s.k)
            if e:
                out.append(summand_cyclic(s.p, e))
    return ZModClass(out)


def _cyclic_factors(n: int):
    """``Z/n`` split into prime-power cyclic summands (empty for n = 1)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = _v_p(n, p)
            out.append(summand_cyclic(p, e))
            n //= p ** e
        p += 1
    if n > 1:
        out.append(summand_cyclic(n, 1))
    return out


def zmod_localization_map_cokernel(p: int, d: ZModClass) -> ZModClass:
    """Cokernel of the canonical map ``D -> D[1/p]`` summand by summand."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = []
    for s in d.summands:
        if s.kind == "Z":
            # Z -> Z[1/p]: cokernel Z(p^oo)
            out.append(summand_pruefer(p))
        elif s.kind == "ZinvS":
            if p not in s.primes:
                out.append(summand_pruefer(p))
        # Q, Zmod (q != p survives identically), Pruefer: zero cokernel
    return ZModClass(out)


# ---------------------------------------------------------------------------
# the finite-depth stability checks


@dataclass
class StabilityReport:
    prime: int
    depth: int
    per_module: dict  # str(I) -> {"torsion": str, "levels": [...], "ok": bool}
    status: str

    @property
    def passed(self):
        return self.status == "pass"


def default_injective_test_set(p: int, prime_bound: int = 13):
    """The injective test battery used by the acceptance checks."""
    return [
        ZModClass([summand_Q()]),
        rationals_mod_integers(prime_bound),
        ZModClass([summand_pruefer(p)]),
        ZModClass([summand_Q(), summand_pruefer(p)]),
    ]


def weak_stability_check(p: int, depth: int = 6,
                         test_set=None) -> StabilityReport:
    """For each injective ``I``: the torsion part ``J = Gamma_p(I)`` must
    have ``Ext^1(Z/p^i, J) = 0`` at every level ``i <= depth`` (over Z the
    higher degrees vanish for degree reasons)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if test_set is None:
        test_set = default_injective_test_set(p)
    per = {}
    ok = True
    for idx, i_mod in enumerate(test_set):
        if not i_mod.is_injective():
            raise ValueError(f"test module {i_mod} is not injective (not divisible)")
        j = zmod_gamma(p, i_mod)
        levels = []
        good = True
        for i in range(1, depth + 1):
            e = zmod_ext1(p ** i, j)
            levels.append(str(e))
            good = good and e.is_zero()
        per[f"{idx}:{i_mod}"] = {"torsion": str(j), "levels": levels, "ok": good}
        ok = ok and good
    return StabilityReport(prime=p, depth=depth, per_module=per,
                           status="pass" if ok else "undetermined")


@dataclass
class InjectiveTorsionReport:
    prime: int
    per_module: dict  # str(I) -> {"h0": str, "h1": str, "ok": bool}
    status: str

    @property
    def passed(self):
        return self.status == "pass"


def injective_torsion_acyclicity_test(p: int, test_set=None,
                                      depth: int = 6) -> InjectiveTorsionReport:
    """Higher cohomology of ``[I -> I[1/p]]`` vanishes for injective ``I``;
    the degree-0 part recomputes the torsion part."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if test_set is None:
        test_set = default_injective_test_set(p)
    per = {}
    ok = True
    for idx, i_mod in enumerate(test_set):
        if not i_mod.is_injective():
            raise ValueError(f"test module {i_mod} is not injective (not divisible)")
        h1 = zmod_localization_map_cokernel(p, i_mod)
        h0 = zmod_gamma(p, i_mod)  # kernel of the localization map
        good = h1.is_zero()
        per[f"{idx}:{i_mod}"] = {"h0": str(h0), "h1": str(h1), "ok": good}
        ok = ok and good
    return InjectiveTorsionReport(prime=p, per_module=per,
                                  status="pass" if ok else "undetermined")
