"""Exact coefficient rings.

Supported rings: the integers, the rationals, prime fields, and a truncated
Novikov ring over the rationals or a prime field.  A truncated Novikov ring
is determined by a positive rational cutoff c and an integer grid q >= 1:
elements are finite sums sum a_i T^(e_i) with exponents e_i in (1/q)Z
intersected with [0, c), and any product term with exponent >= c is dropped.

Elements are plain Python values with no ring attached; every operation on
them is a method of the `Ring` the caller holds (`ring.add(a, b)`,
`ring.mul(a, b)`, ...).  The values are:
  Z   -> int
  Q   -> Fraction
  Fp  -> int in [0, p)
  nov -> tuple of (exponent: Fraction, coefficient: a value of the base),
         sorted by strictly increasing exponent, no zero coefficients.

Exponents are exact rationals, never floats, so valuations compare decidably.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonGridExponent, WrongRing

INFINITY = math.inf


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Ring:
    """An exact coefficient ring; all element operations live here.

    Instances are immutable and hashable; elements are plain Python values
    interpreted relative to their ring.  `zero` and `one` are computed once
    per ring; identity (==, hash) is (kind, p, base, cutoff, grid).
    """

    __slots__ = ("kind", "p", "base", "cutoff", "grid", "zero", "one")

    def __init__(self, kind, p=None, base=None, cutoff=None, grid=None):
        self.kind = kind
        self.p = p
        self.base = base
        self.cutoff = cutoff
        self.grid = grid
        self.zero = {"Z": 0, "Q": Fraction(0), "Fp": 0}.get(kind, ())
        self.one = self.from_int(1)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def Z() -> "Ring":
        return Ring("Z")

    @staticmethod
    def Q() -> "Ring":
        return Ring("Q")

    @staticmethod
    def Fp(p: int) -> "Ring":
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return Ring("Fp", p=p)

    @staticmethod
    def novikov(base: "Ring", cutoff, grid: int) -> "Ring":
        if base.kind not in ("Q", "Fp"):
            raise ValueError("Novikov base must be Q or a prime field")
        cutoff = Fraction(cutoff)
        if cutoff <= 0 or grid < 1:
            raise ValueError("need cutoff > 0 and grid >= 1")
        return Ring("nov", base=base, cutoff=cutoff, grid=int(grid))

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.p == other.p
            and self.base == other.base
            and self.cutoff == other.cutoff
            and self.grid == other.grid
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.base, self.cutoff, self.grid))

    def __repr__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        if self.kind == "Fp":
            return f"F{self.p}"
        return f"Nov({self.base!r}, c={self.cutoff}, q={self.grid})"

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "Fp")

    @property
    def is_novikov(self) -> bool:
        return self.kind == "nov"

    # -- element construction -------------------------------------------

    def from_int(self, n: int):
        if self.kind == "Z":
            return int(n)
        if self.kind == "Q":
            return Fraction(n)
        if self.kind == "Fp":
            return n % self.p
        c = self.base.from_int(n)
        return ((Fraction(0), c),) if not self.base.is_zero(c) else ()

    def monomial(self, coeff, exponent):
        """Novikov monomial coeff * T^exponent, validated against the grid."""
        if self.kind != "nov":
            raise WrongRing("monomials only exist over a Novikov ring")
        exponent = Fraction(exponent)
        self._check_grid(exponent)
        coeff = self.base.canon(coeff)
        if self.base.is_zero(coeff) or exponent >= self.cutoff:
            return ()
        return ((exponent, coeff),)

    def _check_grid(self, e: Fraction):
        if e < 0 or (e * self.grid).denominator != 1:
            raise NonGridExponent(f"exponent {e} not on grid (1/{self.grid})Z>=0")

    def canon(self, value):
        """Re-canonicalize a raw value (idempotent on canonical input); an
        int is read as `from_int` reads it, over every ring."""
        if self.kind == "Z":
            return int(value)
        if self.kind == "Q":
            return value if type(value) is Fraction else Fraction(value)
        if self.kind == "Fp":
            return int(value) % self.p
        if isinstance(value, int):
            return self.from_int(value)
        terms = {}
        for e, c in value:
            e = Fraction(e)
            self._check_grid(e)
            if e >= self.cutoff:
                continue
            c = self.base.canon(c)
            acc = terms.get(e, self.base.zero)
            terms[e] = self.base.add(acc, c)
        return tuple(
            (e, c) for e, c in sorted(terms.items()) if not self.base.is_zero(c)
        )

    # -- arithmetic ------------------------------------------------------

    def is_zero(self, a) -> bool:
        if self.kind == "nov":
            return len(a) == 0
        return a == 0

    def add(self, a, b):
        if self.kind == "Z" or self.kind == "Q":
            return a + b
        if self.kind == "Fp":
            return (a + b) % self.p
        out = dict(a)
        for e, c in b:
            acc = out.get(e, self.base.zero)
            s = self.base.add(acc, c)
            if self.base.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return tuple(sorted(out.items()))

    def neg(self, a):
        if self.kind == "Z" or self.kind == "Q":
            return -a
        if self.kind == "Fp":
            return (-a) % self.p
        return tuple((e, self.base.neg(c)) for e, c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "Z" or self.kind == "Q":
            return a * b
        if self.kind == "Fp":
            return (a * b) % self.p
        out = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                if e >= self.cutoff:
                    continue
                c = self.base.mul(c1, c2)
                acc = out.get(e, self.base.zero)
                s = self.base.add(acc, c)
                if self.base.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return tuple(sorted(out.items()))

    def eq(self, a, b) -> bool:
        return self.canon(a) == self.canon(b)

    def as_sign(self, a):
        """1 when a is one, -1 when a is minus one, else None; one is tested
        first, so over F_2 one reads 1."""
        a = self.canon(a)
        return 1 if a == self.one else -1 if a == self.from_int(-1) else None

    # -- division (fields, and Novikov units) ----------------------------

    def invert(self, a):
        """Multiplicative inverse; over Novikov only units (valuation 0) invert."""
        if self.kind == "Q":
            return Fraction(1) / a
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        if self.kind == "Z":
            if a in (1, -1):
                return a
            raise WrongRing(f"{a} is not a unit in Z")
        if not a or a[0][0] != 0:
            raise WrongRing("not a unit in the truncated Novikov ring")
        # Split a/u = 1 - m with m of positive valuation; invert by the
        # geometric series sum m^k, which terminates below the cutoff.
        u = a[0][1]
        u_inv_elem = ((Fraction(0), self.base.invert(u)),)
        m = tuple((e, self.base.neg(self.base.mul(c, self.base.invert(u))))
                  for e, c in a[1:])
        result = self.one
        power = self.one
        max_steps = self.cutoff * self.grid
        for _ in range(int(max_steps) + 1):
            power = self.mul(power, m)
            if self.is_zero(power):
                break
            result = self.add(result, power)
        return self.mul(u_inv_elem, result)

    def divide(self, a, b):
        return self.mul(a, self.invert(b))

    # -- Novikov structure -----------------------------------------------

    def valuation(self, x):
        """Minimum exponent with nonzero coefficient; +inf for zero."""
        if self.kind != "nov":
            raise WrongRing("valuation needs a Novikov ring")
        x = self.canon(x)
        if not x:
            return INFINITY
        return x[0][0]

    def residue(self, x):
        """Image in the base field: kill every positive-exponent term."""
        if self.kind != "nov":
            raise WrongRing("residue needs a Novikov ring")
        for e, c in x:
            if e == 0:
                return c
        return self.base.zero

    def reduce_cutoff(self, x, new_cutoff) -> tuple:
        """Truncate an element to a smaller cutoff (a ring homomorphism)."""
        if self.kind != "nov":
            raise WrongRing("reduce_cutoff needs a Novikov ring")
        new_cutoff = Fraction(new_cutoff)
        return tuple((e, c) for e, c in x if e < new_cutoff)

    def at_cutoff(self, new_cutoff) -> "Ring":
        if self.kind != "nov":
            raise WrongRing("at_cutoff needs a Novikov ring")
        return Ring.novikov(self.base, new_cutoff, self.grid)

    # -- formatting -------------------------------------------------------

    def show(self, a) -> str:
        if self.kind != "nov":
            return str(a)
        if not a:
            return "0"
        parts = []
        for e, c in a:
            if e == 0:
                parts.append(str(c))
            else:
                cs = "" if c == 1 else f"{c}*"
                es = str(e) if e.denominator == 1 else f"({e})"
                parts.append(f"{cs}T^{es}")
        return " + ".join(parts)
