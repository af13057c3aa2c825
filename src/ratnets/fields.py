"""Pluggable scalar arithmetic for polynomial and network computations.

Three field kinds are supported, all represented by plain Python values so
polynomial dictionaries stay lightweight:

  * ``RealField``      -- float
  * ``ComplexField``   -- complex
  * ``PrimeField(p)``  -- int in [0, p), arithmetic mod a prime p

A field object owns every operation on its scalars; callers never assume a
concrete representation.  ``magnitude`` maps a scalar to a float used for
tolerance checks, inf for a complex whose modulus is beyond the float range;
for exact fields it is a 0/1 indicator, so a "magnitude below threshold" test
degenerates to an exact zero test.
"""

from __future__ import annotations

import cmath
import numbers
import operator
import random
from functools import lru_cache

DEFAULT_PRIME = 2147483647  # Mersenne, fits in 32 bits


def _finite(a):
    """a itself; ValueError for a NaN or infinite scalar read from outside."""
    if not cmath.isfinite(a):
        raise ValueError(f"non-finite coefficient {a}")
    return a


def checked_number(v):
    """v itself; TypeError unless it is a number.  A JSON true or false
    arrives as a bool, which Python counts as 1 or 0, and float() and int()
    would read a numeric string."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return v


class FieldMismatchError(ValueError):
    """Operands built over different scalar fields."""


class ScalarField:
    """Scalar arithmetic; instances are stateless and hashable.  A field
    defines name, zero, one, from_int, add, sub, neg, mul, inv, magnitude and
    random(rng), one scalar for randomized constructions (seeded upstream);
    one stored in weights files adds json_name, coeff_to_json and
    coeff_from_json.  This class supplies is_zero (from magnitude), ==,
    hash, repr and exact = False."""

    json_name: str  # the "field" entry of a weights file
    exact: bool = False

    def is_zero(self, a) -> bool:
        return self.magnitude(a) == 0.0

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class _FloatField(ScalarField):
    """Arithmetic shared by the float fields: Python's own operators on the
    subclass's ``scalar`` type, whose constants ``_zero`` and ``_one`` are
    returned, not rebuilt: every absent-coefficient lookup asks for zero."""

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return self.scalar(n)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)  # a == 0 for float and complex, NaN and -0.0 included

    def inv(self, a):
        return 1.0 / a

    def magnitude(self, a):
        try:
            return abs(a)
        except OverflowError:  # a complex whose modulus is beyond the float range
            return float("inf")


class RealField(_FloatField):
    name = json_name = "real"
    scalar, _zero, _one = float, 0.0, 1.0

    def random(self, rng):
        return rng.uniform(-1.0, 1.0)

    def coeff_to_json(self, a):
        return {"re": a}

    def coeff_from_json(self, obj):
        return _finite(float(checked_number(obj["re"])))


class ComplexField(_FloatField):
    name = json_name = "complex"
    scalar, _zero, _one = complex, 0j, 1 + 0j

    def random(self, rng):
        return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    def coeff_to_json(self, a):
        return {"re": a.real, "im": a.imag}

    def coeff_from_json(self, obj):
        return _finite(complex(checked_number(obj["re"]), checked_number(obj.get("im", 0.0))))


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, cached: every rank and
    prime field checks the same few moduli, each test costing 12 modexps."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(ScalarField):
    """GF(p) with scalars stored as ints in [0, p)."""

    exact = True
    json_name = "gfp"

    def __init__(self, p: int = DEFAULT_PRIME):
        p = operator.index(checked_number(p))  # 7.0 is no modulus: residues stay ints
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"gf({p})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def magnitude(self, a):
        return 0.0 if a % self.p == 0 else 1.0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def random(self, rng):
        return self.randoms(rng, 1)[0]

    def randoms(self, rng: random.Random, n: int) -> list[int]:
        """n nonzero draws (zero weights create degenerate networks), equal to n
        successive rng.randrange(1, p): both skip getrandbits words >= p - 1."""
        bits, out = (self.p - 1).bit_length(), []
        while len(out) < n:
            out += [r + 1 for r in map(rng.getrandbits, [bits] * (n - len(out))) if r < self.p - 1]
        return out

    def coeff_to_json(self, a):
        return {"re": int(a)}

    def coeff_from_json(self, obj):
        return operator.index(checked_number(obj["re"])) % self.p


REAL = RealField()
COMPLEX = ComplexField()


def field_from_name(name: str, p: int | None = None) -> ScalarField:
    if name == "real":
        return REAL
    if name == "complex":
        return COMPLEX
    if name == "gfp":
        return PrimeField(p if p is not None else DEFAULT_PRIME)
    raise ValueError(f"unknown field name {name!r}")
