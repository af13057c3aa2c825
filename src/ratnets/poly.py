"""Sparse homogeneous multivariate polynomials over a pluggable scalar field.

A polynomial is a mapping from exponent tuples (one entry per variable) to
nonzero scalars: construction drops exact zeros only, so float coefficients
are kept as computed, however small.  Every stored exponent tuple sums to the
polynomial's degree; the zero polynomial keeps an explicit (nvars, degree)
signature so arithmetic stays well-typed.  The canonical term order is graded
lexicographic, descending, which fixes serialization and the order of the
monomial basis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fields import COMPLEX, FieldMismatchError, ScalarField, _FloatField, checked_number

Exponent = tuple[int, ...]


class NotDivisibleError(ArithmeticError):
    """Division by a variable left a remainder above tolerance."""


def monomials(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, grlex descending."""
    out: list[Exponent] = []

    def rec(prefix: list[int], rem: int, k: int):
        if k == nvars - 1:
            out.append(tuple(prefix + [rem]))
            return
        for e in range(rem, -1, -1):
            rec(prefix + [e], rem - e, k + 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    rec([], degree, 0)
    return out


def monomial_count(nvars: int, degree: int) -> int:
    return comb(nvars + degree - 1, degree)


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial: immutable after construction."""

    field: ScalarField
    nvars: int
    degree: int
    terms: Mapping[Exponent, object] = dc_field(default_factory=dict)

    def __post_init__(self):
        is_zero = self.field.is_zero
        cleaned = {e: c for e, c in self.terms.items() if not is_zero(c)}
        n, d = self.nvars, self.degree
        for e in cleaned:
            if len(e) != n or min(e, default=0) < 0 or sum(e) != d:
                raise ValueError(f"exponent {e} invalid for degree-{self.degree} form in {self.nvars} vars")
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: ScalarField, nvars: int, degree: int) -> "HomPoly":
        return cls(field, nvars, degree, {})

    @classmethod
    def constant(cls, field: ScalarField, nvars: int, value) -> "HomPoly":
        return cls(field, nvars, 0, {(0,) * nvars: value})

    @classmethod
    def one(cls, field: ScalarField, nvars: int) -> "HomPoly":
        return cls.constant(field, nvars, field.one())

    @classmethod
    def linear(cls, field: ScalarField, coeffs: Sequence) -> "HomPoly":
        """The degree-1 form sum(coeffs[j] * x_j): one variable per entry."""
        n = len(coeffs)
        return cls(field, n, 1, {tuple(1 if t == j else 0 for t in range(n)): c
                                 for j, c in enumerate(coeffs)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_magnitude(self) -> float:
        return max_or_nan(map(self.field.magnitude, self.terms.values()))

    def coefficient(self, exponent: Exponent):
        return self.terms.get(tuple(exponent), self.field.zero())

    def sorted_terms(self) -> list[tuple[Exponent, object]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "HomPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def add(self, other: "HomPoly") -> "HomPoly":
        self._check_compat(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add(out[e], c) if e in out else c
        return HomPoly(f, self.nvars, self.degree, out)

    def sub(self, other: "HomPoly") -> "HomPoly":
        return self.add(other.neg())

    def neg(self) -> "HomPoly":
        f = self.field
        return HomPoly(f, self.nvars, self.degree, {e: f.neg(c) for e, c in self.terms.items()})

    def scale(self, scalar) -> "HomPoly":
        f = self.field
        return HomPoly(f, self.nvars, self.degree, {e: f.mul(scalar, c) for e, c in self.terms.items()})

    def mul(self, other: "HomPoly") -> "HomPoly":
        self._check_compat(other)
        f = self.field
        return HomPoly(f, self.nvars, self.degree + other.degree,
                       _mul_terms(f, self.terms, other.terms))

    # -- substitution and evaluation ----------------------------------------

    def compose_linear(self, rows: Sequence[Sequence]) -> "HomPoly":
        """Substitute x_i <- rows[i] . y, returning a form in len(rows[0]) vars.

        rows must have one entry per current variable; the invariant is
        evaluate(compose_linear(p, A), y) == evaluate(p, A @ y).
        """
        if len(rows) != self.nvars:
            raise ValueError(f"substitution needs {self.nvars} rows, got {len(rows)}")
        f = self.field
        nout = len(rows[0]) if rows else 0
        if any(len(r) != nout for r in rows):
            raise ValueError("substitution rows have inconsistent lengths")
        forms = [HomPoly.linear(f, r).terms for r in rows]
        # powers[i][u] holds the terms of (rows[i] . y)**u, built on demand
        powers: list[list[dict]] = [[{(0,) * nout: f.one()}] for _ in range(self.nvars)]
        add = f.add
        out: dict = {}
        for e, c in self.terms.items():
            term = {(0,) * nout: c}
            for i, u in enumerate(e):
                if u:
                    pw = powers[i]
                    while len(pw) <= u:
                        pw.append(_mul_terms(f, pw[-1], forms[i]))
                    term = _mul_terms(f, term, pw[u])
            for et, v in term.items():
                out[et] = add(out[et], v) if et in out else v
        return HomPoly(f, nout, self.degree, out)

    def evaluate(self, point: Sequence):
        """Sum of coeff * point**exponent over all stored terms."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, need {self.nvars}")
        f = self.field
        maxu = [0] * self.nvars
        for e in self.terms:
            for i, u in enumerate(e):
                if u > maxu[i]:
                    maxu[i] = u
        powers = []
        for i in range(self.nvars):
            row = [f.one()]
            for _ in range(maxu[i]):
                row.append(f.mul(row[-1], point[i]))
            powers.append(row)
        acc = f.zero()
        for e, c in self.terms.items():
            t = c
            for i, u in enumerate(e):
                if u:
                    t = f.mul(t, powers[i][u])
            acc = f.add(acc, t)
        return acc

    def exact_divide(self, var: int, tol: float = 1e-9) -> "HomPoly":
        """Quotient by the coordinate variable x_var; raises NotDivisibleError
        on remainder.

        The remainder is the terms free of x_var.  For exact fields it must
        be empty; for float fields it must stay below tol relative to the
        dividend.  A NaN coefficient anywhere, or an infinite one in the
        remainder, fails the test whatever tol is (tol may be inf).
        """
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} outside 0..{self.nvars - 1}")
        if self.degree < 1:
            raise ValueError("dividend must have degree >= 1")
        f = self.field
        rem_mag = max_or_nan(f.magnitude(c) for e, c in self.terms.items() if not e[var])
        bound = 0.0 if f.exact else tol * max(self.max_magnitude(), 1e-300)
        if not (rem_mag <= bound and rem_mag < float("inf")):
            raise NotDivisibleError(f"remainder magnitude {rem_mag:.3e} is not within "
                                    f"the bound {bound:.3e}")
        # stable sort, descending powers of x_var: term order fixes the rounding of later float sums
        kept = sorted((t for t in self.terms.items() if t[0][var]), key=lambda t: -t[0][var])
        quot = {e[:var] + (e[var] - 1,) + e[var + 1:]: c for e, c in kept}
        return HomPoly(f, self.nvars, self.degree - 1, quot)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for e, c in self.sorted_terms():
            entry = {"exp": list(e)}
            entry.update(self.field.coeff_to_json(c))
            terms.append(entry)
        return {"nvars": self.nvars, "degree": self.degree, "terms": terms}

    @classmethod
    def from_json(cls, field: ScalarField, obj: dict) -> "HomPoly":
        """TypeError for an exponent, nvars or degree that is not an integer."""
        def index(v):
            return operator.index(checked_number(v))
        terms = {tuple(map(index, t["exp"])): field.coeff_from_json(t) for t in obj["terms"]}
        return cls(field, index(obj["nvars"]), index(obj["degree"]), terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{u}" if u > 1 else f"x{i + 1}"
                            for i, u in enumerate(e) if u)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def max_or_nan(values: Iterable[float]) -> float:
    """max(values, default=0.0), but NaN if any value is NaN, in any order."""
    best = 0.0
    for v in values:
        if v != v:
            return v
        if v > best:
            best = v
    return best


def _pow2_scaled(c: np.ndarray) -> tuple[np.ndarray, int]:
    """(c * 2**-e, e) with the largest real or imaginary part of c scaled into
    [0.5, 1) (e = 0 if c is empty or zero): exact in range, and products stay
    finite near either end of it."""
    e = int(np.frexp(np.max(np.abs(c.view(float)), initial=0.0))[1])
    return np.ldexp(c.view(float), -e).view(complex), e


def _pow2_scaled_forms(polys: Sequence[HomPoly]) -> list[HomPoly]:
    """The forms over COMPLEX, all scaled by the one power of two that
    _pow2_scaled picks for their coefficients together."""
    values = _pow2_scaled(np.array([c for p in polys for c in p.terms.values()], dtype=complex))[0]
    it = iter(values.tolist())
    return [HomPoly(COMPLEX, p.nvars, p.degree, {e: next(it) for e in p.terms}) for p in polys]


def _mul_terms(field: ScalarField, a: Mapping, b: Mapping) -> dict:
    """Product of two term mappings; exact zeros are kept."""
    add, mul = field.add, field.mul
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            v = mul(c1, c2)
            out[e] = add(out[e], v) if e in out else v
    return out


def _as_complex(p: HomPoly) -> HomPoly:
    """The same form over COMPLEX; TypeError for fields with no complex image."""
    if p.field == COMPLEX:
        return p
    if not isinstance(p.field, _FloatField):
        raise TypeError(f"{p.field.name} scalars have no complex image")
    return HomPoly(COMPLEX, p.nvars, p.degree, {e: complex(c) for e, c in p.terms.items()})


def product(polys: Sequence[HomPoly]) -> HomPoly:
    if not polys:
        raise ValueError("empty product is ambiguous without a signature")
    acc = polys[0]
    for p in polys[1:]:
        acc = acc.mul(p)
    return acc


def deleted_products(items: Sequence, mul, one) -> tuple[list, object]:
    """For items (g_1..g_n): all products with one factor removed, plus the
    full product, via prefix/suffix passes and one product per removed factor
    (3n - 1 calls of mul; ``one`` is its identity, or a marker it skips)."""
    pre, suf = [one], [one]  # products of the first / last j items
    for g in items:
        pre.append(mul(pre[-1], g))
    for g in reversed(items[1:]):
        suf.append(mul(g, suf[-1]))
    return [mul(pre[j], suf[-1 - j]) for j in range(len(items))], pre[-1]


def sym_contract(indices: Iterable[int], forms: Sequence[HomPoly]) -> HomPoly:
    """Contract the symmetrized basis tensor e_{j1} x ... x e_{jk} against
    forms^(x)k.

    Symmetrization averages over index orderings, and contraction against a
    symmetric power makes every ordering contribute the same product, so the
    result is the plain product of the selected forms (one per index, with
    multiplicity).  ``forms`` are degree-1 HomPoly values.
    """
    idx = list(indices)
    if not idx:
        raise ValueError("empty index multiset")
    m = len(forms)
    for j in idx:
        if not 1 <= j <= m:
            raise IndexError(f"index {j} outside 1..{m}")
    return product([forms[j - 1] for j in idx])
