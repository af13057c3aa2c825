"""Sparse homogeneous multivariate polynomials over a pluggable scalar field.

A polynomial is a mapping from exponent tuples (one entry per variable) to
nonzero scalars: construction drops exact zeros only, so float coefficients
are kept as computed, however small.  Every stored exponent tuple has one
int >= 0 per variable, summing to the polynomial's degree; each tuple is
checked once per (nvars, degree), as construction remembers the tuples that
passed and their int form.  Every product runs one kernel, _mul_terms, which
adds exponents packed into ints (one field per variable, as wide as the
product degree's bit length) and multiplies a constant factor into the other
factor's terms; linear forms are keyed by cached unit exponents.  Neither
changes a product's terms, their order or a coefficient bit.  The zero
polynomial keeps an explicit (nvars, degree) signature so arithmetic stays
well-typed.  The canonical term order is graded lexicographic, descending,
which fixes serialization and the order of the monomial basis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fields import COMPLEX, FieldMismatchError, ScalarField, _FloatField, checked_number

Exponent = tuple[int, ...]


class NotDivisibleError(ArithmeticError):
    """Division by a variable left a remainder above tolerance."""


def monomials(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, grlex descending: each
    multiset of variable indices, in lexicographic order, counted per variable.
    A fresh list each call, copied from the tuple built once per signature."""
    return list(_monomial_basis(nvars, degree))


def monomial_count(nvars: int, degree: int) -> int:
    return comb(nvars + degree - 1, degree)


@lru_cache(maxsize=64)
def _monomial_basis(nvars: int, degree: int) -> tuple[Exponent, ...]:
    return tuple(tuple(map(c.count, range(nvars)))
                 for c in combinations_with_replacement(range(nvars), degree))


def _whole_exponent(e, nvars: int, degree: int) -> Exponent:
    """e as a tuple of ints; ValueError unless it has nvars entries, each a
    whole number >= 0, that sum to degree.  Entries are read by value (1.0
    counts as 1), so equal tuples get one verdict and one int form."""
    try:
        whole = tuple(int(abs(u)) for u in e)
        ok = len(whole) == nvars and all(map(operator.eq, e, whole)) and sum(whole) == degree
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
        ok = False
    if not ok:
        raise ValueError(f"exponent {e} invalid for degree-{degree} form in {nvars} vars")
    return whole


# The exponent tuples that have passed _whole_exponent, per (nvars, degree),
# each mapped to its int form: a form checks only the exponents its
# signature has not seen, and stores every exponent as ints.
_CHECKED: dict[tuple[int, int], dict[tuple, Exponent]] = {}


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial: immutable after construction."""

    field: ScalarField
    nvars: int
    degree: int
    terms: Mapping[Exponent, object] = dc_field(default_factory=dict)

    def __post_init__(self):
        n, d, is_zero = self.nvars, self.degree, self.field.is_zero
        known = _CHECKED.setdefault((n, d), {})
        # one pass drops the exact zeros and keys each term by its exponent's
        # int form, into a new dict, so the caller's mapping is never aliased
        try:
            terms = {known[e]: c for e, c in self.terms.items() if not is_zero(c)}
        except KeyError:  # an exponent this signature has not seen
            known.update((e, _whole_exponent(e, n, d)) for e, c in self.terms.items()
                         if not (is_zero(c) or e in known))
            terms = {known[e]: c for e, c in self.terms.items() if not is_zero(c)}
        object.__setattr__(self, "terms", terms)

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
        return cls(field, len(coeffs), 1, dict(zip(_monomial_basis(len(coeffs), 1), coeffs)))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_magnitude(self) -> float:
        return max_or_nan(map(self.field.magnitude, self.terms.values()))

    def coefficient(self, exponent: Exponent):
        return self.terms.get(tuple(exponent), self.field.zero())

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
        """self - other in one pass: f.sub where both have a term, f.neg where
        only other has one."""
        self._check_compat(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        f = self.field
        sub, neg = f.sub, f.neg
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = sub(out[e], c) if e in out else neg(c)
        return HomPoly(f, self.nvars, self.degree, out)

    def scale(self, scalar) -> "HomPoly":
        return combination((scalar,), (self,))

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
        acc = f.zero()
        for e, c in self.terms.items():
            for x, u in zip(point, e):
                for _ in range(u):
                    c = f.mul(c, x)
            acc = f.add(acc, c)
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
        for e, c in sorted(self.terms.items(), key=lambda t: t[0], reverse=True):
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


def max_or_nan(values: Iterable[float]) -> float:
    """max(values, default=0.0), but NaN if any value is NaN, in any order."""
    best = 0.0
    for v in values:
        if v != v:
            return v
        if v > best:
            best = v
    return best


def combination(weights: Sequence, forms: Sequence[HomPoly]) -> HomPoly:
    """sum(w_j * forms[j]) in one dict pass, term for term the fold that adds
    each scaled form {e: w_j * c} (exact zeros dropped) to a zero form: a
    product that is an exact zero is skipped, and a running sum that becomes
    one is deleted at once, so a later term puts its key back at the end.
    Every form has forms[0]'s signature; weights and forms have one length."""
    first = forms[0]
    f = first.field
    add, mul, is_zero = f.add, f.mul, f.is_zero
    out: dict = {}
    for w, p in zip(weights, forms, strict=True):
        for e, c in p.terms.items():
            v = mul(w, c)
            if is_zero(v):
                continue
            if e in out:
                v = add(out[e], v)
                if is_zero(v):
                    del out[e]
                    continue
            out[e] = v
    return HomPoly(f, first.nvars, first.degree, out)


def _pow2_scaled(c: np.ndarray) -> tuple[np.ndarray, int]:
    """(c * 2**-e, e) with the largest real or imaginary part of c scaled into
    [0.5, 1) (e = 0 if c is empty or zero): exact in range, and products stay
    finite near either end of it."""
    e = int(np.frexp(np.max(np.abs(c.view(float)), initial=0.0))[1])
    return np.ldexp(c.view(float), -e).view(complex), e


def _pow2_scaled_forms(polys: Sequence[HomPoly]) -> list[HomPoly]:
    """The forms over COMPLEX (read by _as_complex), all scaled by the one
    power of two that _pow2_scaled picks for their coefficients together."""
    polys = [_as_complex(p) for p in polys]
    values = _pow2_scaled(np.array([c for p in polys for c in p.terms.values()], dtype=complex))[0]
    it = iter(values.tolist())
    return [HomPoly(COMPLEX, p.nvars, p.degree, {e: next(it) for e in p.terms}) for p in polys]


# Packed exponents, per field width bits: _PACKED[bits] maps a tuple to the
# int whose i-th bits-wide field is entry i, and _UNPACKED[nvars, bits] maps
# such an int back to its tuple.  Both grow with the distinct exponents seen.
_PACKED: dict[int, dict[Exponent, int]] = {}
_UNPACKED: dict[tuple[int, int], dict[int, Exponent]] = {}


def _packed(keys, bits: int) -> list[int]:
    """Each exponent as its int at field width bits."""
    known = _PACKED.setdefault(bits, {})
    try:
        return [known[e] for e in keys]
    except KeyError:  # an exponent this width has not seen
        known.update((e, sum(u << bits * i for i, u in enumerate(e)))
                     for e in keys if e not in known)
        return [known[e] for e in keys]


def _mul_terms(field: ScalarField, a: Mapping, b: Mapping) -> dict:
    """Product of two homogeneous term mappings; exact zeros are kept.

    Each exponent is packed into an int with one field of the product
    degree's bit length per variable: every entry of either factor and of the
    product is at most that degree, so an exponent sum is one int addition
    that no field carries out of.  A constant factor takes one multiply per
    term of the other.  Keys, key order and every multiply and add are those
    of adding the exponent tuples entry by entry."""
    if not (a and b):
        return {}
    mul = field.mul
    ea, eb = next(iter(a)), next(iter(b))
    if not any(ea):  # a is the one constant term
        (c1,) = a.values()
        return {e: mul(c1, c) for e, c in b.items()}
    if not any(eb):
        (c2,) = b.values()
        return {e: mul(c, c2) for e, c in a.items()}
    bits = (sum(ea) + sum(eb)).bit_length()
    add = field.add
    right = list(zip(_packed(b, bits), b.values()))
    out: dict = {}
    for k1, c1 in zip(_packed(a, bits), a.values()):
        for k2, c2 in right:
            k = k1 + k2
            v = mul(c1, c2)
            out[k] = add(out[k], v) if k in out else v
    n = len(ea)
    known = _UNPACKED.setdefault((n, bits), {})
    try:
        return {known[k]: v for k, v in out.items()}
    except KeyError:  # a product exponent this signature has not seen
        mask = (1 << bits) - 1
        known.update((k, tuple(k >> bits * i & mask for i in range(n)))
                     for k in out if k not in known)
        return {known[k]: v for k, v in out.items()}


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
