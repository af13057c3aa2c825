import itertools
import json
import math
import operator
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratnets.fields import COMPLEX, REAL, FieldMismatchError, PrimeField
from ratnets.poly import (HomPoly, NotDivisibleError, _mul_terms, combination,
                          deleted_products, monomials, product, sym_contract)

GF = PrimeField(2147483647)


def x(field, nvars, i):
    return HomPoly.linear(field, [field.one() if j == i else field.zero() for j in range(nvars)])


def lf(field, *coeffs):
    return HomPoly.linear(field, [field.from_int(c) if isinstance(c, int) else c
                                  for c in coeffs])


def random_poly(field, nvars, deg, rng, density=0.7):
    terms = {e: field.random(rng) for e in monomials(nvars, deg) if rng.random() < density}
    if not terms:
        terms = {monomials(nvars, deg)[0]: field.one()}
    return HomPoly(field, nvars, deg, terms)


gf_scalars = st.integers(0, GF.p - 1)


@st.composite
def gf_forms(draw, nvars, degree):
    mons = monomials(nvars, degree)
    coeffs = draw(st.lists(gf_scalars, min_size=len(mons), max_size=len(mons)))
    return HomPoly(GF, nvars, degree, dict(zip(mons, coeffs)))


def valid_exponent(e, nvars, degree):
    """The constructor's rule, written out: nvars entries, each a whole
    number >= 0, summing to degree."""
    return (len(e) == nvars and all(u >= 0 and float(u).is_integer() for u in e)
            and sum(map(int, e)) == degree)


@st.composite
def exponent_tuples(draw, nvars, degree):
    """A monomial of the signature, some entries as floats, perhaps moved off
    it: half a unit or one unit carried between two entries (the sum kept),
    one entry raised or lowered by one, or an entry appended or dropped."""
    e = list(draw(st.sampled_from(monomials(nvars, degree))))
    move = draw(st.sampled_from(["none", "half", "unit", "bump", "append", "drop"]))
    i, j = draw(st.integers(0, nvars - 1)), draw(st.integers(0, nvars - 1))
    if move == "bump":
        e[i] += draw(st.sampled_from([-1, 1]))
    elif move in ("half", "unit"):
        step = 0.5 if move == "half" else 1
        e[i] += step
        e[j] -= step
    elif move == "append":
        e.append(draw(st.integers(0, 1)))
    elif move == "drop":
        e.pop()
    return tuple(float(u) if draw(st.booleans()) else u for u in e)


def coeffs_close(p, q, tol=1e-12):
    f = p.field
    scale = max(p.max_magnitude(), q.max_magnitude(), 1.0)
    return all(f.magnitude(f.sub(p.coefficient(e), q.coefficient(e))) <= tol * scale
               for e in set(p.terms) | set(q.terms))


def scalar_bits(v, nan_sign=True):
    """Each float part of v as its bit pattern (so -0.0 is not 0.0); with
    nan_sign False every NaN reads as one pattern."""
    if isinstance(v, complex):
        return scalar_bits(v.real, nan_sign), scalar_bits(v.imag, nan_sign)
    if isinstance(v, float):
        return "nan" if v != v and not nan_sign else struct.pack("<d", v).hex()
    return v


def term_bits(p, nan_sign=True):
    """p's terms in stored order, each coefficient by scalar_bits."""
    return [(e, scalar_bits(c, nan_sign)) for e, c in p.terms.items()]


# Coefficients and weights that meet: small integers and +-1 that cancel
# exactly, pairs whose products underflow to 0 (1e-200 * 1e-200), infinities
# whose products and sums are NaN, and signed zeros.
FLOAT_POOL = [1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e-200, -1e-200, 1e-170, math.inf, -math.inf,
              0.0, -0.0]
GF7 = PrimeField(7)


@st.composite
def scalars(draw, field):
    if field is GF7:
        return draw(st.integers(0, 13))  # residues and their aliases, 0 and 7 included
    re = draw(st.sampled_from(FLOAT_POOL))
    if field is REAL:
        return re
    return complex(re, draw(st.sampled_from(FLOAT_POOL)))


@st.composite
def pool_forms(draw, field, nvars, degree):
    """A form on a few of the signature's monomials, so that terms collide."""
    mons = monomials(nvars, degree)[:3]
    keys = draw(st.lists(st.sampled_from(mons), max_size=3, unique=True))
    return HomPoly(field, nvars, degree, {e: draw(scalars(field)) for e in keys})


class TestCombination:
    @staticmethod
    def fold(weights, forms):
        """The fold combination replaces: zero, then one add per scaled form,
        each scale a form of its own (f.mul(w, c), exact zeros dropped)."""
        f, n, d = forms[0].field, forms[0].nvars, forms[0].degree
        acc = HomPoly.zero(f, n, d)
        for w, p in zip(weights, forms):
            acc = acc.add(HomPoly(f, n, d, {e: f.mul(w, c) for e, c in p.terms.items()}))
        return acc

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data(), st.sampled_from([REAL, COMPLEX, GF7]), st.integers(1, 3), st.integers(0, 3))
    def test_combination_is_the_scale_and_add_fold_bit_for_bit(self, data, field, n, d):
        # same terms, same key order (a sum that cancels exactly leaves the
        # dict, and a later term puts its key back at the end), same bits;
        # half the weights are +-1, so that sums cancel often
        forms = data.draw(st.lists(pool_forms(field, n, d), min_size=1, max_size=5))
        unit = st.sampled_from([field.one(), field.neg(field.one())])
        weights = [data.draw(unit if data.draw(st.booleans()) else scalars(field)) for _ in forms]
        assert term_bits(combination(weights, forms)) == term_bits(self.fold(weights, forms))
        assert term_bits(forms[0].scale(weights[0])) == term_bits(self.fold(weights[:1], forms[:1]))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data(), st.sampled_from([REAL, COMPLEX, GF7]), st.integers(1, 3), st.integers(0, 3))
    def test_sub_is_add_of_the_negation(self, data, field, n, d):
        # a - NaN keeps the NaN's sign bit and a + (-NaN) flips it, so NaNs
        # compare as one pattern; every other bit and the key order must agree
        a = data.draw(pool_forms(field, n, d))
        b = data.draw(pool_forms(field, n, d))
        neg_b = HomPoly(field, n, d, {e: field.neg(c) for e, c in b.terms.items()})
        assert term_bits(a.sub(b), nan_sign=False) == term_bits(a.add(neg_b), nan_sign=False)

    def test_sub_keeps_its_checks_in_order(self):
        with pytest.raises(ValueError, match="variable count"):
            x(REAL, 2, 0).sub(HomPoly.one(COMPLEX, 3))
        with pytest.raises(FieldMismatchError):
            x(REAL, 2, 0).sub(x(COMPLEX, 2, 0))
        with pytest.raises(ValueError, match="different degree"):
            x(REAL, 2, 0).sub(HomPoly.one(REAL, 2))


class TestMul:
    def test_single_term_product(self):
        p = x(REAL, 2, 0).mul(x(REAL, 2, 1))
        assert p.terms == {(1, 1): 1.0}

    def test_difference_of_squares(self):
        p = lf(REAL, 1, 1).mul(lf(REAL, 1, -1))
        assert p.terms == {(2, 0): 1.0, (0, 2): -1.0}

    def test_three_factor_cubic(self):
        # (x1+x2+x3)(x1-x2)(x1-x3) expanded
        p = product([lf(REAL, 1, 1, 1), lf(REAL, 1, -1, 0), lf(REAL, 1, 0, -1)])
        expected = {(3, 0, 0): 1.0, (1, 2, 0): -1.0, (1, 1, 1): -1.0,
                    (0, 2, 1): 1.0, (1, 0, 2): -1.0, (0, 1, 2): 1.0}
        assert p.terms == expected

    def test_degree_adds_and_fields_must_match(self):
        p = random_poly(REAL, 3, 2, random.Random(0))
        q = random_poly(REAL, 3, 3, random.Random(1))
        assert p.mul(q).degree == 5
        with pytest.raises(Exception):
            p.mul(random_poly(COMPLEX, 3, 2, random.Random(2)))
        with pytest.raises(ValueError):
            p.mul(random_poly(REAL, 2, 2, random.Random(3)))

    @pytest.mark.parametrize("field", [REAL, GF])
    def test_commutative_associative(self, field):
        rng = random.Random(7)
        for _ in range(25):
            a = random_poly(field, 3, 2, rng)
            b = random_poly(field, 3, 1, rng)
            c = random_poly(field, 3, 2, rng)
            tol = 0.0 if field.exact else 1e-12
            assert coeffs_close(a.mul(b), b.mul(a), tol)
            assert coeffs_close(a.mul(b).mul(c), a.mul(b.mul(c)), tol)


class TestComposeLinear:
    def test_identity(self):
        p = x(REAL, 2, 0).mul(x(REAL, 2, 1))
        q = p.compose_linear([[1.0, 0.0], [0.0, 1.0]])
        assert q.terms == p.terms

    def test_hyperbolic_rotation(self):
        p = x(REAL, 2, 0).mul(x(REAL, 2, 1))
        q = p.compose_linear([[1.0, 1.0], [1.0, -1.0]])
        assert q.terms == {(2, 0): 1.0, (0, 2): -1.0}

    def test_pointwise_oracle_random_cubic(self):
        rng = random.Random(3)
        p = random_poly(REAL, 3, 3, rng)
        A = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        q = p.compose_linear(A)
        for _ in range(100):
            pt = [rng.uniform(-1, 1) for _ in range(3)]
            ax = [sum(A[i][j] * pt[j] for j in range(3)) for i in range(3)]
            assert abs(q.evaluate(pt) - p.evaluate(ax)) < 1e-10

    def test_composition_is_matrix_product(self):
        rng = random.Random(4)
        p = random_poly(REAL, 2, 3, rng)
        A = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(2)]
        B = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(3)]
        AB = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(2)] for i in range(2)]
        assert coeffs_close(p.compose_linear(A).compose_linear(B),
                            p.compose_linear(AB), 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), nout=st.integers(1, 3), d=st.integers(0, 4))
    def test_pointwise_oracle_exact_over_gfp(self, data, n, nout, d):
        p = data.draw(gf_forms(n, d))
        A = data.draw(st.lists(st.lists(gf_scalars, min_size=nout, max_size=nout),
                               min_size=n, max_size=n))
        y = data.draw(st.lists(gf_scalars, min_size=nout, max_size=nout))
        ay = [sum(a * b for a, b in zip(row, y)) % GF.p for row in A]
        assert p.compose_linear(A).evaluate(y) == p.evaluate(ay)

    def test_shape_mismatch(self):
        p = random_poly(REAL, 3, 2, random.Random(0))
        with pytest.raises(ValueError):
            p.compose_linear([[1.0, 0.0], [0.0, 1.0]])


def tuple_product(field, a, b):
    """The product fold that _mul_terms packs: each exponent sum a new tuple,
    entry by entry; exact zeros kept."""
    add, mul = field.add, field.mul
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            v = mul(c1, c2)
            out[e] = add(out[e], v) if e in out else v
    return out


def tuple_compose(p, rows):
    """compose_linear on tuple_product, each row's form keyed by a unit tuple
    built per entry."""
    f, nout = p.field, len(rows[0]) if rows else 0
    forms = [HomPoly(f, nout, 1, {tuple(1 if t == j else 0 for t in range(nout)): c
                                  for j, c in enumerate(r)}).terms for r in rows]
    powers = [[{(0,) * nout: f.one()}] for _ in range(p.nvars)]
    out = {}
    for e, c in p.terms.items():
        term = {(0,) * nout: c}
        for i, u in enumerate(e):
            if u:
                while len(powers[i]) <= u:
                    powers[i].append(tuple_product(f, powers[i][-1], forms[i]))
                term = tuple_product(f, term, powers[i][u])
        for et, v in term.items():
            out[et] = f.add(out[et], v) if et in out else v
    return HomPoly(f, nout, p.degree, out)


def shown(terms):
    """Keys in stored order with each coefficient's repr and, for floats,
    bit pattern (so the sign of a zero or a NaN counts)."""
    return [(e, repr(c), scalar_bits(c)) for e, c in terms.items()]


PACK_FIELDS = [REAL, COMPLEX, GF7, GF]
# every float part below meets every other: signed zeros, infinities, NaN
PACK_POOL = FLOAT_POOL + [math.nan]


@st.composite
def pack_scalars(draw, field):
    if field.exact:
        return draw(st.sampled_from([0, 1, field.p - 1]) | st.integers(0, field.p - 1))
    re = draw(st.sampled_from(PACK_POOL))
    return re if field is REAL else complex(re, draw(st.sampled_from(PACK_POOL)))


@st.composite
def pack_terms(draw, field, nvars, degree, scale):
    """A raw term mapping (exact zeros kept) on a few monomials of the
    signature with every entry multiplied by scale, so entries reach 2**20
    and 2**70 while products still collide; a constant is often the field's
    one (1 + 0j over COMPLEX)."""
    mons = [tuple(u * scale for u in e) for e in monomials(nvars, degree)[:4]]
    keys = draw(st.lists(st.sampled_from(mons), max_size=4, unique=True))
    one = st.just(field.one()) if degree == 0 else st.nothing()
    return {e: draw(one | pack_scalars(field)) for e in keys}


class TestPackedProduct:
    """_mul_terms adds packed exponents as ints and multiplies a constant
    factor term by term; neither may change a key, its order or a bit."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.data(), st.sampled_from(PACK_FIELDS), st.integers(0, 3),
           st.sampled_from([0, 1, 2, 3]), st.sampled_from([0, 1, 2, 3]),
           st.sampled_from([1, 2**20, 2**70]), st.sampled_from([1, 2**20, 2**70]))
    def test_mul_is_the_tuple_fold_bit_for_bit(self, data, field, n, da, db, sa, sb):
        if n == 0:
            da = db = 0
        a = data.draw(pack_terms(field, n, da, sa))
        b = data.draw(pack_terms(field, n, db, sb))
        assert shown(_mul_terms(field, a, b)) == shown(tuple_product(field, a, b))
        pa, pb = HomPoly(field, n, da * sa, a), HomPoly(field, n, db * sb, b)
        expected = HomPoly(field, n, da * sa + db * sb, tuple_product(field, pa.terms, pb.terms))
        assert shown(pa.mul(pb).terms) == shown(expected.terms)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data(), st.sampled_from(PACK_FIELDS), st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 3))
    def test_compose_linear_is_the_tuple_fold_bit_for_bit(self, data, field, n, nout, d):
        if n == 0:
            d = 0
        p = HomPoly(field, n, d, data.draw(pack_terms(field, n, d, 1)))
        rows = [[data.draw(pack_scalars(field)) for _ in range(nout)] for _ in range(n)]
        assert shown(p.compose_linear(rows).terms) == shown(tuple_compose(p, rows).terms)

    @pytest.mark.parametrize("field", PACK_FIELDS, ids=["real", "complex", "gf7", "gf"])
    def test_a_product_by_one_is_a_multiply(self, field):
        # over COMPLEX, (1 + 0j) * (-0.0 - 1j) is 0j and (1 + 0j) * (inf + 1j)
        # has a NaN part: the constant path must multiply, not copy
        vals = ([complex(-0.0, -1.0), complex(math.inf, 1.0), complex(1.0, math.nan)]
                if field is COMPLEX else [field.from_int(3), field.from_int(5), field.one()])
        other = dict(zip([(2, 0), (1, 1), (0, 2)], vals))
        one = {(0, 0): field.one()}
        for a, b in [(one, other), (other, one)]:
            assert shown(_mul_terms(field, a, b)) == shown(tuple_product(field, a, b))
        if field is COMPLEX:
            assert shown(_mul_terms(field, one, other)) != shown(other)

    def test_one_exponent_at_several_widths(self):
        # x0*x1 meets factors whose degrees give product widths of 71, 2, 21, 3,
        # 4, 71 and 2 bits in turn, a constant and empty factors among them
        p = {(1, 1): 2.0, (2, 0): -1.0}
        for d in [2**70, 1, 2**20, 2, 6, 2**70, 1, 0]:
            q = {(d, 0): 3.0, (d - 1, 1): 0.5} if d else {(0, 0): -0.0}
            for a, b in [(p, q), (q, p), (p, {}), ({}, q)]:
                assert shown(_mul_terms(REAL, a, b)) == shown(tuple_product(REAL, a, b))


class TestExactDivide:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), d=st.integers(0, 4))
    def test_divides_product_exactly_over_gfp(self, data, n, d):
        q = data.draw(gf_forms(n, d))
        for i in range(n):
            assert q.mul(x(GF, n, i)).exact_divide(i) == q

    @pytest.mark.parametrize("field", [REAL, COMPLEX, GF])
    def test_mul_divide_round_trip(self, field):
        rng = random.Random(11)
        for _ in range(20):
            q = random_poly(field, 3, 2, rng)
            for i in range(3):
                back = q.mul(x(field, 3, i)).exact_divide(i)
                assert coeffs_close(back, q, 0.0)

    def test_monomial_division(self):
        p = product([x(REAL, 3, 0), x(REAL, 3, 1), x(REAL, 3, 2)])
        assert p.exact_divide(1).terms == {(1, 0, 1): 1.0}

    def test_difference_of_squares(self):
        # x1^2 - x2^2 = (x1 + x2)(x1 - x2) has no coordinate factor
        p = lf(REAL, 1, 1).mul(lf(REAL, 1, -1))
        for i in range(2):
            with pytest.raises(NotDivisibleError):
                p.exact_divide(i)

    def test_not_divisible(self):
        p = product([x(REAL, 2, 0)] * 3)
        # independent oracle: x2's zero set must lie in the dividend's
        assert abs(p.evaluate([1.0, 0.0])) > 0.5
        with pytest.raises(NotDivisibleError):
            p.exact_divide(1)

    def test_exact_over_prime_field(self):
        rng = random.Random(5)
        q = random_poly(GF, 2, 3, rng)
        bad = q.mul(x(GF, 2, 1))
        assert bad.exact_divide(1).terms == q.terms
        # bump the x1^4 coefficient, which is free of x2, from 0 to 1
        bumped = {**bad.terms, (4, 0): 1}
        with pytest.raises(NotDivisibleError):
            HomPoly(GF, 2, 4, bumped).exact_divide(1)

    def test_quotient_in_descending_powers(self):
        # terms stored in ascending powers of x2; the quotient lists them in
        # descending powers, ties in stored order
        mons = [e for e in reversed(monomials(3, 4)) if e[1]]
        p = HomPoly(REAL, 3, 4, {e: float(k + 1) for k, e in enumerate(mons)})
        q = p.exact_divide(1)
        want = [(a, b - 1, c) for a, b, c in sorted(mons, key=lambda e: -e[1])]
        assert list(q.terms) == want
        assert [q.terms[(a, b - 1, c)] for a, b, c in mons] == [p.terms[e] for e in mons]

    def test_nan_remainder_is_not_divisible(self):
        # Python's max and a > test both let NaN through: this returned the constant 1
        p = HomPoly(COMPLEX, 2, 1, {(1, 0): 1, (0, 1): math.nan})
        with pytest.raises(NotDivisibleError, match="not within the bound nan"):
            p.exact_divide(0)

    def test_nan_in_a_kept_term_is_not_divisible(self):
        # the remainder is empty, but a NaN dividend makes the bound NaN
        p = HomPoly(COMPLEX, 2, 2, {(2, 0): 1, (1, 1): math.nan})
        with pytest.raises(NotDivisibleError) as err:
            p.exact_divide(0)
        assert "exceeds" not in str(err.value)

    @pytest.mark.parametrize("tol", [1e-9, math.inf])
    def test_infinite_remainder_is_not_divisible(self, tol):
        # inf <= tol * inf held, so this returned the constant 1
        p = HomPoly(COMPLEX, 2, 1, {(1, 0): 1, (0, 1): math.inf})
        with pytest.raises(NotDivisibleError):
            p.exact_divide(0, tol)
        # an infinite bound still passes a finite remainder
        finite = HomPoly(COMPLEX, 2, 1, {(1, 0): 1, (0, 1): 1e300})
        assert finite.exact_divide(0, math.inf).terms == {(0, 0): 1}

    @pytest.mark.parametrize("var", [-1, 2, 3])
    def test_variable_out_of_range(self, var):
        p = x(REAL, 2, 0).mul(x(REAL, 2, 1))
        with pytest.raises(ValueError):
            p.exact_divide(var)

    def test_degree_zero_dividend(self):
        with pytest.raises(ValueError):
            HomPoly.one(REAL, 2).exact_divide(0)


class TestEvaluate:
    def test_product_point(self):
        assert x(REAL, 2, 0).mul(x(REAL, 2, 1)).evaluate([2.0, 3.0]) == 6.0

    def test_symmetry_zero(self):
        p = lf(REAL, 1, 1).mul(lf(REAL, 1, -1))
        assert p.evaluate([1.0, 1.0]) == 0.0

    def test_known_cubic_vanishes_where_a_factor_does(self):
        p = product([lf(REAL, 1, 1, 1), lf(REAL, 1, -1, 0), lf(REAL, 1, 0, -1)])
        assert p.evaluate([1.0, 1.0, 1.0]) == 0.0


class TestSymContract:
    def test_distinct_basis_vectors(self):
        forms = [x(REAL, 3, i) for i in range(3)]
        got = sym_contract([1, 2, 3], forms)
        assert got.terms == {(1, 1, 1): 1.0}

    def test_pair_selects_factor_product(self):
        rng = random.Random(9)
        forms = [random_poly(REAL, 3, 1, rng) for _ in range(3)]
        got = sym_contract([2, 3], forms)
        assert coeffs_close(got, forms[1].mul(forms[2]))

    def test_permutation_sum_oracle(self, sym_contract_reference):
        rng = random.Random(10)
        forms = [random_poly(REAL, 3, 1, rng) for _ in range(3)]
        for idx in ([1, 2, 3], [1, 1, 2], [3, 3, 3]):
            got = sym_contract(idx, forms)
            ref = sym_contract_reference(REAL, idx, forms)
            assert coeffs_close(got, ref, 1e-12)

    def test_full_multiset_equals_row_product(self):
        rng = random.Random(12)
        w = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)]
        forms = [HomPoly.linear(REAL, row) for row in w]
        got = sym_contract([1, 2, 3, 4], forms)
        assert coeffs_close(got, product(forms))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sym_contract([4], [x(REAL, 2, 0)])


class TestHousekeeping:
    def test_construction_drops_exact_zeros_only(self):
        p = HomPoly(REAL, 2, 2, {(2, 0): 1.0, (1, 1): 0.0, (0, 2): 1e-16})
        assert p.terms == {(2, 0): 1.0, (0, 2): 1e-16}
        q = HomPoly(COMPLEX, 3, 2, {(2, 0, 0): 0j, (1, 1, 0): -4e3j,
                                    (0, 2, 0): 3.9e-10 + 0j, (0, 0, 2): 1e-300j})
        assert q.terms == {(1, 1, 0): -4e3j, (0, 2, 0): 3.9e-10 + 0j, (0, 0, 2): 1e-300j}
        # residues congruent to 0 mod p are exact zeros
        g = HomPoly(GF, 2, 2, {(2, 0): 0, (1, 1): 1, (0, 2): GF.p})
        assert g.terms == {(1, 1): 1}

    @pytest.mark.parametrize("terms", [{(1, 0): 1.5, (0, 1): math.nan},
                                       {(1, 0): math.nan, (0, 1): 1.5}],
                             ids=["nan-last", "nan-first"])
    def test_max_magnitude_of_a_nan_coefficient_is_nan(self, terms):
        # Python's max keeps its current best against a NaN: nan-last read 1.5
        assert math.isnan(HomPoly(REAL, 2, 1, terms).max_magnitude())

    def test_invariant_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            HomPoly(REAL, 2, 2, {(1, 0): 1.0})

    @pytest.mark.parametrize("terms", [{(1, 0): 1.0, (0, 1): 2.0},
                                       {(1, 0): 1.0, (0, 1): 2.0, (1, 1): 0.0}],
                             ids=["no-zero", "a-zero-dropped"])
    def test_the_form_keeps_no_reference_to_the_callers_mapping(self, terms):
        p = HomPoly(REAL, 2, 1, terms)
        terms[(1, 0)] = 5.0
        terms[(2, 0)] = 1.0
        del terms[(0, 1)]
        assert p.terms == {(1, 0): 1.0, (0, 1): 2.0} and list(p.terms) == [(1, 0), (0, 1)]

    def test_fractional_exponents_are_rejected(self):
        with pytest.raises(ValueError):
            HomPoly(COMPLEX, 2, 2, {(1.5, 0.5): 1})
        # an integral float is the whole number it equals, as an equal int tuple is
        assert HomPoly(COMPLEX, 2, 2, {(1.0, 1): 1}).terms == {(1, 1): 1}

    @pytest.mark.parametrize("key", [(1.0, 1), (np.int64(1), 1.0), (True, 1)])
    def test_integral_exponents_are_stored_as_ints(self, key):
        p = HomPoly(REAL, 2, 2, {key: 2.0})
        assert [type(u) for e in p.terms for u in e] == [int, int]
        assert p.evaluate([2.0, 3.0]) == 12.0
        assert [type(u) for e in p.mul(p).terms for u in e] == [int, int]
        assert p.to_json()["terms"] == [{"exp": [1, 1], "re": 2.0}]
        assert HomPoly.from_json(REAL, json.loads(json.dumps(p.to_json()))) == p

    def test_checked_exponents_do_not_admit_other_tuples(self):
        for e in monomials(3, 4):
            HomPoly(REAL, 3, 4, {e: 1.0})
        for bad in ({(1, 1, 1): 1.0}, {(5, -1, 0): 1.0}, {(2, 2): 1.0}):
            with pytest.raises(ValueError):
                HomPoly(REAL, 3, 4, bad)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_exponent_verdicts_do_not_depend_on_construction_order(self, data, n):
        # each form is built after the ones drawn before it, so equal tuples
        # of mixed types meet a signature's checked set in either order, and
        # tuples checked at one degree are drawn again at another
        for _ in range(data.draw(st.integers(1, 12))):
            d = data.draw(st.integers(0, 3))
            terms = dict.fromkeys(data.draw(st.lists(exponent_tuples(n, d), min_size=1,
                                                     max_size=3)), 1.0)
            if all(valid_exponent(e, n, d) for e in terms):
                assert HomPoly(REAL, n, d, terms).terms == terms
            else:
                with pytest.raises(ValueError):
                    HomPoly(REAL, n, d, terms)

    def test_grlex_serialization_order(self):
        p = HomPoly(REAL, 3, 2, {(0, 0, 2): 3.0, (2, 0, 0): 1.0, (1, 1, 0): 2.0})
        exps = [t["exp"] for t in p.to_json()["terms"]]
        assert exps == [[2, 0, 0], [1, 1, 0], [0, 0, 2]]

    @pytest.mark.parametrize("field", [REAL, COMPLEX, GF])
    def test_json_round_trip(self, field):
        p = random_poly(field, 3, 3, random.Random(2))
        assert HomPoly.from_json(field, p.to_json()).terms == p.terms

    def test_monomials_count_and_order(self):
        mons = monomials(3, 2)
        assert len(mons) == 6
        assert mons[0] == (2, 0, 0)
        assert mons == sorted(mons, reverse=True)

    def test_monomials_are_a_fresh_list_of_every_exponent(self):
        # the basis is built once per signature; each call hands out a copy
        for n in range(5):
            for d in range(6):
                every = sorted((e for e in itertools.product(range(d + 1), repeat=n)
                                if sum(e) == d), reverse=True)
                first = monomials(n, d)
                assert first == every
                first.append((7,) * n)
                first.reverse()
                second = monomials(n, d)
                assert second == every and second is not first

    def test_deleted_products_match_naive(self):
        rng = random.Random(6)
        forms = [random_poly(REAL, 2, 1, rng) for _ in range(5)]

        def skip_none(a, b):  # None as the identity, as the GF(p) Jacobian passes it
            return b if a is None else a if b is None else a.mul(b)

        for mul, one in [(HomPoly.mul, HomPoly.one(REAL, 2)), (skip_none, None)]:
            dels, full = deleted_products(forms, mul, one)
            assert coeffs_close(full, product(forms), 1e-12)
            for i in range(5):
                naive = product([f for j, f in enumerate(forms) if j != i])
                assert coeffs_close(dels[i], naive, 1e-12)
