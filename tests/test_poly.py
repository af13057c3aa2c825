import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ratnets.fields import COMPLEX, REAL, PrimeField
from ratnets.poly import (HomPoly, NotDivisibleError, deleted_products,
                          monomials, product, sym_contract)

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


def coeffs_close(p, q, tol=1e-12):
    f = p.field
    scale = max(p.max_magnitude(), q.max_magnitude(), 1.0)
    return all(f.magnitude(f.sub(p.coefficient(e), q.coefficient(e))) <= tol * scale
               for e in set(p.terms) | set(q.terms))


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
