import random
import warnings

import numpy as np
import pytest

from ratnets.fields import COMPLEX, REAL
from ratnets.factor import (FactorFailure, build_H, divides, factor_binary_form,
                            factor_multilinear, factor_quadratic_explicit,
                            h_slices, quadratic_all_real, roots_univariate)
from ratnets.network import Architecture, Weights, forward_recursive
from ratnets.poly import HomPoly, LinearForm, product

EX37_COLUMN = [-0.8566, complex(-0.1500, -0.8974), complex(-0.1500, 0.8974),
               complex(1.0783, -0.4969), complex(1.0783, 0.4969)]


def lin(*coeffs):
    return HomPoly.linear(COMPLEX, [complex(c) for c in coeffs])


def example_cubic():
    # (x1+x2+x3)(x1-x2)(x1-x3)
    return product([lin(1, 1, 1), lin(1, -1, 0), lin(1, 0, -1)])


def match_multiset(got, want, tol):
    got = sorted(got, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    want = sorted(want, key=lambda z: (round(complex(z).real, 6), round(complex(z).imag, 6)))
    return all(abs(g - complex(w)) <= tol for g, w in zip(got, want))


def directions(factors):
    out = []
    for f in factors:
        v = np.asarray(f.coeffs, dtype=complex)
        mags = np.abs(v)
        pivot = next(i for i in range(len(v)) if mags[i] >= mags.max() * (1 - 1e-6))
        v = v / v[pivot]
        out.append(tuple(np.round(v, 6)))
    return sorted(out, key=str)


class TestRootsUnivariate:
    def test_quadratic(self):
        roots = roots_univariate([-1.0, 0.0, 1.0])  # y^2 - 1
        assert match_multiset(roots, [1, -1], 1e-12)

    def test_triple_root(self):
        roots = roots_univariate([0.0, 0.0, 0.0, 1.0])  # y^3
        assert all(abs(r) < 1e-4 for r in roots)
        assert len(roots) == 3

    def test_quintic_reciprocal_relation(self):
        # y^5 - y - 1: the reciprocal-negated roots are the classic quintic
        # constants quoted for the degree-5 two-variable example
        roots = roots_univariate([-1.0, -1.0, 0.0, 0.0, 0.0, 1.0])
        transformed = [-1.0 / r for r in roots]
        assert match_multiset(transformed, EX37_COLUMN, 2e-3)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            roots_univariate([1.0, 2.0, 0.0])

    def test_all_zero_roots_are_complex(self):
        # np.roots returns float64 when every root is 0; Newton polishing
        # must not cast its complex steps onto it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = roots_univariate([0, 2])
        assert roots == [0j]
        assert isinstance(roots[0], complex)


class TestFactorMultilinear:
    def test_example_cubic(self):
        report = factor_multilinear(example_cubic(), tol=1e-10)
        assert report.decomposable
        assert report.factorization.residual <= 1e-10
        assert report.all_real
        got = directions(report.factorization.factors)
        want = directions([LinearForm((1, 1, 1)), LinearForm((1, -1, 0)),
                           LinearForm((1, 0, -1))])
        assert got == want

    def test_pure_power(self):
        q = HomPoly(COMPLEX, 3, 4, {(4, 0, 0): 2.0 + 0j})
        report = factor_multilinear(q)
        assert report.decomposable
        dirs = directions(report.factorization.factors)
        assert dirs == [((1 + 0j), 0j, 0j)] * 4

    def test_random_complex_products(self):
        rng = random.Random(21)
        for trial in range(30):
            rows = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
                    for _ in range(4)]
            q = product([lin(*r) for r in rows])
            report = factor_multilinear(q, seed=trial)
            assert report.decomposable
            assert report.factorization.residual <= 1e-8

    def test_round_trip_direction_recovery(self):
        rng = random.Random(22)
        rows = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
                for _ in range(3)]
        q = product([lin(*r) for r in rows])
        report = factor_multilinear(q)
        assert report.decomposable
        got = directions(report.factorization.factors)
        want = directions([LinearForm(tuple(r)) for r in rows])
        for g, w in zip(got, want):
            assert max(abs(complex(a) - complex(b)) for a, b in zip(g, w)) < 1e-6

    def test_soundness_bound(self):
        rng = random.Random(23)
        rows = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(5)]
        q = product([lin(*r) for r in rows])
        report = factor_multilinear(q, tol=1e-8)
        assert report.decomposable
        diff = report.factorization.reassemble().sub(q)
        assert diff.max_magnitude() <= 1e-8 * q.max_magnitude()

    def test_full_rank_quadrics_rejected(self):
        # a quadric of Gram rank >= 3 is irreducible; eigenvalue count oracle
        rng = np.random.default_rng(24)
        for trial in range(20):
            a = rng.normal(size=(4, 4))
            gram = a + a.T
            assert np.sum(np.abs(np.linalg.eigvalsh(gram)) > 1e-8) >= 3
            terms = {}
            for i in range(4):
                for j in range(i, 4):
                    e = [0] * 4
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = complex(gram[i, j] * (1 if i == j else 2))
            q = HomPoly(COMPLEX, 4, 2, terms)
            report = factor_multilinear(q, seed=trial)
            assert not report.decomposable
            assert report.failure_reason in (FactorFailure.VERIFICATION_FAIL,
                                             FactorFailure.ROOT_FIND_FAIL)

    def test_no_pure_power_fixed_by_substitution(self):
        q = product([lin(0, 1, 0), lin(0, 0, 1), lin(1, 0, 0)])  # x1 x2 x3
        report = factor_multilinear(q)
        assert report.decomposable
        dirs = directions(report.factorization.factors)
        assert ((1 + 0j), 0j, 0j) in dirs

    def test_binary_case_agrees_with_complete_split(self):
        rng = random.Random(25)
        rows = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
                for _ in range(5)]
        q = product([lin(*r) for r in rows])
        rep = factor_multilinear(q)
        fz = factor_binary_form(q)
        assert rep.decomposable
        a = sorted(rep.factorization.zero_line_ratios(), key=lambda z: (z.real, z.imag))
        b = sorted(fz.zero_line_ratios(), key=lambda z: (z.real, z.imag))
        assert all(abs(x - y) < 1e-6 for x, y in zip(a, b))

    def test_reality_flag_tracks_discriminant(self):
        rng = random.Random(26)
        for _ in range(40):
            c11, c12, c22 = (rng.uniform(-1, 1) for _ in range(3))
            q = HomPoly(COMPLEX, 2, 2, {(2, 0): complex(c11), (1, 1): complex(2 * c12),
                                        (0, 2): complex(c22)})
            if abs(c11) < 1e-3 and abs(c22) < 1e-3:
                continue
            rep = factor_multilinear(q)
            disc = c12 * c12 - c11 * c22
            if abs(disc) < 1e-6:
                continue
            assert rep.decomposable
            assert rep.all_real == quadratic_all_real(c11, c12, c22) == (disc >= -1e-7)


class TestFactorBinaryForm:
    def test_difference_of_squares(self):
        q = lin(1, -1).mul(lin(1, 1))
        fz = factor_binary_form(q)
        dirs = directions(fz.factors)
        assert dirs == directions([LinearForm((1, -1)), LinearForm((1, 1))])

    def test_quintic_example(self):
        q = HomPoly(COMPLEX, 2, 5, {(5, 0): 1 + 0j, (1, 4): -1 + 0j, (0, 5): 1 + 0j})
        fz = factor_binary_form(q)
        assert fz.residual <= 1e-8
        assert match_multiset(fz.zero_line_ratios(), EX37_COLUMN, 2e-3)

    def test_pure_second_variable(self):
        q = HomPoly(COMPLEX, 2, 3, {(0, 3): 1 + 0j})
        fz = factor_binary_form(q)
        assert len(fz.factors) == 3
        assert all(abs(f.coeffs[0]) < 1e-12 for f in fz.factors)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_binary_form(HomPoly.zero(COMPLEX, 2, 3))


class TestFactorQuadraticExplicit:
    def test_real_split(self):
        l1, l2 = factor_quadratic_explicit(1, 0, -1)  # x^2 - y^2
        got = l1.as_poly(COMPLEX).mul(l2.as_poly(COMPLEX))
        assert abs(got.coefficient((2, 0)) - 1) < 1e-14
        assert abs(got.coefficient((1, 1))) < 1e-14
        assert abs(got.coefficient((0, 2)) + 1) < 1e-14
        assert quadratic_all_real(1, 0, -1)

    def test_complex_split(self):
        l1, l2 = factor_quadratic_explicit(1, 0, 1)  # x^2 + y^2
        got = l1.as_poly(COMPLEX).mul(l2.as_poly(COMPLEX))
        assert abs(got.coefficient((2, 0)) - 1) < 1e-14
        assert abs(got.coefficient((0, 2)) - 1) < 1e-14
        assert not quadratic_all_real(1, 0, 1)

    def test_degenerate_branches(self):
        for c in [(0, 0.5, 1.0), (0, 0.5, 0)]:
            l1, l2 = factor_quadratic_explicit(*c)
            got = l1.as_poly(COMPLEX).mul(l2.as_poly(COMPLEX))
            assert abs(got.coefficient((2, 0)) - c[0]) < 1e-14
            assert abs(got.coefficient((1, 1)) - 2 * c[1]) < 1e-14
            assert abs(got.coefficient((0, 2)) - c[2]) < 1e-14

    def test_random_reassembly(self):
        rng = random.Random(27)
        for _ in range(50):
            c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            l1, l2 = factor_quadratic_explicit(*c)
            got = l1.as_poly(COMPLEX).mul(l2.as_poly(COMPLEX))
            scale = max(abs(v) for v in c) + 1
            assert abs(got.coefficient((2, 0)) - c[0]) < 1e-12 * scale
            assert abs(got.coefficient((1, 1)) - 2 * c[1]) < 1e-12 * scale
            assert abs(got.coefficient((0, 2)) - c[2]) < 1e-12 * scale


class TestBuildH:
    def test_tiny_example(self):
        w = Weights(Architecture((2, 2, 1)), REAL,
                    (((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0),)))
        H = build_H(w)
        # (z + x1)(z + x2) = x1 x2 + z (x1 + x2) + z^2
        assert H.terms == {(1, 1, 0): 1.0, (1, 0, 1): 1.0, (0, 1, 1): 1.0, (0, 0, 2): 1.0}
        nums, den = h_slices(H, 2, 1)
        assert den.terms == {(1, 1): 1.0}
        assert nums[0].terms == {(1, 0): 1.0, (0, 1): 1.0}

    @pytest.mark.parametrize("dims", [(3, 3, 1), (2, 3, 2)])
    def test_slices_match_forward_map(self, dims):
        w = Weights.random(Architecture(dims), REAL, seed=33)
        H = build_H(w)
        nums, den = h_slices(H, dims[0], dims[2])
        t = forward_recursive(w)
        for a, b in zip(nums + [den], list(t.numerators) + [t.denominator]):
            for e in set(a.terms) | set(b.terms):
                assert abs(a.coefficient(e) - b.coefficient(e)) < 1e-12


class TestDivides:
    def test_divisor_accepted_nondivisor_rejected(self):
        q = example_cubic()
        assert divides(LinearForm((1 + 0j, 1 + 0j, 1 + 0j)), q)
        assert divides(LinearForm((1 + 0j, -1 + 0j, 0j)), q)
        assert not divides(LinearForm((1 + 0j, 1 + 0j, 0j)), q)
