import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratnets.fields import COMPLEX, REAL
from ratnets import factor
from ratnets.factor import (FactorFailure, FactorReport, LinearFactorization, NonConvergenceError,
                            _PencilReader, build_H, factor_binary_form, factor_multilinear,
                            factor_quadratic_explicit, h_slices, roots_univariate)
from ratnets.network import Architecture, Weights, forward_recursive
from ratnets.poly import HomPoly, _pow2_scaled, monomials, product

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
        v = np.asarray(f, dtype=complex)
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
        # np.roots returns float64 when every root is 0; the roots still
        # come back complex
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = roots_univariate([0, 2])
        assert roots == [0j]
        assert isinstance(roots[0], complex)

    def test_leading_coefficient_below_the_float_range_is_non_convergence(self):
        # the power-of-two scale flushes 1e-300 to 0 next to 1e300, and
        # np.roots dropped it: three roots came back for degree 4
        with pytest.raises(NonConvergenceError):
            roots_univariate([1.0, 0.0, 0.0, 1e300, 1e-300])

    def test_root_near_the_float_limit_emits_no_warning(self):
        # the residual bound max(1, |r|)**3 overflows at r = -1e200, which
        # warned "overflow encountered in power"
        roots = roots_univariate([1e-200, 0.0, 1e200, 1.0])
        assert len(roots) == 3
        assert min(roots, key=lambda r: r.real) == pytest.approx(-1e200)

    def test_eigenvalues_that_miss_their_bound_are_non_convergence(self):
        # next to the root near -1e19, the companion eigenvalues of the three
        # with |y| near 0.02 come out as 0, where |p| = 1e19 misses the bound
        with pytest.raises(NonConvergenceError, match="max residual"):
            roots_univariate([1e19, 0.0, 0.0, -1e24, -1e5])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-320, 308)),
                    min_size=2, max_size=9))
    def test_deg_roots_or_non_convergence(self, signed_exponents):
        # nonzero coefficients across the whole float range, warnings as errors
        coeffs = [s * 10.0 ** x for s, x in signed_exponents]
        try:
            roots = roots_univariate(coeffs)
        except NonConvergenceError:
            return
        assert len(roots) == len(coeffs) - 1


def roots_by_np_roots(coeffs):
    """roots_univariate as written on np.roots and np.polyval: the oracle
    for the companion matrix and Horner residual it builds itself."""
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0 or c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    deg = c.size - 1
    if deg == 0:
        return []
    c, e = _pow2_scaled(c)
    scale = np.max(np.abs(c))
    if not np.isfinite(scale):
        raise NonConvergenceError("coefficients are not finite")
    if c[-1] == 0:
        raise NonConvergenceError("leading coefficient is below the float range of the largest")
    with np.errstate(all="ignore"):
        try:
            roots = np.roots(c[::-1]).astype(complex)
        except np.linalg.LinAlgError as ex:
            raise NonConvergenceError(str(ex)) from ex
        resid = np.abs(np.polyval(c[::-1], roots))
        if not (np.isfinite(resid).all()
                and np.all(resid <= factor.ROOT_TOL * scale * np.maximum(1.0, np.abs(roots)) ** deg)):
            raise NonConvergenceError(f"max residual {np.ldexp(resid.max(), e):.3e} above bound")
    return [complex(r) for r in roots]


def root_outcome(solve, coeffs):
    """The roots as (real, imag) bit patterns, or the exception type raised."""
    try:
        return [(r.real.hex(), r.imag.hex()) for r in solve(coeffs)]
    except (ValueError, NonConvergenceError) as ex:
        return type(ex)


@st.composite
def spread_coefficients(draw):
    """Degree 1-9 coefficients, real or complex, each part's magnitude
    10**x for x in [-30, 30], the first z of them zero (z <= degree)."""
    deg = draw(st.integers(1, 9))
    zeros = draw(st.integers(0, deg))
    kind = draw(st.sampled_from(["real", "complex"]))
    part = st.builds(lambda s, x: s * 10.0 ** x, st.sampled_from([-1.0, 1.0]),
                     st.floats(-30, 30))
    coeffs = [0j] * zeros
    for _ in range(deg + 1 - zeros):
        coeffs.append(complex(draw(part), draw(part) if kind == "complex" else 0.0))
    return coeffs


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(spread_coefficients())
@example([0j, 0j, 1 + 0j])
@example([1e-300, 0.0, 0.0, 1e300, 1e-300])
@example([1e19, 0.0, 0.0, -1e24, -1e5])
def test_companion_roots_match_np_roots_bit_for_bit(coeffs):
    assert root_outcome(roots_univariate, coeffs) == root_outcome(roots_by_np_roots, coeffs)


class TestFactorMultilinear:
    def test_example_cubic(self):
        report = factor_multilinear(example_cubic(), tol=1e-10)
        assert report.decomposable
        assert report.factorization.residual <= 1e-10
        assert report.all_real
        got = directions(report.factorization.factors)
        want = directions([(1, 1, 1), (1, -1, 0), (1, 0, -1)])
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
        want = directions(rows)
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

    def test_reality_flag_tracks_discriminant(self, quadratic_all_real):
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
        assert dirs == directions([(1, -1), (1, 1)])

    def test_quintic_example(self):
        q = HomPoly(COMPLEX, 2, 5, {(5, 0): 1 + 0j, (1, 4): -1 + 0j, (0, 5): 1 + 0j})
        fz = factor_binary_form(q)
        assert fz.residual <= 1e-8
        assert match_multiset(fz.zero_line_ratios(), EX37_COLUMN, 2e-3)

    def test_pure_second_variable(self):
        q = HomPoly(COMPLEX, 2, 3, {(0, 3): 1 + 0j})
        fz = factor_binary_form(q)
        assert len(fz.factors) == 3
        assert all(abs(f[0]) < 1e-12 for f in fz.factors)

    def test_sixteenfold_root_factors(self):
        # a Newton polish moved the 16 eigenvalues one at a time, and their
        # product reassembled to 5.7e-2
        fz = factor_binary_form(product([lin(1, -1)] * 16))
        assert len(fz.factors) == 16
        assert fz.residual <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(centre=st.complex_numbers(max_magnitude=4),
           offsets=st.lists(st.one_of(st.floats(-1e-3, 1e-3).map(complex),
                                      st.complex_numbers(max_magnitude=1e-3)),
                            min_size=2, max_size=9))
    def test_clustered_roots_factor(self, centre, offsets):
        # the roots of q lie within 1e-3 of one centre
        q = product([lin(1, -(centre + d)) for d in offsets])
        assert factor_binary_form(q).residual <= 1e-8

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_binary_form(HomPoly.zero(COMPLEX, 2, 3))

    @pytest.mark.parametrize("big", [complex(-math.inf), complex(math.nan),
                                     complex(1.5e308, 1.5e308)], ids=["inf", "nan", "abs-overflow"])
    def test_non_finite_form_rejected(self, big):
        # an infinite largest magnitude let the leading-coefficient scan run
        # off the coefficient list (IndexError); abs(1.5e308+1.5e308j) overflows
        q = HomPoly(COMPLEX, 2, 3, {(3, 0): big, (2, 1): 1 + 0j, (0, 3): 2 + 0j})
        with pytest.raises(ValueError, match="not finite"):
            factor_binary_form(q)


class TestFactorQuadraticExplicit:
    def test_real_split(self, quadratic_all_real):
        l1, l2 = factor_quadratic_explicit(1, 0, -1)  # x^2 - y^2
        got = HomPoly.linear(COMPLEX, l1).mul(HomPoly.linear(COMPLEX, l2))
        assert abs(got.coefficient((2, 0)) - 1) < 1e-14
        assert abs(got.coefficient((1, 1))) < 1e-14
        assert abs(got.coefficient((0, 2)) + 1) < 1e-14
        assert quadratic_all_real(1, 0, -1)

    def test_complex_split(self, quadratic_all_real):
        l1, l2 = factor_quadratic_explicit(1, 0, 1)  # x^2 + y^2
        got = HomPoly.linear(COMPLEX, l1).mul(HomPoly.linear(COMPLEX, l2))
        assert abs(got.coefficient((2, 0)) - 1) < 1e-14
        assert abs(got.coefficient((0, 2)) - 1) < 1e-14
        assert not quadratic_all_real(1, 0, 1)

    def test_degenerate_branches(self):
        for c in [(0, 0.5, 1.0), (0, 0.5, 0)]:
            l1, l2 = factor_quadratic_explicit(*c)
            got = HomPoly.linear(COMPLEX, l1).mul(HomPoly.linear(COMPLEX, l2))
            assert abs(got.coefficient((2, 0)) - c[0]) < 1e-14
            assert abs(got.coefficient((1, 1)) - 2 * c[1]) < 1e-14
            assert abs(got.coefficient((0, 2)) - c[2]) < 1e-14

    def test_random_reassembly(self):
        rng = random.Random(27)
        for _ in range(50):
            c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            l1, l2 = factor_quadratic_explicit(*c)
            got = HomPoly.linear(COMPLEX, l1).mul(HomPoly.linear(COMPLEX, l2))
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
        s = h_slices(H, 2, 1)
        nums, den = s.numerators, s.denominator
        assert den.terms == {(1, 1): 1.0}
        assert nums[0].terms == {(1, 0): 1.0, (0, 1): 1.0}

    @pytest.mark.parametrize("dims", [(3, 3, 1), (2, 3, 2)])
    def test_slices_match_forward_map(self, dims):
        w = Weights.random(Architecture(dims), REAL, seed=33)
        H = build_H(w)
        s = h_slices(H, dims[0], dims[2])
        t = forward_recursive(w)
        for a, b in zip(s.all_polys(), t.all_polys()):
            for e in set(a.terms) | set(b.terms):
                assert abs(a.coefficient(e) - b.coefficient(e)) < 1e-12


class TestRootScale:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), deg=st.integers(1, 6), k=st.integers(-1000, 1000))
    def test_power_of_two_scale_leaves_roots_unchanged(self, data, deg, k):
        # coefficients on a 1/64 grid, so a scale by 2**k rounds nothing
        part = st.integers(-64, 64)
        coeffs = [complex(data.draw(part), data.draw(part)) / 64 for _ in range(deg)]
        coeffs.append(complex(data.draw(st.integers(1, 64)), data.draw(part)) / 64)

        def outcome(cs):
            try:
                return roots_univariate(cs)
            except NonConvergenceError:
                return "NonConvergenceError"

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome([c * 2.0 ** k for c in coeffs]) == outcome(coeffs)


def coefficient(q, *powers):
    """Coefficient of prod(x_i**u for i, u in powers) in q."""
    e = [0] * q.nvars
    for i, u in powers:
        e[i] += u
    return q.coefficient(tuple(e))


def random_form(rng, nvars, degree):
    return HomPoly(COMPLEX, nvars, degree,
                   {e: complex(*rng.uniform(-1, 1, size=2)) for e in monomials(nvars, degree)})


def count_calls(monkeypatch, name):
    """A list whose length is the number of calls of factor.<name> to come."""
    calls, real = [], getattr(factor, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(factor, name, counted)
    return calls


class TestRetriesReadThePencil:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 5), m=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_pencil_matches_compose_linear(self, n, m, seed):
        # compose_linear is the oracle for every coefficient a retry reads
        rng = np.random.default_rng(seed)
        Q = random_form(rng, n, m)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = Q.compose_linear(A.tolist())
        bound = 1e-12 * q.max_magnitude()
        reader = _PencilReader(Q)
        scale = 2.0 ** reader.e
        pure, pencil = reader.read(A)
        for i in range(n):
            assert abs(pure[i] * scale - coefficient(q, (i, m))) <= bound
        for p, b in itertools.permutations(range(n), 2):
            line, cross = pencil(p, b)
            for k in range(m + 1):
                assert abs(line[k] * scale - coefficient(q, (p, m - k), (b, k))) <= bound
            for t in range(m):
                for v in set(range(n)) - {p, b}:
                    want = coefficient(q, (p, m - 1 - t), (b, t), (v, 1))
                    assert abs(cross[t][v] * scale - want) <= bound

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 4), (4, 2)])
    def test_a_zero_coordinate_reads_without_warning(self, n, m):
        # x_0 = 0 at the pure-power points A e_0, A e_1 and on the whole
        # pencil (0, 1): the gradient divides by x_0 there, and must not
        rng = np.random.default_rng(7)
        Q = random_form(rng, n, m)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A[0, 0] = A[0, 1] = 0
        reader = _PencilReader(Q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pure, pencil = reader.read(A)
            line, cross = pencil(0, 1)
        assert all(np.isfinite(v).all() for v in (pure, line, cross))
        want = [Q.scale(2.0 ** -reader.e).evaluate(A[:, i]) for i in range(n)]
        np.testing.assert_allclose(pure, want, rtol=1e-12)

    def test_retries_expand_no_coordinate_change(self, monkeypatch):
        # a random ternary quartic without its pure powers is irreducible and
        # gives attempt 0 no pivot: every one of the six attempts runs, and
        # none may expand Q under its change of variables
        Q = random_form(np.random.default_rng(41), 3, 4)
        Q = HomPoly(COMPLEX, 3, 4, {e: c for e, c in Q.terms.items() if 4 not in e})
        attempts = count_calls(monkeypatch, "_factor_attempt")
        roots = count_calls(monkeypatch, "roots_univariate")

        def refuse(self, rows):
            raise AssertionError("a factor retry expanded a coordinate change")

        monkeypatch.setattr(HomPoly, "compose_linear", refuse)
        report = factor_multilinear(Q)
        assert not report.decomposable
        assert report.failure_reason is FactorFailure.VERIFICATION_FAIL
        assert (len(attempts), len(roots)) == (factor.MAX_RETRIES + 1, factor.MAX_RETRIES)

    def test_regression_1e308_cubic(self, monkeypatch):
        # found by the CLI fuzz: no pure cube clears the leading-coefficient
        # test against the 1e308 term, so the form is factored on a retry;
        # evaluating it unscaled overflowed and moved the verdict
        Q = HomPoly(COMPLEX, 2, 3, {(3, 0): -0.1802051818820938 + 0.2589819840824014j,
                                    (2, 1): 1.0490219136598853 - 0.08216526442490582j,
                                    (1, 2): 1e308 - 0.5933572883161601j,
                                    (0, 3): -0.060677120073004236 + 0.43287074798303954j})
        calls = count_calls(monkeypatch, "roots_univariate")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = factor_multilinear(Q)
        assert report.decomposable and report.failure_reason is None
        assert report.factorization.residual <= 1e-8
        assert len(calls) == 1  # attempt 0 has no pivot, the first retry verifies

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 4), m=st.integers(1, 4), kind=st.sampled_from(["product", "random"]),
           seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-100, 100))
    def test_power_of_two_scale_moves_only_the_constant(self, n, m, kind, seed, k):
        rng = np.random.default_rng(seed)
        if kind == "product":
            # the factors x1 and x2 leave no pure power, so a retry does the work
            rows = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(m - 1)]
            rows += [np.eye(n)[0], np.eye(n)[1]]
            Q = product([lin(*r) for r in rows])
        else:
            Q = random_form(rng, n, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = factor_multilinear(Q)
            b = factor_multilinear(Q.scale(2.0 ** k))
        assert (a.decomposable, a.failure_reason, a.all_real) == (b.decomposable, b.failure_reason,
                                                                  b.all_real)
        if a.decomposable:
            fa, fb = a.factorization, b.factorization
            assert fb.constant == complex(np.ldexp(fa.constant.real, k), np.ldexp(fa.constant.imag, k))
            assert (fb.factors, fb.residual) == (fa.factors, fa.residual)


class TestOutcomes:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-1100, 1100))
    @example(m=3, seed=444, k=1023)  # attempt 0's division overflowed into np.roots
    def test_scaled_products_end_in_a_split_or_a_typed_error(self, m, seed, k):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
        q = product([lin(*r) for r in rows])
        with np.errstate(over="ignore"):  # a coefficient beyond the float range is an input too
            parts = np.ldexp(np.array(list(q.terms.values())).view(float), k)
        q = HomPoly(COMPLEX, 2, m, dict(zip(q.terms, parts.view(complex).tolist())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert factor_binary_form(q).residual <= factor.REASSEMBLY_TOL
            except (NonConvergenceError, ValueError):
                pass
            try:
                assert isinstance(factor_multilinear(q), FactorReport)
            except ValueError:
                pass


def on_model_denominator(n, m, seed):
    return forward_recursive(Weights.random(Architecture((n, m, 1)), COMPLEX, seed=seed)).denominator


# (n, m, seed, size): real on-model denominators, one coefficient moved by
# size of the largest, that tol 1e-8 accepts only on a retry after an
# attempt-0 residual of 1e3 to 2.4e5 times tol
RESCUED_BY_A_RETRY = [
    (4, 5, 20, 3e-10), (5, 5, 55, 3e-9), (5, 3, 29, 3e-9), (5, 4, 54, 3e-9), (3, 5, 20, 3e-9),
    (5, 5, 55, 3e-10), (3, 5, 14, 3e-9), (3, 5, 10, 3e-9), (5, 3, 29, 3e-10), (5, 4, 54, 3e-10),
    (3, 4, 11, 3e-9), (3, 5, 17, 3e-9), (3, 4, 14, 3e-9), (3, 5, 19, 3e-9), (3, 4, 59, 3e-9),
    (3, 5, 20, 3e-10), (4, 2, 5, 2e-8), (4, 4, 24, 3e-9), (3, 5, 14, 3e-10), (3, 3, 19, 3e-9),
]


class TestRetryScreen:
    @pytest.mark.parametrize("n", [3, 4])
    def test_a_far_miss_runs_no_retry(self, monkeypatch, n):
        # a random form with n >= 3 splits in no coordinates, and attempt 0
        # misses it by far: one attempt runs and its split is expanded once
        attempts = count_calls(monkeypatch, "_factor_attempt")
        expanded, real = [], LinearFactorization.reassemble
        monkeypatch.setattr(LinearFactorization, "reassemble",
                            lambda self: expanded.append(1) or real(self))
        for m in range(2, 6):
            for seed in range(5):
                attempts.clear()
                expanded.clear()
                report = factor_multilinear(random_form(np.random.default_rng(seed), n, m))
                assert report.failure_reason is FactorFailure.VERIFICATION_FAIL
                assert (len(attempts), len(expanded)) == (1, 1)

    def test_attempt_zero_builds_no_reader(self, monkeypatch):
        def refuse(Q):
            raise AssertionError("a split verified at attempt 0 paid for a pencil reader")

        monkeypatch.setattr(factor, "_PencilReader", refuse)
        for n, m in itertools.product((2, 3, 4), (2, 3, 4, 5)):
            for seed in range(3):
                assert factor_multilinear(on_model_denominator(n, m, seed)).decomposable

    @pytest.mark.parametrize("rows", [[(1, 1, 1), (1, 1, -1), (1, 2, 3)],
                                      [(1, 1, 2, 1), (1, 1, -1, 3), (1, 2, 3, 1), (1, -1, 0, 2)]])
    def test_an_ill_conditioned_miss_is_retried(self, monkeypatch, rows):
        # two factors share the pencil's ratio x2/x1, so attempt 0's symmetric
        # solve is near singular and its split misses by far; a retry splits
        attempts = count_calls(monkeypatch, "_factor_attempt")
        report = factor_multilinear(product([lin(*r) for r in rows]))
        assert report.decomposable and report.factorization.residual <= factor.REASSEMBLY_TOL
        assert len(attempts) == 2

    def test_near_misses_are_still_rescued_by_a_retry(self):
        # the margin FAR must exceed every attempt-0 miss that a retry mends
        for n, m, seed, size in RESCUED_BY_A_RETRY:
            Q = forward_recursive(Weights.random(Architecture((n, m, 1)), REAL, seed)).denominator
            terms = dict(Q.terms)
            terms[sorted(terms)[seed % len(terms)]] += Q.max_magnitude() * size
            assert factor_multilinear(HomPoly(REAL, n, m, terms), tol=1e-8).decomposable, (n, m, seed)
