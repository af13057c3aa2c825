import csv
import io
import itertools
import math
import random
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratnets import geometry
from ratnets.fields import COMPLEX, PrimeField
from ratnets.geometry import (_mul_mod, _point_count, _point_jacobian, _residues,
                              build_moment_matrix,
                              census, census_to_csv, enumerate_architectures,
                              expected_dim, fiber_upper_bound, filling_binary,
                              filling_shallow, gf_rank, jacobian_rank_mod_p, numerical_rank,
                              rank_test_membership)
from ratnets.network import (Architecture, RationalTuple, Weights, ambient_dim, degrees,
                             forward_recursive, param_count)
from ratnets.poly import HomPoly, monomials
from ratnets.reconstruct import reconstruct_shallow

P61, P62_BELOW, P62_ABOVE = 2 ** 61 - 1, 2 ** 62 - 57, 2 ** 62 + 135


class TestGfRank:
    def test_small_known_ranks(self):
        p = 101
        assert gf_rank([[1, 2], [2, 4]], p) == 1
        assert gf_rank([[1, 0], [0, 1]], p) == 2
        assert gf_rank([], p) == 0
        assert gf_rank([[0, 0, 0]], p) == 0

    def test_random_rank_matches_float(self):
        rng = np.random.default_rng(0)
        p = 2147483647
        for _ in range(10):
            r = rng.integers(1, 5)
            a = rng.integers(0, 50, size=(6, r)) @ rng.integers(0, 50, size=(r, 7))
            assert gf_rank([[int(v) for v in row] for row in a], p) == np.linalg.matrix_rank(a)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2 ** 31 - 1, 2 ** 61 - 1, P62_BELOW, P62_ABOVE]),
           m=st.integers(0, 7), n=st.integers(0, 7), inner=st.integers(0, 4))
    def test_matches_pure_python_oracle(self, gf_rank_oracle, data, p, m, n, inner):
        # entries from tiny to far beyond int64, and low-rank products
        entry = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                          st.sampled_from([p, p - 1, 2 * p + 1]))
        mat = lambda r, c: [[data.draw(entry) for _ in range(c)] for _ in range(r)]
        rows = mat(m, n)
        if data.draw(st.booleans()):
            b, c = mat(m, inner), mat(inner, n)
            rows = [[sum(b[i][t] * c[t][j] for t in range(inner)) for j in range(n)]
                    for i in range(m)]
        assert gf_rank(rows, p) == gf_rank_oracle(rows, p)

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1, 2 ** 62 + 135])
    @pytest.mark.parametrize("rows,want", [
        # a column elimination swapped here; row 0's pivot is in column 1, row 1's in column 0
        ([[0, 1, 2], [3, 4, 5], [6, 7, 9]], 3),
        # a column elimination found column 1 zero at and below rank 1; tall, so its
        # columns are ranked as rows, and the second is twice the first
        ([[1, 2, 3], [2, 4, 7], [3, 6, 1], [4, 8, 5]], 2),
        ([[1, 0, 0, 5, 6], [0, 1, 0, 7, 8], [0, 0, 1, 9, 1]], 3),  # wide: rank 3 before the last column
        ([[1, 2, 0, 0], [0, 1, 3, 0], [2, 5, 3, 0], [0, 0, 1, 7]], 3),  # row 2 zero after two pivots
        ([[0, 0, 2, 3, 1], [0, 4, 5, 0, 6], [7, 0, 1, 0, 0]], 3),  # pivots in columns 2, then 1, then 0
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 4, 7], [0, 2, 2]], 2),  # tall, transposed, rank < columns
        # int64's largest addend, (p - 1)(p - 1) + (p - 1)p, from p - 1 against a pivot row's 0
        ([[-1, 0, 0, 0], [-1, -1, -1, -1], [-1, -1, -1, -1]], 2),
        # the same addend where a wrapped sum would break row 2's dependence on row 1: rank 3
        ([[-1, 0, 0], [-1, -1, 1], [0, 1, -1]], 2),
    ], ids=["swap", "zero-column", "wide", "zero-partway", "unused-columns-first",
            "tall-transposed", "int64-largest-addend", "int64-largest-addend-exact"])
    def test_pivot_branches_match_the_oracle(self, gf_rank_oracle, rows, want, p):
        for mat in (rows, [[-x % p for x in row] for row in rows]):  # and entries near p
            assert gf_rank(mat, p) == gf_rank_oracle(mat, p) == want
            assert gf_rank([list(c) for c in zip(*mat)], p) == want
            arr = np.array(mat, dtype=np.int64)
            for given_arr in (arr, arr.T):  # a caller's array, wide or tall, is left as it was
                before = given_arr.copy()
                assert gf_rank(given_arr, p) == want
                assert np.array_equal(given_arr, before)

    @pytest.mark.parametrize("p", [2 ** 31 - 1, P61])
    @pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 4, 3), (4, 3, 2, 2, 3)])
    def test_census_jacobians_match_the_oracle(self, gf_rank_oracle, dims, p):
        # full-size Jacobians of the paper's table, wide and transposed, and with
        # two dependent rows appended; the fixed seed makes every case repeat
        arch = Architecture(dims)
        rng = random.Random(17)
        mats = [[[rng.randrange(p) for _ in range(c)] for _ in range(r)] for r, c in arch.shapes()]
        points = [[rng.randrange(p) for _ in range(arch.d0)] for _ in range(_point_count(arch))]
        jac = _point_jacobian(arch, mats, points, p).tolist()
        rank = gf_rank_oracle(jac, p)
        assert rank == expected_dim(arch) < len(jac)
        grown = jac + [[(x + 5 * y) % p for x, y in zip(jac[0], jac[-1])],
                       [(p - 3) * x % p for x in jac[1]]]
        for mat in (jac, grown):
            assert gf_rank(mat, p) == gf_rank_oracle(mat, p) == rank
            assert gf_rank([list(c) for c in zip(*mat)], p) == rank


class TestExpectedDim:
    @pytest.mark.parametrize("dims,want", [((3, 3, 3, 3), 22), ((2, 3, 4, 3), 24),
                                           ((4, 3, 2, 2, 3), 22), ((2, 2, 2, 3, 2, 1), 14),
                                           ((2, 2, 4, 2, 2, 1), 17), ((2, 2, 1), 5)])
    def test_reference_rows(self, dims, want):
        assert expected_dim(Architecture(dims)) == want

    def test_clamp_and_boundary(self):
        arch = Architecture((2, 2, 2, 3, 2, 1))
        assert fiber_upper_bound(arch) == 14
        assert ambient_dim(arch) == 15
        assert expected_dim(arch) == 14
        # at the filling boundary the two quantities coincide exactly
        arch2 = Architecture((2, 5, 1))
        assert fiber_upper_bound(arch2) == ambient_dim(arch2) == expected_dim(arch2) == 11


def full_sample_ranks(arch, seed, p, count, rank, jacobian=_point_jacobian):
    """rank(...) of the full _point_count(arch)-point Jacobian of each of the
    first count samples, drawn as jacobian_rank_mod_p draws them."""
    gf, out = PrimeField(p), []
    for t in range(count):
        rng = random.Random(seed + 104729 * t)
        mats = [[[gf.random(rng) for _ in range(c)] for _ in range(r)] for r, c in arch.shapes()]
        points = [[gf.random(rng) for _ in range(arch.d0)] for _ in range(_point_count(arch))]
        out.append(rank(jacobian(arch, mats, points, p).tolist(), p))
    return tuple(out)


class TestJacobianRank:
    def test_tiny_filling_case(self):
        rep = jacobian_rank_mod_p(Architecture((2, 2, 1)), seed=3)
        assert rep.jacobian_rank == 5
        assert rep.sample_ranks == (5,)  # the first sample reaches the bound
        assert rep.ambient_dim == 5
        assert rep.param_count == 6

    def test_rank_bounded_by_fiber_dimension(self):
        rng = random.Random(5)
        for dims in [(2, 3, 2), (3, 2, 2, 1), (2, 2, 3, 2)]:
            a = Architecture(dims)
            rep = jacobian_rank_mod_p(a, seed=rng.randrange(10000))
            assert rep.jacobian_rank <= fiber_upper_bound(a)
            assert rep.jacobian_rank <= min(param_count(a), ambient_dim(a))

    def test_resampling_stability(self):
        a = Architecture((2, 3, 2, 1))
        r1 = jacobian_rank_mod_p(a, seed=11, samples=1).jacobian_rank
        r2 = jacobian_rank_mod_p(a, seed=999, samples=1).jacobian_rank
        assert r1 == r2

    def test_sample_ranks_ignore_the_clock(self, monkeypatch):
        clock = itertools.count(step=1000.0)  # 1000 s pass between any two readings
        monkeypatch.setattr(geometry.time, "monotonic", lambda: next(clock))
        assert jacobian_rank_mod_p(Architecture((2, 2, 1)), seed=3).sample_ranks == (5,)

    @settings(max_examples=40, deadline=None)
    @given(arch=st.sampled_from(enumerate_architectures(12, 3, 4)),
           seed=st.integers(0, 2 ** 31), samples=st.integers(1, 3))
    def test_no_sample_ranks_above_the_bound(self, arch, seed, samples):
        # the stop is sound: with the bound out of reach every sample is drawn,
        # none ranks above the true bound, and their maximum is the stopped rank
        stopped = jacobian_rank_mod_p(arch, seed=seed, samples=samples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "expected_dim", lambda a: 10 ** 9)
            every = jacobian_rank_mod_p(arch, seed=seed, samples=samples)
        assert len(every.sample_ranks) >= samples
        assert max(every.sample_ranks) <= expected_dim(arch)
        assert every.jacobian_rank == stopped.jacobian_rank
        assert stopped.sample_ranks == every.sample_ranks[:len(stopped.sample_ranks)]

    def test_row_below_the_bound_draws_every_sample(self, monkeypatch):
        arch = Architecture((2, 3, 2, 1))
        rank = expected_dim(arch)
        monkeypatch.setattr(geometry, "expected_dim", lambda a: rank + 1)
        assert jacobian_rank_mod_p(arch, seed=4, samples=3).sample_ranks == (rank,) * 3
        # a first sample that undershoots makes the two disagree: one more is drawn
        calls, real_rank = itertools.count(), geometry.gf_rank
        monkeypatch.setattr(geometry, "gf_rank",
                            lambda rows, p: real_rank(rows, p) - (next(calls) == 0))
        rep = jacobian_rank_mod_p(arch, seed=4, samples=2)
        assert rep.sample_ranks == (rank - 1, rank, rank)
        assert rep.jacobian_rank == rank

    @settings(max_examples=30, deadline=None)
    @given(arch=st.sampled_from(enumerate_architectures(20, 4)),
           seed=st.integers(0, 2 ** 31), p=st.sampled_from([2 ** 31 - 1, 2 ** 61 - 1]))
    def test_prefix_ranks_equal_the_full_jacobian_ranks(self, gf_rank_oracle, arch, seed, p):
        rep = jacobian_rank_mod_p(arch, seed=seed, p=p)
        assert rep.sample_ranks == full_sample_ranks(arch, seed, p, len(rep.sample_ranks),
                                                     gf_rank_oracle)

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
    def test_prefix_short_of_the_bound_ranks_every_point(self, monkeypatch, gf_rank_oracle, p):
        arch, seed = Architecture((3, 3, 3, 3)), 4
        rank, n_points = expected_dim(arch), _point_count(arch)
        monkeypatch.setattr(geometry, "expected_dim", lambda a: rank + 1)  # out of reach
        few = math.ceil((rank + 1) / (arch.dL + 1)) + geometry.SPARE_POINTS
        assert few < n_points
        sizes, real = [], geometry._point_jacobian

        def recording(a, mats, points, q):
            sizes.append(len(points))
            return real(a, mats, points, q)

        monkeypatch.setattr(geometry, "_point_jacobian", recording)
        rep = jacobian_rank_mod_p(arch, seed=seed, p=p)
        assert sizes == [few, n_points - few] * 2  # each sample tops its prefix up
        assert rep.sample_ranks == full_sample_ranks(arch, seed, p, 2, gf_rank_oracle)
        assert rep.sample_ranks == (rank, rank)

        # sample 0 loses its rows past rank // 2: samples 0 and 1 disagree and
        # a third is drawn, each topped up from its prefix
        first = PrimeField(p).random(random.Random(seed))  # sample 0's first weight

        def degraded(a, mats, points, q):
            jac = real(a, mats, points, q)
            if mats[0][0][0] == first:
                jac[rank // 2:] = 0
            return jac

        monkeypatch.setattr(geometry, "_point_jacobian", degraded)
        rep = jacobian_rank_mod_p(arch, seed=seed, p=p)
        want = full_sample_ranks(arch, seed, p, 3, gf_rank_oracle, jacobian=degraded)
        assert rep.sample_ranks == want
        assert want[0] < want[1] == want[2] == rank == rep.jacobian_rank

    def test_prime_validation(self):
        # too small, composite; a second call reads the cached primality test
        for p in (1009, 999983, 2 ** 31, 2 ** 31 + 1, 1009, 2 ** 31 + 1):
            with pytest.raises(ValueError, match=r"^modulus must be a prime above 10\^6$"):
                jacobian_rank_mod_p(Architecture((2, 2, 1)), p=p)


ROW_ARCHS = [(2, 2, 1), (3, 3, 1), (2, 2, 2, 1), (2, 3, 2, 1)]
UINT64_BACKEND = geometry.LONG_DOUBLE_MANTISSA >= 63


def coefficient_rows_at(rows, arch, points, p):
    """J_coeff . blockdiag(V) mod p: coefficient-space Jacobian rows
    evaluated at the points, one monomial block per numerator and one for
    the denominator."""
    prof = degrees(arch)
    blocks = ([monomials(arch.d0, prof.numerator_degree)] * arch.dL
              + [monomials(arch.d0, prof.denominator_degree)])
    jac = np.array(rows, dtype=object)
    pieces, col = [], 0
    for mons in blocks:
        vander = np.array([[math.prod(x ** k for x, k in zip(pt, e)) for pt in points]
                           for e in mons], dtype=jac.dtype)
        pieces.append(jac[:, col:col + len(mons)] @ vander)
        col += len(mons)
    return np.concatenate(pieces, axis=1) % p


class TestJacobianRows:
    """The pointwise tangents equal the dual-number coefficient rows of the
    conftest oracle times the monomials evaluated at the points."""

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
    @pytest.mark.parametrize("dims", ROW_ARCHS)
    def test_mod_p_rows_equal_dual_oracle(self, dims, p, dual_field, dual_jacobian_rows):
        arch = Architecture(dims)
        gf = PrimeField(p)
        for seed in (0, 1):
            base = Weights.random(arch, gf, seed=seed)
            rng = random.Random(seed)
            points = [[rng.randrange(p) for _ in range(arch.d0)]
                      for _ in range(_point_count(arch))]
            want = coefficient_rows_at(dual_jacobian_rows(arch, base.mats, dual_field(gf)),
                                       arch, points, p)
            got = _point_jacobian(arch, base.mats, points, p)
            assert got.shape == (param_count(arch), (arch.dL + 1) * len(points))
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("dims", ROW_ARCHS)
    def test_mod_p_rows_equal_dual_oracle_near_p(self, dims, dual_field, dual_jacobian_rows):
        # residues just below p: a sum of unreduced int64 products would wrap
        p = 2 ** 31 - 1
        arch = Architecture(dims)
        rng = random.Random(7)
        near = lambda: p - rng.randrange(1, 64)
        mats = tuple(tuple(tuple(near() for _ in range(c)) for _ in range(r))
                     for r, c in arch.shapes())
        points = [[near() for _ in range(arch.d0)] for _ in range(_point_count(arch))]
        want = coefficient_rows_at(dual_jacobian_rows(arch, mats, dual_field(PrimeField(p))),
                                   arch, points, p)
        assert _point_jacobian(arch, mats, points, p).tolist() == want.tolist()

    @pytest.mark.parametrize("dims", ROW_ARCHS)
    def test_mod_p_rows_equal_dual_oracle_near_p61(self, dims, dual_field, dual_jacobian_rows):
        # residues just below 2^61 - 1: the uint64 products' quotient estimates
        # are largest there, and a sum of them wraps past 2^64
        p = P61
        arch = Architecture(dims)
        rng = random.Random(8)
        near = lambda: p - rng.randrange(1, 64)
        mats = tuple(tuple(tuple(near() for _ in range(c)) for _ in range(r))
                     for r, c in arch.shapes())
        points = [[near() for _ in range(arch.d0)] for _ in range(_point_count(arch))]
        want = coefficient_rows_at(dual_jacobian_rows(arch, mats, dual_field(PrimeField(p))),
                                   arch, points, p)
        assert _point_jacobian(arch, mats, points, p).tolist() == want.tolist()


class TestModPBackends:
    """The residue dtype picks the arithmetic: int64 below 2^31, uint64 with a
    long-double quotient estimate below 2^62, Python ints above (and where
    long double is plain double).  All must agree with Python ints."""

    def test_dtype_follows_p_and_platform(self, monkeypatch):
        assert _residues([1, -1], 2 ** 31 - 1).dtype == np.int64
        for p in (2 ** 31 + 11, P61, P62_BELOW):
            assert _residues([1, -1], p).dtype == (np.uint64 if UINT64_BACKEND else object)
            assert _residues([1, -1, 2 ** 80], p).tolist() == [1, p - 1, 2 ** 80 % p]
        assert _residues([1], P62_ABOVE).dtype == object
        monkeypatch.setattr(geometry, "LONG_DOUBLE_MANTISSA", 52)
        assert _residues([1], P61).dtype == object

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from([P61, P62_BELOW]), n=st.integers(1, 12))
    def test_mul_and_add_match_python_ints(self, data, p, n):
        residue = st.one_of(st.sampled_from([0, 1, p - 2, p - 1]), st.integers(0, p - 1))
        xs = data.draw(st.lists(residue, min_size=n, max_size=n))
        ys = data.draw(st.lists(residue, min_size=n, max_size=n))
        a, b = _residues(xs, p), _residues(ys, p)
        assert _mul_mod(a, b, p).tolist() == [x * y % p for x, y in zip(xs, ys)]
        # broadcast, with either operand the smaller, as in the tangent products
        outer = [[x * y % p for y in ys] for x in xs]
        assert _mul_mod(a[:, None], b[None, :], p).tolist() == outer
        assert _mul_mod(a[:1, None], b[None, :], p).tolist() == outer[:1]
        assert _mul_mod(a[:, None], b[None, :1], p).tolist() == [row[:1] for row in outer]
        assert _mul_mod(a, a.dtype.type(ys[0]), p).tolist() == [x * ys[0] % p for x in xs]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2 ** 31 - 1, P61, P62_BELOW]), n=st.integers(1, 8),
           m=st.integers(1, 8), seed=st.integers(0, 2 ** 32), fallback=st.booleans())
    def test_fused_add_matches_python_ints(self, data, p, n, m, seed, fallback):
        # a column times a row plus a block, as in gf_rank's pivot step; at
        # P62_BELOW the sum before the remainder comes within 4p of 2^64.
        # Uniform residues, since a few percent of their products have a
        # quotient estimate one too high (a*b - q*p < 0), with edge values
        rng = random.Random(seed)
        xs, ys = [rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(m)]
        block = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        for row in [xs, ys] + block:
            for i in data.draw(st.lists(st.integers(0, len(row) - 1), max_size=2)):
                row[i] = data.draw(st.sampled_from([0, 1, p - 2, p - 1]))
        with unittest.mock.patch.object(geometry, "LONG_DOUBLE_MANTISSA",
                                        52 if fallback else geometry.LONG_DOUBLE_MANTISSA):
            a, b, add = _residues(xs, p), _residues(ys, p), _residues(block, p)
        assert a.dtype == (np.int64 if p < 2 ** 31 else object if fallback or not UINT64_BACKEND
                           else np.uint64)
        want = [[(c + x * y) % p for y, c in zip(ys, row)] for x, row in zip(xs, block)]
        assert _mul_mod(a[:, None], b, p, add).tolist() == want
        assert _mul_mod(b, a[:, None], p, add).tolist() == want
        # a zero or no addend: a*b - q*p plus p alone must not fall below zero
        products = [[x * y % p for y in ys] for x in xs]
        assert _mul_mod(a[:, None], b, p, add * 0).tolist() == products
        assert _mul_mod(a[:, None], b, p).tolist() == products
        # the column against one residue, as gf_rank scales it
        assert _mul_mod(a[:, None], b.dtype.type(ys[0]), p).tolist() == [[x * ys[0] % p] for x in xs]

    @pytest.mark.parametrize("p", [P61, P62_BELOW])
    @pytest.mark.parametrize("dims", [(2, 2, 1), (2, 3, 2, 1), (6, 2, 1), (2, 7, 2, 1)])
    def test_python_int_fallback_gives_the_same_rows_and_ranks(self, monkeypatch, dims, p):
        # widths 6 and 7: a sum of that many unreduced uint64 residues wraps
        arch = Architecture(dims)
        rng = random.Random(3)
        mats = [[[rng.randrange(p) for _ in range(c)] for _ in range(r)]
                for r, c in arch.shapes()]
        points = [[rng.randrange(p) for _ in range(arch.d0)] for _ in range(_point_count(arch))]
        fast = _point_jacobian(arch, mats, points, p).tolist()
        # append combinations of earlier rows so that the rank is not full
        rows = fast + [[(x + 5 * y) % p for x, y in zip(fast[0], fast[-1])], fast[1]]
        ranks = [gf_rank(rows, p), gf_rank([list(r) for r in zip(*rows)], p)]
        monkeypatch.setattr(geometry, "LONG_DOUBLE_MANTISSA", 52)  # long double as double
        slow = _point_jacobian(arch, mats, points, p)
        assert slow.dtype == object
        assert slow.tolist() == fast
        assert [gf_rank(rows, p), gf_rank([list(r) for r in zip(*rows)], p)] == ranks
        assert ranks[0] < len(rows)

    @pytest.mark.parametrize("p", [P62_BELOW, P62_ABOVE])
    @pytest.mark.parametrize("dims", [(2, 2, 1), (2, 3, 2, 1)])
    def test_rank_near_2_62(self, dims, p):
        arch = Architecture(dims)
        rep = jacobian_rank_mod_p(arch, seed=1, p=p)
        assert rep.jacobian_rank == rep.conjectured_dim == expected_dim(arch)
        assert rep.sample_ranks == (rep.jacobian_rank,)


class TestFilling:
    def test_shallow_cases(self):
        assert filling_shallow(2, 5, 1) == type(filling_shallow(2, 5, 1))(True, True, False)
        f = filling_shallow(3, 3, 1)
        assert (f.params_feasible, f.variety_filling, f.manifold_filling) == (False, False, False)
        assert param_count(Architecture((3, 3, 1))) == 12
        assert ambient_dim(Architecture((3, 3, 1))) == 16
        t = filling_shallow(1, 4, 2)
        assert (t.params_feasible, t.variety_filling, t.manifold_filling) == (True, True, True)

    def test_binary_cases(self):
        f = filling_binary(4, 3)
        assert (f.params_feasible, f.variety_filling) == (True, False)
        f = filling_binary(5, 1)
        assert (f.params_feasible, f.variety_filling) == (True, True)
        f = filling_binary(3, 3)
        assert (f.params_feasible, f.variety_filling) == (False, False)
        f = filling_binary(2, 7)
        assert (f.params_feasible, f.variety_filling) == (True, True)


def on_model_tuple(d0, d2, seed):
    w = Weights.random(Architecture((d0, 2, d2)), COMPLEX, seed=seed)
    t = forward_recursive(w)
    return list(t.numerators), t.denominator


def random_ambient_tuple(d0, d1, d2, rng):
    nums = [HomPoly(COMPLEX, d0, d1 - 1,
                    {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for e in monomials(d0, d1 - 1)}) for _ in range(d2)]
    den = HomPoly(COMPLEX, d0, d1,
                  {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for e in monomials(d0, d1)})
    return nums, den


class TestMomentMatrix:
    def test_layout_matches_stated_pattern(self):
        # (3,2,1): first column numerator coefficients, then the symmetric
        # block with doubled diagonal
        rng = random.Random(7)
        nums, den = random_ambient_tuple(3, 2, 1, rng)
        mm = build_moment_matrix(RationalTuple(nums, den), (3, 2, 1))
        assert mm.shape == (3, 4)
        for i in range(3):
            e_i = tuple(1 if t == i else 0 for t in range(3))
            assert mm[i, 0] == complex(nums[0].coefficient(e_i))
            for j in range(3):
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                mult = 2 if i == j else 1
                assert mm[i, 1 + j] == mult * complex(den.coefficient(tuple(e)))

    @pytest.mark.parametrize("change", ["count", "width", "degree"])
    def test_shape_mismatch_is_one_error(self, change):
        nums, den = on_model_tuple(3, 2, 4)
        if change == "count":
            nums = nums[:1]
        elif change == "width":
            den = HomPoly.zero(COMPLEX, 4, den.degree)
        else:
            nums[0] = nums[0].mul(HomPoly.linear(COMPLEX, [1j, 0j, 0j]))
        with pytest.raises(ValueError, match=r"tuple shape does not match the architecture 3,2,2"):
            build_moment_matrix(RationalTuple(nums, den), (3, 2, 2))

    def test_on_model_rank_two(self):
        for seed in range(10):
            nums, den = on_model_tuple(4, 3, seed)
            mm = build_moment_matrix(RationalTuple(nums, den), (4, 2, 3))
            assert numerical_rank(mm) == 2

    def test_ambient_rank_exceeds_two(self):
        rng = random.Random(8)
        for _ in range(10):
            nums, den = random_ambient_tuple(4, 2, 3, rng)
            mm = build_moment_matrix(RationalTuple(nums, den), (4, 2, 3))
            assert numerical_rank(mm) >= 3

    def test_perturbed_on_model_rejected(self):
        nums, den = on_model_tuple(5, 2, 3)
        bumped = dict(den.terms)
        key = next(iter(bumped))
        bumped[key] = bumped[key] + 1e-2
        den2 = HomPoly(COMPLEX, 5, 2, bumped)
        assert rank_test_membership(RationalTuple(nums, den), (5, 2, 2)).ok
        assert not rank_test_membership(RationalTuple(nums, den2), (5, 2, 2)).ok

    def test_wide_hidden_flagged_necessary_only(self):
        w = Weights.random(Architecture((3, 3, 1)), COMPLEX, seed=2)
        t = forward_recursive(w)
        res = rank_test_membership(t, (3, 3, 1))
        assert res.ok
        assert res.necessary_only

    def test_closure_point_passes_as_necessary_only(self):
        # x2 / x1^2 is a limit of on-model (3, 2, 1) tuples but no sum
        # a / l1 + b / l2: the rank screen passes it and claims no more
        x1, x2 = (HomPoly.linear(COMPLEX, [1 + 0j, 0j, 0j]),
                  HomPoly.linear(COMPLEX, [0j, 1 + 0j, 0j]))
        res = rank_test_membership(RationalTuple([x2], x1.mul(x1)), (3, 2, 1))
        assert res.ok and res.rank == 2
        assert res.necessary_only
        assert not reconstruct_shallow(RationalTuple([x2], x1.mul(x1)),
                                       Architecture((3, 2, 1))).in_model

    def test_factorization_reproduces_matrix(self):
        # on-model matrix equals (column-swapped W1^T) @ [W2^T | W1]
        w = Weights.random(Architecture((4, 2, 3)), COMPLEX, seed=9)
        nums, den = list(forward_recursive(w).numerators), forward_recursive(w).denominator
        mm = build_moment_matrix(RationalTuple(nums, den), (4, 2, 3))
        W1 = np.array(w.mats[0], dtype=complex)
        W2 = np.array(w.mats[1], dtype=complex)
        left = np.stack([W1[1], W1[0]], axis=1)       # rows (a_2i, a_1i)
        right = np.concatenate([W2.T, W1], axis=1)    # 2 x (d2 + d0)
        assert np.max(np.abs(mm - left @ right)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(dims=st.sampled_from([(2, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (4, 2, 3), (2, 4, 2)]),
           seed=st.integers(0, 10 ** 6), on_model=st.booleans(), k=st.integers(-1000, 1000))
    def test_power_of_two_scale_keeps_the_verdict(self, dims, seed, on_model, k):
        if on_model:
            t = forward_recursive(Weights.random(Architecture(dims), COMPLEX, seed=seed))
            nums, den = list(t.numerators), t.denominator
        else:
            nums, den = random_ambient_tuple(*dims, random.Random(seed))

        def scaled(p):
            return HomPoly(COMPLEX, p.nvars, p.degree,
                           {e: complex(math.ldexp(c.real, k), math.ldexp(c.imag, k))
                            for e, c in p.terms.items()})

        a = rank_test_membership(RationalTuple(nums, den), dims)
        b = rank_test_membership(RationalTuple([scaled(p) for p in nums], scaled(den)), dims)
        assert (b.ok, b.rank) == (a.ok, a.rank)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(0, float("inf"))])
    @pytest.mark.parametrize("in_denominator", [False, True])
    def test_non_finite_coefficient_never_passes(self, bad, in_denominator):
        nums, den = on_model_tuple(3, 2, 4)
        p = den if in_denominator else nums[0]
        bad_p = HomPoly(COMPLEX, p.nvars, p.degree, {**p.terms, next(iter(p.terms)): bad})
        if in_denominator:
            den = bad_p
        else:
            nums[0] = bad_p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rank_test_membership(RationalTuple(nums, den), (3, 2, 2))
        assert not res.ok

    def test_exact_field_tuple_is_a_type_error(self):
        # GF(101) residues have no complex image; read as complex numbers,
        # this on-model tuple was rejected with moment rank 3
        arch = Architecture((3, 2, 2))
        t = forward_recursive(Weights.random(arch, PrimeField(101), seed=1))
        for screen in (rank_test_membership, reconstruct_shallow):
            with pytest.raises(TypeError, match="no complex image"):
                screen(t, arch)

    def test_moment_matrix_of_an_exact_field_tuple_is_a_type_error(self):
        # build_moment_matrix took complex() of each residue: this on-model
        # tuple gave a matrix of numerical rank 3, where the model's is 2
        arch = Architecture((3, 2, 2))
        t = forward_recursive(Weights.random(arch, PrimeField(101), seed=1))
        with pytest.raises(TypeError, match="no complex image"):
            build_moment_matrix(t, arch)

    def test_dimension_claim_for_width_two(self):
        for (n, m) in [(2, 2), (3, 1), (3, 3)]:
            rep = jacobian_rank_mod_p(Architecture((n, 2, m)), seed=5)
            assert rep.jacobian_rank == 2 * (n + m) - 1


def csv_without_runtime(reports):
    """The census CSV rows; every field except the wall-clock runtime is
    deterministic."""
    out = io.StringIO()
    census_to_csv(reports, out)
    return [row[:6] + row[7:] for row in csv.reader(io.StringIO(out.getvalue()))]


class TestCensus:
    def test_enumeration_722(self):
        assert len(enumerate_architectures(30, 5)) == 722

    def test_enumeration_order_and_membership(self):
        archs = enumerate_architectures(8, 2)
        dims = [a.dims for a in archs]
        assert dims == sorted(dims, key=lambda d: (len(d), d))
        assert (2, 2, 1) in dims
        assert all(sum(d[i] * d[i + 1] for i in range(len(d) - 1)) <= 8 for d in dims)

    def test_small_census_rows(self):
        reports = census(8, 2, seed=0)
        by_arch = {r.arch: r for r in reports}
        assert by_arch[(2, 2, 1)].jacobian_rank == 5
        assert all(r.status == "ok" for r in reports)
        assert all(r.match for r in reports)

    def test_workers_do_not_change_output(self):
        assert (csv_without_runtime(census(8, 2, seed=3, workers=1))
                == csv_without_runtime(census(8, 2, seed=3, workers=2)))

    def test_certified_rows_match_every_sample_rows(self, monkeypatch):
        one = census(10, 3, seed=5)
        assert all(len(r.sample_ranks) == 1 for r in one)
        monkeypatch.setattr(geometry, "expected_dim", lambda a: 10 ** 9)  # never stop
        every = census(10, 3, seed=5)
        assert all(len(r.sample_ranks) == 2 for r in every)
        assert [(r.arch, r.jacobian_rank) for r in every] == [(r.arch, r.jacobian_rank)
                                                              for r in one]

    def test_pool_never_outnumbers_jobs(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, procs):
                sizes.append(procs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, jobs):
                return [fn(*j) for j in jobs]

        monkeypatch.setattr(geometry, "Pool", RecordingPool)
        # 0, 1, 3 and 3 architectures: no pool for one job or none
        for max_params, workers in ((4, 4), (6, 4), (8, 4), (8, 2)):
            reports = census(max_params, 2, seed=3, workers=workers)
            assert len(reports) == len(enumerate_architectures(max_params, 2))
        assert sizes == [3, 2]

    def test_rows_do_not_depend_on_the_clock(self, monkeypatch):
        def fields(reports):  # every field but the wall-clock runtime
            return [{**vars(r), "runtime_seconds": None} for r in reports]

        expected = fields(census(8, 2, seed=3))
        clock = itertools.count(step=1000.0)  # 1000 s pass between any two readings
        monkeypatch.setattr(geometry.time, "monotonic", lambda: next(clock))
        reports = census(8, 2, seed=3)
        assert fields(reports) == expected
        assert all(r.jacobian_rank is not None and r.status == "ok" for r in reports)

    def test_csv_columns(self):
        buf = io.StringIO()
        census_to_csv(census(6, 2, seed=0), buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "arch,jacobian_rank,ambient_dim,param_count,conjectured_dim,match,runtime_s,status"
