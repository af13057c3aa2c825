import math
import random
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratnets.fields import COMPLEX, REAL
from ratnets.geometry import rank_test_membership
from ratnets.network import Architecture, RationalTuple, Weights, degrees, forward_recursive
from ratnets.poly import HomPoly, monomials, product
from ratnets.reconstruct import (ReconstructionError, Stage, _verified,
                                 membership_binary_multioutput, projective_mismatch,
                                 projective_normalize, reconstruct_auto,
                                 reconstruct_binary, reconstruct_shallow, resultant_binary,
                                 round_trip_residual)


def lin(*coeffs):
    return HomPoly.linear(COMPLEX, [complex(c) for c in coeffs])


def random_complex_weights(dims, seed):
    return Weights.random(Architecture(dims), COMPLEX, seed=seed)


def random_tuple(arch, seed):
    """Random complex coefficients with the degrees of arch's output tuple."""
    rng = random.Random(seed)
    prof = degrees(arch)

    def form(degree):
        return HomPoly(COMPLEX, arch.d0, degree,
                       {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for e in monomials(arch.d0, degree)})

    return RationalTuple(tuple(form(prof.numerator_degree) for _ in range(arch.dL)),
                         form(prof.denominator_degree))


def swapped_inputs(t):
    """t with x1 and x2 exchanged."""
    swap = [[0, 1], [1, 0]]
    return RationalTuple(tuple(p.compose_linear(swap) for p in t.numerators),
                         t.denominator.compose_linear(swap))


class TestProjective:
    def test_scaled_tuples_match(self):
        w = random_complex_weights((3, 3, 2), 1)
        t = forward_recursive(w)
        scaled = type(t)(tuple(p.scale(2.5 - 1j) for p in t.numerators),
                         t.denominator.scale(2.5 - 1j))
        assert projective_mismatch(t, scaled) < 1e-14

    def test_nan_in_a_second_numerator_is_no_match(self):
        # the maxima over the components kept a finite best against the NaN
        w = random_complex_weights((2, 2, 2), 3)
        t = forward_recursive(w)
        p2 = t.numerators[1]
        bad = RationalTuple((t.numerators[0],
                             HomPoly(COMPLEX, 2, 1, {**p2.terms, (1, 0): complex(math.nan)})),
                            t.denominator)
        assert math.isnan(projective_mismatch(t, bad))
        assert math.isnan(projective_mismatch(bad, t))
        verdict = _verified(w, bad, 1e-6)
        assert not verdict.in_model and verdict.stage_failed == Stage.VERIFICATION_FAIL

    def test_mismatch_over_a_scale_beyond_the_float_range_is_nan(self):
        # the modulus of 1.5e308 + 1.5e308j is inf: a normalized tuple against
        # itself deviates by 0, and 0 / inf read as an exact match
        t = projective_normalize(forward_recursive(random_complex_weights((2, 2, 1), 3)))
        p = t.numerators[0]
        big = RationalTuple((HomPoly(COMPLEX, 2, 1, {**p.terms, (1, 0): 1.5e308 + 1.5e308j}),),
                            t.denominator)
        assert math.isnan(projective_mismatch(big, big))

    def test_normalize_sets_leading_one(self):
        w = random_complex_weights((2, 2, 1), 2)
        t = projective_normalize(forward_recursive(w))
        assert abs(t.denominator.coefficient((2, 0)) - 1) < 1e-14


class TestReconstructShallow:
    def test_symmetric_example(self):
        P = HomPoly(COMPLEX, 3, 2, {(0, 1, 1): 1 + 0j, (1, 0, 1): 1 + 0j, (1, 1, 0): 1 + 0j})
        Q = HomPoly(COMPLEX, 3, 3, {(1, 1, 1): 1 + 0j})
        verdict = reconstruct_shallow(RationalTuple([P], Q), (3, 3, 1), tol=1e-8)
        assert verdict.in_model
        assert verdict.residual < 1e-8
        # rows must be coordinate directions up to scale/permutation
        rows = np.array(verdict.weights.mats[0], dtype=complex)
        hit = set()
        for r in rows:
            i = int(np.argmax(np.abs(r)))
            assert np.abs(np.delete(r, i)).max() < 1e-8 * abs(r[i])
            hit.add(i)
        assert hit == {0, 1, 2}

    def test_span_failure_for_divisibility_obstruction(self):
        # denominator with doubled first coordinate, numerator avoiding it
        m = 4
        Q = product([lin(1, 0), lin(1, 0), lin(1, 1), lin(1, -1)])
        P = HomPoly(COMPLEX, 2, m - 1, {(0, m - 1): 1 + 0j})
        verdict = reconstruct_shallow(RationalTuple([P], Q), (2, m, 1), tol=1e-8)
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.SPAN_TEST

    def test_degree_gate(self):
        P = HomPoly(COMPLEX, 2, 2, {(1, 1): 1 + 0j})
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j})
        verdict = reconstruct_shallow(RationalTuple([P], Q), (2, 3, 1))
        assert verdict.stage_failed == Stage.DEGREE_TEST

    def test_factor_gate(self):
        # full-rank quadric denominator in 3 vars is not a product of forms
        Q = HomPoly(COMPLEX, 3, 2, {(2, 0, 0): 1 + 0j, (0, 2, 0): 1 + 0j, (0, 0, 2): 1 + 0j})
        P = HomPoly(COMPLEX, 3, 1, {(1, 0, 0): 1 + 0j})
        verdict = reconstruct_shallow(RationalTuple([P], Q), (3, 2, 1))
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.FACTOR_TEST

    def test_zero_denominator_fails_factor_test(self):
        Q = HomPoly(COMPLEX, 2, 2, {})
        verdict = reconstruct_shallow(RationalTuple([lin(1, 0)], Q), (2, 2, 1))
        assert verdict.stage_failed == Stage.FACTOR_TEST

    @pytest.mark.parametrize("bad", [math.nan, complex(math.inf, 0), 1.5e308 + 1.5e308j])
    def test_denominator_the_factorizer_refuses_fails_factor_test(self, bad):
        # the factorizer's input guard, as for the binary peel
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): complex(bad), (0, 2): 1 + 0j})
        verdict = reconstruct_shallow(RationalTuple([lin(1, 0)], Q), (2, 2, 1))
        assert (verdict.in_model, verdict.stage_failed) == (False, Stage.FACTOR_TEST)

    @pytest.mark.parametrize("dims", [(3, 4, 2), (2, 3, 1), (4, 3, 3)])
    def test_round_trip_random(self, dims):
        for seed in range(5):
            w = random_complex_weights(dims, 40 + seed)
            t = forward_recursive(w)
            verdict = reconstruct_shallow(t, dims, tol=1e-6, seed=seed)
            assert verdict.in_model
            assert verdict.residual <= 1e-6

    def test_real_only_mode(self):
        w = Weights(Architecture((2, 2, 1)), COMPLEX,
                    (((1 + 0j, 0j), (0j, 1 + 0j)), ((1 + 0j, 1 + 0j),)))
        t = forward_recursive(w)
        ok = reconstruct_shallow(t, (2, 2, 1), require_real=True)
        assert ok.in_model
        # x^2 + y^2 denominator has no real split
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
        P = HomPoly(COMPLEX, 2, 1, {(1, 0): 1 + 0j})
        bad = reconstruct_shallow(RationalTuple([P], Q), (2, 2, 1), require_real=True)
        assert not bad.in_model
        assert bad.stage_failed == Stage.FACTOR_TEST


class TestReconstructBinary:
    def test_depth_two_plain_pair(self):
        P = lin(1, 1)
        Q = lin(1, 0).mul(lin(0, 1))  # x1 x2
        verdict = reconstruct_binary(RationalTuple([P], Q), 2, tol=1e-9)
        assert verdict.in_model
        assert verdict.residual < 1e-9

    @pytest.mark.parametrize("layers", [2, 3, 4])
    def test_round_trip_random(self, layers):
        for seed in range(5):
            w = random_complex_weights((2,) * layers + (1,), 60 + seed)
            t = forward_recursive(w)
            verdict = reconstruct_binary(t, layers, tol=1e-6)
            assert verdict.in_model, verdict.stage_failed
            assert verdict.residual <= 1e-6

    def test_unbalanced_depth_two_pair(self):
        # a large scale on distinct factors is no sign of a repeated factor
        P = lin(1, 2)
        Q = lin(1, 1).mul(lin(1, -1)).scale(1e8)
        verdict = reconstruct_binary(RationalTuple([P], Q), 2, tol=1e-9)
        assert verdict.in_model, verdict.stage_failed
        assert verdict.residual < 1e-9

    def test_depth_six_tower_with_unbalanced_last_peel(self):
        w = random_complex_weights((2,) * 6 + (1,), 11434421)
        t = forward_recursive(w)
        verdict = reconstruct_binary(t, 6)
        assert verdict.in_model, verdict.stage_failed
        assert verdict.residual <= 1e-6

    @pytest.mark.parametrize("seed", [51, 204])
    def test_depth_three_tower_with_swapped_inputs(self, seed):
        # after the swap one peeled root is 116 (seed 51) or 28,875 (seed 204);
        # substituting that unscaled row squeezed the next form's factors
        # into one direction, and the peel stopped at RepeatedFactors
        t = forward_recursive(Weights.random(Architecture((2, 2, 2, 1)), REAL, seed=seed))
        verdict = reconstruct_binary(swapped_inputs(t), 3)
        assert verdict.in_model, verdict.stage_failed
        assert verdict.residual <= 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(layers=st.integers(3, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_swapping_the_inputs_keeps_the_verdict(self, layers, seed):
        # x1 <-> x2 maps the model to itself (W1 -> W1 SWAP)
        t = forward_recursive(Weights.random(Architecture((2,) * layers + (1,)), REAL, seed=seed))
        assert (reconstruct_binary(t, layers).in_model
                == reconstruct_binary(swapped_inputs(t), layers).in_model)

    def test_repeated_factor_rejected(self):
        # denominator a 4th power: every factor proportional
        Q = product([lin(1, 1)] * 4)
        P = HomPoly(COMPLEX, 2, 3, {(3, 0): 1 + 0j, (0, 3): 2 + 0j})
        verdict = reconstruct_binary(RationalTuple([P], Q), 4)
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.REPEATED_FACTORS

    def test_degree_gate(self):
        P = HomPoly(COMPLEX, 2, 2, {(1, 1): 1 + 0j})
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j})
        assert reconstruct_binary(RationalTuple([P], Q), 3).stage_failed == Stage.DEGREE_TEST

    def test_generic_ambient_pair_is_reachable(self):
        # single-output towers fill their ambient space: a generic pair of
        # the right degrees, not built from any network, still reconstructs
        rng = random.Random(71)
        P = HomPoly(COMPLEX, 2, 3, {(3 - k, k): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                    for k in range(4)})
        Q = HomPoly(COMPLEX, 2, 4, {(4 - k, k): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                    for k in range(5)})
        verdict = reconstruct_binary(RationalTuple([P], Q), 4, tol=1e-8)
        assert verdict.in_model
        assert verdict.residual <= 1e-8


class TestResultantScreen:
    def test_resultant_matches_root_product_oracle(self):
        rng = random.Random(81)
        for _ in range(20):
            ra = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            rb = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            p = product([lin(1, -r) for r in ra])
            q = product([lin(1, -r) for r in rb])
            # oracle: resultant of monic split forms is prod (ri - sj)
            oracle = 1.0 + 0j
            for x in ra:
                for y in rb:
                    oracle *= (x - y)
            got = resultant_binary(p, q)
            assert abs(got - oracle) < 1e-8 * max(1.0, abs(oracle))

    def test_on_model_numerators_pass(self):
        w = random_complex_weights((2, 2, 2, 2), 90)  # layers=3, two outputs
        t = forward_recursive(w)
        verdict = membership_binary_multioutput(t, 3)
        assert verdict.in_model
        assert verdict.necessary_only

    def test_generic_numerators_rejected(self):
        rng = random.Random(91)
        Ps = [HomPoly(COMPLEX, 2, 3, {(3 - k, k): complex(rng.uniform(-1, 1))
                                      for k in range(4)}) for _ in range(2)]
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
        verdict = membership_binary_multioutput(RationalTuple(Ps, Q), 3)
        assert not verdict.in_model

    def test_layers_fix_the_degrees(self):
        rng = random.Random(92)
        Ps = [HomPoly(COMPLEX, 2, 7, {(7 - k, k): complex(rng.uniform(-1, 1))
                                      for k in range(8)}) for _ in range(2)]
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
        verdict = membership_binary_multioutput(RationalTuple(Ps, Q), 3)
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.DEGREE_TEST
        assert (membership_binary_multioutput(RationalTuple([], Q), 3).stage_failed
                == Stage.DEGREE_TEST)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_numerator_fails_the_screen(self, bad):
        # max(0.0, nan) is 0.0: a NaN determinant passed with residual 0
        t = forward_recursive(Weights.random(Architecture((2, 2, 2, 2)), COMPLEX, seed=1))
        Ps = list(t.numerators)
        Ps[0] = HomPoly(COMPLEX, 2, Ps[0].degree, {**Ps[0].terms, (Ps[0].degree, 0): bad})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = membership_binary_multioutput(RationalTuple(Ps, t.denominator), 3)
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.VERIFICATION_FAIL

    def test_single_output_is_reconstructed(self):
        # one numerator has no pair to screen: the screen passed every tuple,
        # P = x^3 over Q = xy too, whose cube has no two independent factors
        P = HomPoly(COMPLEX, 2, 3, {(3, 0): 1 + 0j})
        Q = HomPoly(COMPLEX, 2, 2, {(1, 1): 1 + 0j})
        verdict = membership_binary_multioutput(RationalTuple([P], Q), 3)
        assert (verdict.in_model, verdict.stage_failed, verdict.necessary_only) == \
            (False, Stage.REPEATED_FACTORS, False)
        for layers in (3, 4):
            t = forward_recursive(random_complex_weights((2,) * layers + (1,), 93))
            verdict = membership_binary_multioutput(t, layers)
            assert verdict.to_json() == reconstruct_binary(t, layers, 1e-8).to_json()
            assert verdict.in_model and verdict.weights is not None and not verdict.necessary_only


class TestRoundTrip:
    def test_identity_shallow_residual_zero(self):
        w = Weights(Architecture((3, 3, 1)), COMPLEX,
                    (tuple(tuple(1 + 0j if i == j else 0j for j in range(3)) for i in range(3)),
                     ((1 + 0j, 1 + 0j, 1 + 0j),)))
        assert round_trip_residual(w) <= 1e-12

    def test_statistical_shallow(self):
        ok = 0
        for seed in range(20):
            w = random_complex_weights((2, 3, 1), 100 + seed)
            if round_trip_residual(w, seed=seed) <= 1e-6:
                ok += 1
        assert ok >= 19

    def test_statistical_binary_depth5(self):
        ok = 0
        for seed in range(20):
            w = random_complex_weights((2, 2, 2, 2, 2, 1), 200 + seed)
            try:
                if round_trip_residual(w) <= 1e-6:
                    ok += 1
            except ReconstructionError:
                pass
        assert ok >= 19

    def test_zero_first_layer_row_raises_at_factor_test(self):
        # a zero row makes the denominator the zero form, which has no factorization
        w = Weights(Architecture((2, 2, 1)), COMPLEX, ([[0, 0], [1, 2]], [[1, 1]]))
        with pytest.raises(ReconstructionError) as err:
            round_trip_residual(w)
        assert err.value.verdict.stage_failed == Stage.FACTOR_TEST

    def test_auto_passes_real_only_to_shallow(self):
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
        P = HomPoly(COMPLEX, 2, 1, {(1, 0): 1 + 0j})
        t = RationalTuple((P,), Q)
        arch = Architecture((2, 2, 1))
        assert reconstruct_auto(t, arch).in_model
        bad = reconstruct_auto(t, arch, require_real=True)
        assert bad.stage_failed == Stage.FACTOR_TEST

    def test_auto_binary_tower(self):
        w = random_complex_weights((2, 2, 2, 1), 7)
        t = forward_recursive(w)
        assert reconstruct_auto(t, w.arch).in_model
        with pytest.raises(ValueError):
            reconstruct_auto(t, w.arch, require_real=True)
        two = RationalTuple(t.numerators * 2, t.denominator)
        assert reconstruct_auto(two, w.arch).stage_failed == Stage.DEGREE_TEST

    def test_unsupported_architecture(self):
        w = random_complex_weights((2, 2, 3, 1), 5)
        with pytest.raises(ValueError):
            round_trip_residual(w)


def well_conditioned(rng, size, complex_entries):
    """A random size x size matrix with condition number below 10."""
    while True:
        A = rng.normal(size=(size, size))
        if complex_entries:
            A = A + 1j * rng.normal(size=(size, size))
        if np.linalg.cond(A) < 10:
            return A


def moved(t, A, M):
    """t over COMPLEX with every component composed with A (x <- A y) and
    the numerators mixed by M (P_i <- sum_j M_ij P_j)."""
    polys = [HomPoly(COMPLEX, p.nvars, p.degree, {e: complex(c) for e, c in p.terms.items()})
             .compose_linear(A.tolist()) for p in t.all_polys()]
    *ps, q = polys
    mixed = [reduce(HomPoly.add, (p.scale(complex(c)) for c, p in zip(row, ps))) for row in M]
    return RationalTuple(tuple(mixed), q)


class TestMetamorphic:
    @settings(max_examples=360, deadline=None, derandomize=True)
    @given(case=st.one_of(
               st.tuples(st.sampled_from([reconstruct_auto, rank_test_membership]),
                         st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3))),
               st.tuples(st.just(membership_binary_multioutput),
                         st.builds(lambda layers, k: (2,) * layers + (k,),
                                   st.integers(2, 4), st.integers(1, 3)))),
           field=st.sampled_from([REAL, COMPLEX]), seed=st.integers(0, 2 ** 32 - 1),
           move=st.sampled_from(["permute", "linear", "mix"]), complex_move=st.booleans())
    def test_a_change_of_coordinates_keeps_the_verdict(self, case, field, seed, move,
                                                       complex_move):
        # permuting or mixing the inputs (x -> A x) maps the model to itself
        # (W1 -> W1 A), and so does mixing a one-hidden-layer tuple's
        # numerators (W2 -> M W2); the verdict on an on-model tuple must not move
        screen, dims = case
        arch = Architecture(dims)
        t = forward_recursive(Weights.random(arch, field, seed=seed))
        rng = np.random.default_rng(seed)
        n, k = arch.d0, arch.dL
        A, M = np.eye(n), np.eye(k)
        if move == "permute":
            A = A[rng.permutation(n)]
        elif move == "linear" or not arch.is_shallow():
            A = well_conditioned(rng, n, complex_move)
        else:
            M = well_conditioned(rng, k, complex_move)

        def in_model(t):
            if screen is rank_test_membership:
                return rank_test_membership(t, arch).ok
            if screen is reconstruct_auto:
                return reconstruct_auto(t, arch).in_model
            return membership_binary_multioutput(t, arch.layers).in_model

        assert in_model(moved(t, A, M)) == in_model(t)


class TestScale:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dims=st.sampled_from([(2, 2, 1), (2, 3, 1), (2, 5, 1), (3, 4, 2), (2, 2, 2, 1),
                                 (2, 2, 2, 2, 1)]),
           field=st.sampled_from([REAL, COMPLEX]), seed=st.integers(0, 50),
           k=st.integers(-100, 100))
    def test_verdict_and_residual_ignore_tuple_scale(self, dims, field, seed, k):
        # a power-of-two scale is exact, so every ratio the procedures form is unchanged
        arch = Architecture(dims)
        t = forward_recursive(Weights.random(arch, field, seed=seed))
        s = 2.0 ** k
        scaled = RationalTuple(tuple(p.scale(s) for p in t.numerators), t.denominator.scale(s))
        base, got = reconstruct_auto(t, arch), reconstruct_auto(scaled, arch)
        assert base.in_model
        assert (got.in_model, got.stage_failed, got.residual) == \
            (base.in_model, base.stage_failed, base.residual)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from([
               (reconstruct_auto, (2, 2, 1)), (reconstruct_auto, (3, 3, 2)),
               (reconstruct_auto, (2, 2, 2, 1)), (reconstruct_auto, (2, 2, 2, 2, 1)),
               (rank_test_membership, (2, 2, 1)), (rank_test_membership, (3, 2, 2)),
               (rank_test_membership, (3, 3, 2)),
               (membership_binary_multioutput, (2, 2, 2)),
               (membership_binary_multioutput, (2, 2, 2, 2)),
               (membership_binary_multioutput, (2, 2, 2, 3)),
               (membership_binary_multioutput, (2, 2, 2, 2, 2))]),
           seed=st.integers(0, 10 ** 6), on_model=st.booleans(), k=st.integers(-1000, 1000))
    def test_every_screen_ignores_a_power_of_two_scale(self, case, seed, on_model, k):
        # the reconstructions, the moment rank and the resultant screen bring
        # their input into range by powers of two, so 2**k changes no bit of
        # the verdict, on or off the model
        screen, dims = case
        arch = Architecture(dims)
        t = (forward_recursive(random_complex_weights(dims, seed)) if on_model
             else random_tuple(arch, seed))
        s = 2.0 ** k
        scaled = RationalTuple(tuple(p.scale(s) for p in t.numerators), t.denominator.scale(s))

        def outcome(t):
            if screen is reconstruct_auto:
                v = reconstruct_auto(t, arch)
            elif screen is rank_test_membership:
                v = rank_test_membership(t, arch)
                return v.ok, v.rank
            else:
                v = membership_binary_multioutput(t, arch.layers)
            return v.in_model, v.stage_failed, repr(v.residual)

        assert outcome(scaled) == outcome(t)

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from([
               (reconstruct_auto, (2, 2, 1)), (reconstruct_auto, (3, 3, 2)),
               (reconstruct_auto, (2, 2, 2, 1)), (reconstruct_auto, (2, 2, 2, 2, 1)),
               (rank_test_membership, (2, 2, 1)), (rank_test_membership, (3, 2, 2)),
               (rank_test_membership, (3, 3, 2)),
               (membership_binary_multioutput, (2, 2, 2)),
               (membership_binary_multioutput, (2, 2, 2, 1)),
               (membership_binary_multioutput, (2, 2, 2, 3)),
               (membership_binary_multioutput, (2, 2, 2, 2, 2))]),
           seed=st.integers(0, 10 ** 6), slot=st.integers(0, 10 ** 6),
           value=st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan,
                                  complex(1.5e308, 1.5e308)]))
    # the seed-5 numerator's x1^2 x2: "absolute value too large" before
    # field.magnitude read a complex beyond the float range as inf
    @example(case=(reconstruct_auto, (2, 2, 2, 1)), seed=5, slot=1, value=1e308)
    def test_an_injected_extreme_coefficient_ends_as_a_verdict(self, case, seed, slot, value):
        # one coefficient of an on-model tuple at or beyond the float range:
        # every screen returns its verdict (warnings are errors), and a pass
        # never rests on a residual or rank that was not measured
        screen, dims = case
        arch = Architecture(dims)
        polys = forward_recursive(random_complex_weights(dims, seed)).all_polys()
        slots = [(i, e) for i, p in enumerate(polys) for e in p.terms]
        i, e = slots[slot % len(slots)]
        p = polys[i]
        polys[i] = HomPoly(COMPLEX, p.nvars, p.degree, {**p.terms, e: complex(value)})
        t = RationalTuple(tuple(polys[:-1]), polys[-1])
        if screen is rank_test_membership:
            v = rank_test_membership(t, arch)
            assert not v.ok or v.rank >= 0
        else:
            v = (reconstruct_auto(t, arch) if screen is reconstruct_auto
                 else membership_binary_multioutput(t, arch.layers))
            assert not v.in_model or math.isfinite(v.residual)

    @pytest.mark.parametrize("dims", [(2, 5, 1), (3, 4, 2), (2, 3, 1)])
    @pytest.mark.parametrize("scale", [1e-20, 1e-6, 1e-3, 1e5, 1e20])
    def test_first_layer_scale_far_from_one(self, dims, scale):
        # the factorization constant is about scale**m; folding it into one
        # row of W1 made lstsq drop a deleted-product column
        w = random_complex_weights(dims, 3)
        w = Weights(w.arch, COMPLEX,
                    (tuple(tuple(scale * v for v in row) for row in w.mats[0]), w.mats[1]))
        v = reconstruct_auto(forward_recursive(w), w.arch)
        assert v.in_model, (v.stage_failed, v.residual)
        assert v.residual <= 1e-10
