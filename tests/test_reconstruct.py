import random

import numpy as np
import pytest

from ratnets.fields import COMPLEX
from ratnets.network import Architecture, RationalTuple, Weights, forward_recursive
from ratnets.poly import HomPoly, product
from ratnets.reconstruct import (ReconstructionError, Stage,
                                 membership_binary_multioutput, projective_mismatch,
                                 projective_normalize, reconstruct_auto,
                                 reconstruct_binary, reconstruct_shallow, resultant_binary,
                                 round_trip_residual)


def lin(*coeffs):
    return HomPoly.linear(COMPLEX, [complex(c) for c in coeffs])


def random_complex_weights(dims, seed):
    return Weights.random(Architecture(dims), COMPLEX, seed=seed)


class TestProjective:
    def test_scaled_tuples_match(self):
        w = random_complex_weights((3, 3, 2), 1)
        t = forward_recursive(w)
        scaled = type(t)(tuple(p.scale(2.5 - 1j) for p in t.numerators),
                         t.denominator.scale(2.5 - 1j))
        assert projective_mismatch(t, scaled) < 1e-14

    def test_normalize_sets_leading_one(self):
        w = random_complex_weights((2, 2, 1), 2)
        t = projective_normalize(forward_recursive(w))
        assert abs(t.denominator.coefficient((2, 0)) - 1) < 1e-14


class TestReconstructShallow:
    def test_symmetric_example(self):
        P = HomPoly(COMPLEX, 3, 2, {(0, 1, 1): 1 + 0j, (1, 0, 1): 1 + 0j, (1, 1, 0): 1 + 0j})
        Q = HomPoly(COMPLEX, 3, 3, {(1, 1, 1): 1 + 0j})
        verdict = reconstruct_shallow([P], Q, (3, 3, 1), tol=1e-8)
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
        verdict = reconstruct_shallow([P], Q, (2, m, 1), tol=1e-8)
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.SPAN_TEST

    def test_degree_gate(self):
        P = HomPoly(COMPLEX, 2, 2, {(1, 1): 1 + 0j})
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j})
        verdict = reconstruct_shallow([P], Q, (2, 3, 1))
        assert verdict.stage_failed == Stage.DEGREE_TEST

    def test_factor_gate(self):
        # full-rank quadric denominator in 3 vars is not a product of forms
        Q = HomPoly(COMPLEX, 3, 2, {(2, 0, 0): 1 + 0j, (0, 2, 0): 1 + 0j, (0, 0, 2): 1 + 0j})
        P = HomPoly(COMPLEX, 3, 1, {(1, 0, 0): 1 + 0j})
        verdict = reconstruct_shallow([P], Q, (3, 2, 1))
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.FACTOR_TEST

    def test_zero_denominator_fails_factor_test(self):
        Q = HomPoly(COMPLEX, 2, 2, {})
        verdict = reconstruct_shallow([lin(1, 0)], Q, (2, 2, 1))
        assert verdict.stage_failed == Stage.FACTOR_TEST

    @pytest.mark.parametrize("dims", [(3, 4, 2), (2, 3, 1), (4, 3, 3)])
    def test_round_trip_random(self, dims):
        for seed in range(5):
            w = random_complex_weights(dims, 40 + seed)
            t = forward_recursive(w)
            verdict = reconstruct_shallow(list(t.numerators), t.denominator, dims,
                                          tol=1e-6, seed=seed)
            assert verdict.in_model
            assert verdict.residual <= 1e-6

    def test_real_only_mode(self):
        w = Weights(Architecture((2, 2, 1)), COMPLEX,
                    (((1 + 0j, 0j), (0j, 1 + 0j)), ((1 + 0j, 1 + 0j),)))
        t = forward_recursive(w)
        ok = reconstruct_shallow(list(t.numerators), t.denominator, (2, 2, 1),
                                 require_real=True)
        assert ok.in_model
        # x^2 + y^2 denominator has no real split
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
        P = HomPoly(COMPLEX, 2, 1, {(1, 0): 1 + 0j})
        bad = reconstruct_shallow([P], Q, (2, 2, 1), require_real=True)
        assert not bad.in_model
        assert bad.stage_failed == Stage.FACTOR_TEST


class TestReconstructBinary:
    def test_depth_two_plain_pair(self):
        P = lin(1, 1)
        Q = lin(1, 0).mul(lin(0, 1))  # x1 x2
        verdict = reconstruct_binary(P, Q, 2, tol=1e-9)
        assert verdict.in_model
        assert verdict.residual < 1e-9

    @pytest.mark.parametrize("layers", [2, 3, 4])
    def test_round_trip_random(self, layers):
        for seed in range(5):
            w = random_complex_weights((2,) * layers + (1,), 60 + seed)
            t = forward_recursive(w)
            verdict = reconstruct_binary(t.numerators[0], t.denominator, layers,
                                         tol=1e-6)
            assert verdict.in_model, verdict.stage_failed
            assert verdict.residual <= 1e-6

    def test_unbalanced_depth_two_pair(self):
        # a large scale on distinct factors is no sign of a repeated factor
        P = lin(1, 2)
        Q = lin(1, 1).mul(lin(1, -1)).scale(1e8)
        verdict = reconstruct_binary(P, Q, 2, tol=1e-9)
        assert verdict.in_model, verdict.stage_failed
        assert verdict.residual < 1e-9

    def test_depth_six_tower_with_unbalanced_last_peel(self):
        w = random_complex_weights((2,) * 6 + (1,), 11434421)
        t = forward_recursive(w)
        verdict = reconstruct_binary(t.numerators[0], t.denominator, 6)
        assert verdict.in_model, verdict.stage_failed
        assert verdict.residual <= 1e-6

    def test_repeated_factor_rejected(self):
        # denominator a 4th power: every factor proportional
        Q = product([lin(1, 1)] * 4)
        P = HomPoly(COMPLEX, 2, 3, {(3, 0): 1 + 0j, (0, 3): 2 + 0j})
        verdict = reconstruct_binary(P, Q, 4)
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.REPEATED_FACTORS

    def test_degree_gate(self):
        P = HomPoly(COMPLEX, 2, 2, {(1, 1): 1 + 0j})
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j})
        assert reconstruct_binary(P, Q, 3).stage_failed == Stage.DEGREE_TEST

    def test_generic_ambient_pair_is_reachable(self):
        # single-output towers fill their ambient space: a generic pair of
        # the right degrees, not built from any network, still reconstructs
        rng = random.Random(71)
        P = HomPoly(COMPLEX, 2, 3, {(3 - k, k): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                    for k in range(4)})
        Q = HomPoly(COMPLEX, 2, 4, {(4 - k, k): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                    for k in range(5)})
        verdict = reconstruct_binary(P, Q, 4, tol=1e-8)
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
        verdict = membership_binary_multioutput(list(t.numerators), t.denominator, 3)
        assert verdict.in_model
        assert verdict.necessary_only

    def test_generic_numerators_rejected(self):
        rng = random.Random(91)
        Ps = [HomPoly(COMPLEX, 2, 3, {(3 - k, k): complex(rng.uniform(-1, 1))
                                      for k in range(4)}) for _ in range(2)]
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
        verdict = membership_binary_multioutput(Ps, Q, 3)
        assert not verdict.in_model

    def test_layers_fix_the_degrees(self):
        rng = random.Random(92)
        Ps = [HomPoly(COMPLEX, 2, 7, {(7 - k, k): complex(rng.uniform(-1, 1))
                                      for k in range(8)}) for _ in range(2)]
        Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
        verdict = membership_binary_multioutput(Ps, Q, 3)
        assert not verdict.in_model
        assert verdict.stage_failed == Stage.DEGREE_TEST
        assert membership_binary_multioutput([], Q, 3).stage_failed == Stage.DEGREE_TEST

    def test_single_output_vacuous(self):
        P = HomPoly(COMPLEX, 2, 3, {(3, 0): 1 + 0j})
        Q = HomPoly(COMPLEX, 2, 2, {(1, 1): 1 + 0j})
        assert membership_binary_multioutput([P], Q, 3).in_model


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
