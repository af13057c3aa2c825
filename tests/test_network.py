import itertools
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ratnets.fields import COMPLEX, REAL, PrimeField
from ratnets.network import (Architecture, ArchitectureError, DomainError, RationalTuple,
                             Weights, ambient_dim, apply_symmetry, degrees, eval_network,
                             forward_binary, forward_layers, forward_recursive,
                             layer_degrees, param_count, shape_matches)
from ratnets.poly import HomPoly

GF = PrimeField(2147483647)


def real_weights(dims, seed=0):
    return Weights.random(Architecture(dims), REAL, seed=seed)


class TestArchitecture:
    def test_rejects_thin_hidden_layers(self):
        with pytest.raises(ArchitectureError):
            Architecture((2, 1, 2))
        with pytest.raises(ArchitectureError):
            Architecture((1, 3, 1))

    def test_output_width_one_is_fine(self):
        assert Architecture((2, 2, 1)).dL == 1


class TestDegrees:
    def test_shallow_221(self):
        prof = degrees(Architecture((2, 2, 1)))
        assert (prof.numerator_degree, prof.denominator_degree) == (1, 2)

    def test_binary_2221(self):
        prof = degrees(Architecture((2, 2, 2, 1)))
        assert (prof.numerator_degree, prof.denominator_degree) == (3, 2)

    def test_3333_matches_expansion(self):
        w = Weights.random(Architecture((3, 3, 3, 3)), GF, seed=1)
        t = forward_recursive(w)
        prof = degrees(w.arch)
        assert t.denominator.degree == prof.denominator_degree
        assert all(p.degree == prof.numerator_degree for p in t.numerators)

    def test_exhaustive_sweep_degrees_and_intermediates(self):
        # all architectures with 2..5 matrices, widths in {2,3,4}, and at
        # most 30 parameters (wider towers reach degrees in the hundreds,
        # far outside the regime anything here targets)
        for L in range(2, 6):
            for dims in itertools.product((2, 3, 4), repeat=L + 1):
                if sum(dims[i] * dims[i + 1] for i in range(L)) > 30:
                    continue
                arch = Architecture(dims)
                w = Weights.random(arch, GF, seed=hash(dims) % 100000)
                p_last, qs = forward_layers(w)
                n_k, m_k = layer_degrees(arch)
                assert all(p.degree == n_k[L] for p in p_last)
                for k in range(2, L + 1):
                    assert qs[k].degree == m_k[k]
                prof = degrees(arch)
                t = forward_recursive(w)
                assert t.denominator.degree == prof.denominator_degree
                assert all(p.degree == prof.numerator_degree for p in t.numerators)

    def test_binary_closed_degree_formulas(self):
        for L in range(2, 7):
            prof = degrees(Architecture((2,) * L + (1,)))
            delta = L % 2
            assert prof.numerator_degree == L + delta - 1
            assert prof.denominator_degree == L - delta

    @pytest.mark.parametrize("dims", [(2, 2, 1), (3, 3, 2), (2, 2, 2, 1), (2, 3, 2, 3)])
    def test_shape_matches_the_forward_map_only(self, dims):
        arch = Architecture(dims)
        t = forward_recursive(Weights.random(arch, GF, seed=2))
        Ps, Q = list(t.numerators), t.denominator
        assert shape_matches(RationalTuple(Ps, Q), arch)
        assert not shape_matches(RationalTuple(Ps[1:] or Ps * 2, Q), arch)  # output count
        assert not shape_matches(RationalTuple(Ps, Q.mul(HomPoly.linear(GF, [1] * arch.d0))),
                                 arch)  # degree
        assert not shape_matches(RationalTuple([HomPoly.zero(GF, arch.d0, 0)] + Ps[1:], Q),
                                 arch)  # numerator
        assert not shape_matches(RationalTuple(Ps, HomPoly.zero(GF, arch.d0 + 1, Q.degree)),
                                 arch)  # width


class TestForwardRecursive:
    def test_two_layer_closed_form(self):
        a11, a12, a21, a22 = 0.3, -0.7, 1.1, 0.4
        b1, b2 = 0.9, -0.2
        w = Weights(Architecture((2, 2, 1)), REAL,
                    (((a11, a12), (a21, a22)), ((b1, b2),)))
        t = forward_recursive(w)
        P = t.numerators[0]
        assert abs(P.coefficient((1, 0)) - (b1 * a21 + b2 * a11)) < 1e-15
        assert abs(P.coefficient((0, 1)) - (b1 * a22 + b2 * a12)) < 1e-15
        Q = t.denominator
        assert abs(Q.coefficient((2, 0)) - a11 * a21) < 1e-15
        assert abs(Q.coefficient((1, 1)) - (a11 * a22 + a12 * a21)) < 1e-15
        assert abs(Q.coefficient((0, 2)) - a12 * a22) < 1e-15

    def test_identity_331(self):
        w = Weights(Architecture((3, 3, 1)), REAL,
                    (((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)), ((1.0, 1.0, 1.0),)))
        t = forward_recursive(w)
        assert t.numerators[0].terms == {(0, 1, 1): 1.0, (1, 0, 1): 1.0, (1, 1, 0): 1.0}
        assert t.denominator.terms == {(1, 1, 1): 1.0}

    def test_pointwise_composition_oracle(self):
        rng = random.Random(17)
        w = real_weights((2, 3, 2, 1), seed=23)
        t = forward_recursive(w)
        done = 0
        while done < 50:
            x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            try:
                f = eval_network(w, x)
            except DomainError:
                continue
            den = t.denominator.evaluate(x)
            if abs(den) < 1e-6:
                continue
            for i, p in enumerate(t.numerators):
                ratio = p.evaluate(x) / den
                assert abs(ratio - f[i]) <= 1e-9 * max(1.0, abs(f[i]))
            done += 1

    def test_common_factor_warning_for_degenerate_width(self):
        # the forward map only returns its tuple: the shared factor is read
        # from it (the CLI prints it as a note), and no warning fires
        # both hidden forms are multiples of x2, with no width-1 layer:
        # P = 5 x2 and Q = 2 x2^2 share the factor x2
        w = Weights(Architecture((2, 2, 1)), REAL, (((0, 1), (0, 2)), ((1, 3),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = forward_recursive(w)
        assert t.common_monomial_factor() == (0, 1)


def assert_real_support_equals_gf_support(dims, seed):
    a = Architecture(dims)
    r = forward_recursive(Weights.random(a, REAL, seed=seed))
    g = forward_recursive(Weights.random(a, GF, seed=seed))
    assert [set(x.terms) for x in r.all_polys()] == [set(y.terms) for y in g.all_polys()]


class TestRealSupport:
    def test_tiny_generic_coefficient_is_kept(self):
        # the x1^19 coefficient of the first numerator is 3.6e-14 of the
        # largest one; it is generically nonzero, as over GF(p)
        assert_real_support_equals_gf_support((2, 3, 3, 2, 3, 1), 0)

    @settings(max_examples=40, deadline=None)
    @given(dims=st.lists(st.integers(2, 3), min_size=3, max_size=5),
           seed=st.integers(0, 2 ** 32))
    def test_matches_gf_support_property(self, dims, seed):
        assert_real_support_equals_gf_support(tuple(dims), seed)


class TestForwardBinary:
    @pytest.mark.parametrize("dims", [(2, 2, 1), (2, 2, 2, 1), (2, 2, 2, 2, 3),
                                      (2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 1)])
    def test_agrees_with_recursion_exactly_over_gf(self, dims):
        w = Weights.random(Architecture(dims), GF, seed=5)
        a = forward_binary(w)
        b = forward_recursive(w)
        assert a.denominator.terms == b.denominator.terms
        for pa, pb in zip(a.numerators, b.numerators):
            assert pa.terms == pb.terms

    # entries are drawn from all of 0..p-1: Weights.random draws nonzero
    # residues only, so at p = 2 it gives the one all-ones tower per shape;
    # over GF(2) and GF(3) the tuple then often shares a monomial factor
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), layers=st.integers(2, 6), d_out=st.integers(1, 4),
           p=st.sampled_from([2, 3, 2147483647]))
    def test_agrees_with_recursion_over_gf_property(self, data, layers, d_out, p):
        arch = Architecture((2,) * layers + (d_out,))
        entries = st.integers(0, p - 1)
        mats = [data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows))
                for rows, cols in arch.shapes()]
        w = Weights(arch, PrimeField(p), mats)
        a, b = forward_binary(w), forward_recursive(w)
        assert [p.terms for p in a.all_polys()] == [p.terms for p in b.all_polys()]

    def test_agrees_with_recursion_float(self):
        w = real_weights((2, 2, 2, 1), seed=9)
        a, b = forward_binary(w), forward_recursive(w)
        for pa, pb in zip(a.all_polys(), b.all_polys()):
            for e in set(pa.terms) | set(pb.terms):
                assert abs(pa.coefficient(e) - pb.coefficient(e)) < 1e-12

    def test_denominator_is_first_layer_pair_product(self):
        w = real_weights((2, 2, 1), seed=3)
        r1, r2 = w.mats[0]
        l1 = HomPoly.linear(REAL, r1)
        l2 = HomPoly.linear(REAL, r2)
        expected = l1.mul(l2)
        got = forward_binary(w).denominator
        for e in set(expected.terms) | set(got.terms):
            assert abs(expected.coefficient(e) - got.coefficient(e)) < 1e-14

    def test_identity_weights_2221(self):
        w = Weights(Architecture((2, 2, 2, 1)), REAL,
                    (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0),)))
        t = forward_binary(w)
        # direct substitution: P = (x1+x2)*x1*x2, Q = x1*x2
        assert t.denominator.terms == {(1, 1): 1.0}
        assert t.numerators[0].terms == {(2, 1): 1.0, (1, 2): 1.0}

    def test_rejects_non_binary(self):
        with pytest.raises(ArchitectureError):
            forward_binary(real_weights((2, 3, 1)))


class TestEvalNetwork:
    def test_reciprocal_sum(self):
        w = Weights(Architecture((2, 2, 1)), REAL,
                    (((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0),)))
        assert abs(eval_network(w, [1.0, 2.0])[0] - 1.5) < 1e-15

    def test_pole_raises(self):
        w = Weights(Architecture((2, 2, 1)), REAL,
                    (((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0),)))
        with pytest.raises(DomainError):
            eval_network(w, [0.0, 1.0])

    def test_matches_closed_form(self):
        rng = random.Random(31)
        w = real_weights((3, 3, 2), seed=8)
        t = forward_recursive(w)
        for _ in range(20):
            x = [rng.uniform(0.5, 1.5) for _ in range(3)]
            try:
                f = eval_network(w, x)
            except DomainError:
                continue
            den = t.denominator.evaluate(x)
            for i in range(2):
                assert abs(t.numerators[i].evaluate(x) / den - f[i]) < 1e-10


class TestSymmetry:
    def test_identity_transform_is_noop(self):
        w = real_weights((2, 3, 2, 1), seed=2)
        w2 = apply_symmetry(w, [list(range(3)), list(range(2))],
                            [[1.0] * 3, [1.0] * 2])
        assert w2.mats == w.mats

    def test_permutations_leave_coefficients_unchanged(self):
        rng = random.Random(13)
        w = real_weights((2, 3, 2, 1), seed=4)
        perms = [[2, 0, 1], [1, 0]]
        diags = [[1.0] * 3, [1.0] * 2]
        t1 = forward_recursive(w)
        t2 = forward_recursive(apply_symmetry(w, perms, diags))
        for a, b in zip(t1.all_polys(), t2.all_polys()):
            for e in set(a.terms) | set(b.terms):
                assert abs(a.coefficient(e) - b.coefficient(e)) < 1e-12

    def test_diagonal_transform_preserves_function_values(self):
        rng = random.Random(14)
        w = real_weights((2, 2, 2, 1), seed=6)
        diags = [[0.7, -1.3], [2.1, 0.4]]
        perms = [[0, 1], [1, 0]]
        w2 = apply_symmetry(w, perms, diags)
        checked = 0
        while checked < 50:
            x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            try:
                f1, f2 = eval_network(w, x), eval_network(w2, x)
            except DomainError:
                continue
            assert abs(f1[0] - f2[0]) <= 1e-9 * max(1.0, abs(f1[0]))
            checked += 1

    def test_diagonal_transform_rescales_tuple_uniformly(self):
        w = real_weights((2, 3, 1), seed=12)
        w2 = apply_symmetry(w, [[0, 1, 2]], [[0.5, 2.0, -1.25]])
        t1, t2 = forward_recursive(w), forward_recursive(w2)
        ratios = []
        for a, b in zip(t1.all_polys(), t2.all_polys()):
            for e, c in a.terms.items():
                if abs(c) > 1e-9:
                    ratios.append(b.coefficient(e) / c)
        assert max(ratios) - min(ratios) < 1e-9

    def test_zero_diagonal_rejected(self):
        w = real_weights((2, 2, 1), seed=1)
        with pytest.raises(ValueError):
            apply_symmetry(w, [[0, 1]], [[1.0, 0.0]])


class TestCounts:
    @pytest.mark.parametrize("dims,n,m", [((3, 3, 3, 3), 27, 136),
                                          ((2, 3, 4, 3), 30, 39),
                                          ((2, 2, 2, 3, 2, 1), 22, 15)])
    def test_param_and_ambient(self, dims, n, m):
        arch = Architecture(dims)
        assert param_count(arch) == n
        assert ambient_dim(arch) == m


class TestJson:
    def test_weights_round_trip(self):
        for field in (REAL, COMPLEX, GF):
            w = Weights.random(Architecture((2, 3, 1)), field, seed=7)
            again = Weights.from_json(w.to_json())
            assert again.mats == w.mats
            assert again.field == w.field

    def test_rational_tuple_round_trip(self):
        w = real_weights((2, 2, 2), seed=5)
        t = forward_recursive(w)
        obj = t.to_json()
        back = t.from_json(REAL, obj)
        assert back.denominator.terms == t.denominator.terms
