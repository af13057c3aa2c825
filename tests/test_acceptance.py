"""Acceptance suite: every release criterion, one test per criterion, each
printing a PASS/FAIL line (run with -s to stream them)."""

import random
import time
from contextlib import contextmanager

import numpy as np

from ratnets.fields import COMPLEX, REAL, PrimeField
from ratnets.network import (Architecture, DomainError, RationalTuple, Weights, ambient_dim,
                             apply_symmetry, degrees, eval_network, forward_binary,
                             forward_recursive, param_count)
from ratnets.poly import HomPoly, monomials, product, sym_contract
from ratnets.factor import build_H, factor_binary_form, factor_multilinear, h_slices
from ratnets.geometry import (build_moment_matrix, enumerate_architectures,
                              jacobian_rank_mod_p, numerical_rank)
from ratnets.reconstruct import (membership_binary_multioutput,
                                 reconstruct_binary, reconstruct_shallow)
from ratnets.train import (TrainConfig, forward_backward, interpolating_weights,
                           run_experiment, sample_lattice, train_run)

GF = PrimeField(2147483647)

TABLE_ROWS = [
    ((3, 3, 3, 3), 22, 136, 27),
    ((2, 3, 4, 3), 24, 39, 30),
    ((4, 3, 2, 2, 3), 22, 372, 28),
    ((2, 2, 2, 3, 2, 1), 14, 15, 22),
    ((2, 2, 4, 2, 2, 1), 17, 23, 26),
]

QUINTIC_COLUMN = [-0.8566, complex(-0.1500, -0.8974), complex(-0.1500, 0.8974),
                  complex(1.0783, -0.4969), complex(1.0783, 0.4969)]


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    print(f"PASS criterion {num}: {title}")


def clin(*coeffs):
    return HomPoly.linear(COMPLEX, [complex(c) for c in coeffs])


def test_criterion_01_dimension_table():
    with criterion(1, "reference dimension table reproduced exactly"):
        for dims, want_rank, want_amb, want_params in TABLE_ROWS:
            arch = Architecture(dims)
            t0 = time.monotonic()
            rep = jacobian_rank_mod_p(arch, seed=7)
            elapsed = time.monotonic() - t0
            assert rep.jacobian_rank == want_rank, dims
            assert rep.ambient_dim == want_amb == ambient_dim(arch), dims
            assert rep.param_count == want_params == param_count(arch), dims
            assert elapsed <= 60.0, (dims, elapsed)


def test_criterion_02_census_enumeration():
    with criterion(2, "bounded enumeration has exactly 722 architectures"):
        archs = enumerate_architectures(max_params=30, max_layers=5)
        assert len(archs) == 722


def _random_arch_pool(rng, count):
    pool = [a for a in enumerate_architectures(30, 5) if max(a.dims) <= 4]
    picks = []
    while len(picks) < count:
        picks.append(pool[rng.randrange(len(pool))])
    return picks


def _careful_numeric_eval(mats, x, stage_guard=1e-4):
    """Numeric composition that rejects points with stage-wise cancellation
    (both evaluation routes lose accuracy exactly there)."""
    a = np.asarray(x, dtype=float)
    for k, m in enumerate(mats):
        m = np.asarray(m, dtype=float)
        u = m @ a
        if np.any(np.abs(u) < stage_guard * (np.abs(m) @ np.abs(a))):
            return None
        a = u if k == len(mats) - 1 else 1.0 / u
    return a


def _low_cancellation(poly, x, guard=1e-5):
    witness = sum(abs(c) * np.prod([abs(xi) ** e for xi, e in zip(x, exp)])
                  for exp, c in poly.terms.items())
    return abs(poly.evaluate(x)) >= guard * witness


def test_criterion_03_closed_form_matches_numeric_composition():
    with criterion(3, "closed form equals numeric composition on 100 random architectures"):
        rng = random.Random(101)
        for arch in _random_arch_pool(rng, 100):
            w = Weights.random(arch, REAL, seed=rng.randrange(10 ** 6))
            t = forward_recursive(w)
            prof = degrees(arch)
            assert t.denominator.degree == prof.denominator_degree
            assert all(p.degree == prof.numerator_degree for p in t.numerators)
            done = attempts = 0
            while done < 50:
                attempts += 1
                assert attempts < 100000, arch
                x = [rng.uniform(-1, 1) for _ in range(arch.d0)]
                f = _careful_numeric_eval(w.mats, x)
                if f is None:
                    continue
                if not all(_low_cancellation(p, x) for p in t.all_polys()):
                    continue
                den = t.denominator.evaluate(x)
                for i, p in enumerate(t.numerators):
                    lhs = p.evaluate(x) / den
                    assert abs(lhs - f[i]) <= 1e-9 * max(1.0, abs(f[i]))
                done += 1


def test_criterion_04_binary_closed_form_exact():
    with criterion(4, "binary closed form equals the recursion exactly over GF(p)"):
        for layers in range(2, 7):
            for d_out in (1, 2, 3):
                arch = Architecture((2,) * layers + (d_out,))
                w = Weights.random(arch, GF, seed=layers * 10 + d_out)
                a = forward_binary(w)
                b = forward_recursive(w)
                assert a.denominator.terms == b.denominator.terms, arch
                for pa, pb in zip(a.numerators, b.numerators):
                    assert pa.terms == pb.terms, arch


def test_criterion_05_shallow_round_trip():
    with criterion(5, "one-hidden-layer reconstruction: >=95/100 per shape"):
        for n in (2, 3, 4):
            for m in (2, 3, 4, 5):
                for k in (1, 2, 3):
                    arch = Architecture((n, m, k))
                    ok = 0
                    for trial in range(100):
                        w = Weights.random(arch, COMPLEX, seed=trial * 997 + n * 100 + m * 10 + k)
                        t = forward_recursive(w)
                        verdict = reconstruct_shallow(t, arch, tol=1e-6, seed=trial)
                        if verdict.in_model and verdict.residual <= 1e-6:
                            ok += 1
                    assert ok >= 95, ((n, m, k), ok)


def test_criterion_06_binary_round_trip():
    with criterion(6, "deep binary reconstruction: >=95/100 per depth"):
        for layers in range(2, 7):
            arch = Architecture((2,) * layers + (1,))
            ok = 0
            for trial in range(100):
                w = Weights.random(arch, COMPLEX, seed=trial * 1009 + layers)
                t = forward_recursive(w)
                verdict = reconstruct_binary(t, arch, tol=1e-6)
                if verdict.in_model and verdict.residual <= 1e-6:
                    ok += 1
            assert ok >= 95, (layers, ok)


def test_criterion_07_cubic_factorization():
    with criterion(7, "three-factor cubic recovered with residual <= 1e-10"):
        cubic = product([clin(1, 1, 1), clin(1, -1, 0), clin(1, 0, -1)])
        report = factor_multilinear(cubic, tol=1e-10)
        assert report.decomposable
        assert report.factorization.residual <= 1e-10
        want = [np.array(v, dtype=complex) for v in ((1, 1, 1), (1, -1, 0), (1, 0, -1))]
        got = [np.array(f, dtype=complex) for f in report.factorization.factors]
        matched = set()
        for g in got:
            for i, wv in enumerate(want):
                if i in matched:
                    continue
                scale = g[np.argmax(np.abs(wv))] / wv[np.argmax(np.abs(wv))]
                if np.max(np.abs(g - scale * wv)) <= 1e-8 * max(1.0, abs(scale)):
                    matched.add(i)
                    break
        assert matched == {0, 1, 2}


def test_criterion_08_quintic_factorization():
    with criterion(8, "degree-5 binary form factors match the reference column to 1e-3"):
        q = HomPoly(COMPLEX, 2, 5, {(5, 0): 1 + 0j, (1, 4): -1 + 0j, (0, 5): 1 + 0j})
        fz = factor_binary_form(q)
        assert len(fz.factors) == 5
        assert fz.residual <= 1e-8
        got = sorted(fz.zero_line_ratios(), key=lambda z: (round(z.real, 4), round(z.imag, 4)))
        want = sorted((complex(v) for v in QUINTIC_COLUMN),
                      key=lambda z: (round(z.real, 4), round(z.imag, 4)))
        assert all(abs(g - w) <= 1e-3 for g, w in zip(got, want))


def test_criterion_09_moment_matrix_and_width_two_dimension():
    with criterion(9, "moment rank 2 on-model, >=3 off-model, dimension 2(n+m)-1"):
        rng = random.Random(55)
        on_combos = [(n, m) for n in range(2, 6) for m in range(1, 6)]  # 20 shapes
        on_checked = 0
        for n, m in on_combos:
            arch = Architecture((n, 2, m))
            for _ in range(5):
                w = Weights.random(arch, COMPLEX, seed=rng.randrange(10 ** 6))
                t = forward_recursive(w)
                mm = build_moment_matrix(t, arch)
                assert numerical_rank(mm) == 2, (n, m)
                on_checked += 1
        # off-model detection needs input width >= 3: with width 2 the matrix
        # has two rows and the shape is filling, so ambient tuples are on-model
        off_combos = [(n, m) for n in range(3, 6) for m in range(1, 6)]  # 15 shapes
        off_checked = 0
        for n, m in off_combos:
            arch = Architecture((n, 2, m))
            for _ in range(7):
                if off_checked == 100:
                    break
                nums = [HomPoly(COMPLEX, n, 1,
                                {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for e in monomials(n, 1)}) for _ in range(m)]
                den = HomPoly(COMPLEX, n, 2,
                              {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for e in monomials(n, 2)})
                mm = build_moment_matrix(RationalTuple(nums, den), arch)
                assert numerical_rank(mm) >= 3, (n, m)
                off_checked += 1
        assert on_checked == off_checked == 100
        for n in range(2, 6):
            for m in range(1, 6):
                rep = jacobian_rank_mod_p(Architecture((n, 2, m)), seed=13)
                assert rep.jacobian_rank == 2 * (n + m) - 1, (n, m)


def test_criterion_10_gradient_check():
    with criterion(10, "backprop matches central differences to 1e-5 on 100 pairs"):
        ds = sample_lattice()
        rng = np.random.default_rng(77)
        pairs = 0
        while pairs < 100:
            mats = [rng.uniform(-1.5, 1.5, size=(2, 2)), rng.uniform(-1.5, 1.5, size=(1, 2))]
            u = mats[0] @ ds.inputs.T
            far = np.all(np.abs(u) > 0.1, axis=0)
            if far.sum() < 50:
                continue
            sel = np.where(far)[0][:200]
            x, y = ds.inputs.T[:, sel], ds.targets[sel]
            _, grads, _ = forward_backward(mats, x, y)
            h = 1e-5
            for k in range(2):
                for idx in np.ndindex(*mats[k].shape):
                    mp = [m.copy() for m in mats]
                    mm2 = [m.copy() for m in mats]
                    mp[k][idx] += h
                    mm2[k][idx] -= h
                    lp, _, _ = forward_backward(mp, x, y)
                    lm, _, _ = forward_backward(mm2, x, y)
                    fd = (lp - lm) / (2 * h)
                    assert abs(grads[k][idx] - fd) <= 1e-5 * max(1.0, abs(fd))
            pairs += 1


def test_criterion_11_training_experiment():
    with criterion(11, "pole learning: >=1 full and >=5 partial successes in 100 runs"):
        ds = sample_lattice()
        oracle = train_run(TrainConfig(epochs=2000, seed=0), ds, 0,
                           initial=interpolating_weights())
        assert float(oracle.loss_curve[-1]) < 1e-10
        summary = run_experiment(TrainConfig(epochs=20000, lr=1e-3, seed=2), 100,
                                 dataset=ds, workers=2)
        assert summary.n_full >= 1, summary.n_full
        assert summary.n_partial >= 5, summary.n_partial


def test_criterion_12_property_suites(sym_contract_reference):
    with criterion(12, "algebra laws, symmetries, product-form slices, resultants"):
        rng = random.Random(404)

        # polynomial algebra laws over float and GF(p)
        for field, tol in ((REAL, 1e-12), (GF, 0.0)):
            for _ in range(10):
                polys = []
                for _ in range(3):
                    terms = {e: field.random(rng) for e in monomials(3, 2)
                             if rng.random() < 0.8}
                    polys.append(HomPoly(field, 3, 2, terms or {(2, 0, 0): field.one()}))
                a, b, c = polys
                lhs = a.mul(b.mul(c))
                rhs = a.mul(b).mul(c)
                scale = max(lhs.max_magnitude(), 1.0)
                for e in set(lhs.terms) | set(rhs.terms):
                    d = field.sub(lhs.coefficient(e), rhs.coefficient(e))
                    assert field.magnitude(d) <= tol * scale
                ab, ba = a.mul(b), b.mul(a)
                for e in set(ab.terms) | set(ba.terms):
                    d = field.sub(ab.coefficient(e), ba.coefficient(e))
                    assert field.magnitude(d) <= tol * scale

        # reparametrization invariance: permutations coefficient-level,
        # diagonals function-level
        for seed in range(5):
            w = Weights.random(Architecture((2, 3, 2, 1)), REAL, seed=seed)
            perm_only = apply_symmetry(w, [[2, 0, 1], [1, 0]], [[1.0] * 3, [1.0] * 2])
            t1, t2 = forward_recursive(w), forward_recursive(perm_only)
            for pa, pb in zip(t1.all_polys(), t2.all_polys()):
                for e in set(pa.terms) | set(pb.terms):
                    assert abs(pa.coefficient(e) - pb.coefficient(e)) < 1e-12
            diag = apply_symmetry(w, [[0, 1, 2], [0, 1]],
                                  [[0.5, -2.0, 1.5], [1.25, -0.8]])
            rng2 = random.Random(seed)
            checked = 0
            while checked < 20:
                x = [rng2.uniform(-1, 1), rng2.uniform(-1, 1)]
                try:
                    f1, f2 = eval_network(w, x), eval_network(diag, x)
                except DomainError:
                    continue
                assert abs(f1[0] - f2[0]) <= 1e-9 * max(1.0, abs(f1[0]))
                checked += 1

        # product-form slices reproduce the forward tuple
        for dims in ((3, 3, 1), (2, 3, 2), (4, 2, 3)):
            w = Weights.random(Architecture(dims), REAL, seed=dims[0])
            H = build_H(w)
            s = h_slices(H, dims[0], dims[2])
            t = forward_recursive(w)
            for a, b in zip(s.all_polys(), t.all_polys()):
                for e in set(a.terms) | set(b.terms):
                    assert abs(a.coefficient(e) - b.coefficient(e)) < 1e-12

        # symmetrized contraction agrees with its permutation-sum oracle
        forms = [HomPoly.linear(REAL, [rng.uniform(-1, 1) for _ in range(3)])
                 for _ in range(3)]
        for idx in ([1, 2, 3], [2, 2, 3]):
            got = sym_contract(idx, forms)
            ref = sym_contract_reference(REAL, idx, forms)
            for e in set(got.terms) | set(ref.terms):
                assert abs(got.coefficient(e) - ref.coefficient(e)) < 1e-12

        # binary membership: shared-factor numerators pass, generic ones fail
        for seed in range(10):
            w = Weights.random(Architecture((2, 2, 2, 2)), COMPLEX, seed=seed)
            t = forward_recursive(w)
            assert membership_binary_multioutput(t, 3).in_model
            Ps = [HomPoly(COMPLEX, 2, 3,
                          {(3 - j, j): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for j in range(4)}) for _ in range(2)]
            bad = membership_binary_multioutput(RationalTuple(Ps, t.denominator), 3)
            assert not bad.in_model
