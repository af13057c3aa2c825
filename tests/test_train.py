import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ratnets.network import Architecture, Weights, apply_symmetry
from ratnets.train import (AdamState, AllPointsSkippedError, TrainConfig, TrainResult,
                           _flat_views, _stack_pass, _write_run_files, adam_step,
                           forward_backward, interpolating_weights, run_experiment,
                           sample_lattice, singularity_recovery_score, target_g, train_run,
                           train_stack, write_aggregate_csv, xavier_init)


def stack_step(mats, x, y):
    """(loss, grads, skipped) of one step of a fresh pass over a stack."""
    with _stack_pass(mats, x, y) as step:
        return step()[:3]


class TestLattice:
    def test_point_count_at_zero_radius(self):
        ds = sample_lattice(0.0)
        assert len(ds.inputs) == 400  # 441 grid points minus 41 on the lines

    def test_target_values(self):
        assert target_g(np.array(1.0), np.array(0.0)) == pytest.approx(2.0)
        assert target_g(np.array(0.5), np.array(0.4)) == pytest.approx(1 / 0.9 + 1 / 0.1)

    def test_radius_removes_near_line_points(self):
        ds = sample_lattice(0.2)
        d = np.minimum(np.abs(ds.inputs[:, 0] + ds.inputs[:, 1]),
                       np.abs(ds.inputs[:, 0] - ds.inputs[:, 1])) / math.sqrt(2)
        assert d.min() > 0.2

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            sample_lattice(1.0)

    @pytest.mark.parametrize("grid", [-1, 0, 1, 2, 4, 20])
    def test_grid_must_be_odd_and_at_least_three(self, grid):
        with pytest.raises(ValueError):
            sample_lattice(0.0, grid)

    def test_small_odd_grid_stays_in_square(self):
        ds = sample_lattice(0.0, 5)
        assert len(ds.inputs) == 16  # 25 grid points minus 9 on the lines
        assert np.abs(ds.inputs).max() == 1.0

    def test_empty_lattice_rejected(self):
        with pytest.raises(ValueError):
            sample_lattice(0.9, 3)


class TestXavier:
    def test_deterministic(self):
        a = xavier_init((2, 2, 1), 7)
        b = xavier_init((2, 2, 1), 7)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_bounds(self):
        mats = xavier_init((2, 2, 1), 3)
        assert np.abs(mats[0]).max() <= math.sqrt(6 / 4)
        assert np.abs(mats[1]).max() <= math.sqrt(6 / 3)

    def test_variance_close_to_uniform_law(self):
        draws = np.concatenate([xavier_init((2, 2, 1), s)[0].ravel() for s in range(250)])
        bound = math.sqrt(6 / 4)
        expected_var = bound * bound / 3
        assert abs(draws.var() - expected_var) < 0.1 * expected_var


class TestForwardBackward:
    def test_interpolating_weights_are_stationary_global_min(self):
        ds = sample_lattice()
        loss, grads, skipped = forward_backward(interpolating_weights(),
                                                ds.inputs.T, ds.targets)
        assert loss < 1e-20
        assert skipped == 0
        assert max(float(np.abs(g).max()) for g in grads) < 1e-10

    def test_gradients_match_central_differences(self):
        ds = sample_lattice()
        rng = np.random.default_rng(5)
        for _ in range(10):
            mats = [rng.uniform(0.5, 1.5, size=(2, 2)), rng.uniform(0.5, 1.5, size=(1, 2))]
            # keep the batch away from poles so the difference quotient is sane
            u = mats[0] @ ds.inputs.T
            far = np.all(np.abs(u) > 0.1, axis=0)
            x, y = ds.inputs.T[:, far], ds.targets[far]
            _, grads, _ = forward_backward(mats, x, y)
            h = 1e-5
            for k in range(2):
                for idx in np.ndindex(*mats[k].shape):
                    mp = [m.copy() for m in mats]
                    mm = [m.copy() for m in mats]
                    mp[k][idx] += h
                    mm[k][idx] -= h
                    lp, _, _ = forward_backward(mp, x, y)
                    lm, _, _ = forward_backward(mm, x, y)
                    fd = (lp - lm) / (2 * h)
                    assert abs(grads[k][idx] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_single_point_hand_chain(self):
        # f(x) = b / (w.x); hand-computed derivatives at one sample
        w11, w12, w21, w22 = 2.0, 0.5, 1.0, -1.0
        b1, b2 = 3.0, 0.5
        x1, x2 = 0.4, 0.2
        mats = [np.array([[w11, w12], [w21, w22]]), np.array([[b1, b2]])]
        u1, u2 = w11 * x1 + w12 * x2, w21 * x1 + w22 * x2
        out = b1 / u1 + b2 / u2
        y = 1.0
        r = out - y
        loss, grads, _ = forward_backward(mats, np.array([[x1], [x2]]), np.array([y]))
        assert loss == pytest.approx(r * r)
        assert grads[1][0, 0] == pytest.approx(2 * r / u1)
        assert grads[1][0, 1] == pytest.approx(2 * r / u2)
        assert grads[0][0, 0] == pytest.approx(2 * r * (-b1 / u1 ** 2) * x1)
        assert grads[0][1, 1] == pytest.approx(2 * r * (-b2 / u2 ** 2) * x2)

    def test_pole_points_are_skipped_and_counted(self):
        mats = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])]
        x = np.array([[0.5, 0.0], [0.5, 0.3]])  # second point hits u1 = 0
        y = np.array([4.0, 4.0])
        loss, _, skipped = forward_backward(mats, x, y)
        assert skipped == 1
        assert loss == pytest.approx(0.0)

    def test_all_points_skipped(self):
        mats = [np.zeros((2, 2)), np.ones((1, 2))]
        with pytest.raises(AllPointsSkippedError):
            forward_backward(mats, np.ones((2, 3)), np.ones(3))

    def test_matches_single_run_oracle(self, oracle_forward_backward):
        ds = sample_lattice()
        x, y = ds.inputs.T, ds.targets
        for seed in range(20):
            mats = xavier_init((2, 2, 1), seed)
            if seed == 0:
                mats[0][0] = [1.0, 0.0]  # hits the x = 0 column
            loss, grads, skipped = forward_backward(mats, x, y)
            want_loss, want_grads, want_skipped = oracle_forward_backward(mats, x, y)
            assert skipped == want_skipped and isinstance(skipped, int)
            assert isinstance(loss, float)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            for g, w in zip(grads, want_grads):
                assert g.shape == w.shape
                assert np.allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    def test_stack_rows_are_independent_runs(self):
        ds = sample_lattice()
        x, y = ds.inputs.T, ds.targets
        runs = [xavier_init((2, 2, 1), s) for s in range(5)]
        runs[3] = [np.zeros((2, 2)), np.ones((1, 2))]
        loss, grads, skipped = stack_step(
            [np.stack(layer) for layer in zip(*runs)], x, y)
        assert loss.shape == skipped.shape == (5,) and grads.shape == (5, 6)
        assert loss[3] == np.inf and skipped[3] == x.shape[1] and not grads[3].any()
        for r in (0, 1, 2, 4):
            one_loss, one_grads, one_skipped = forward_backward(runs[r], x, y)
            assert loss[r] == one_loss and skipped[r] == one_skipped
            assert (grads[r] == np.concatenate([g.ravel() for g in one_grads])).all()

    @pytest.mark.parametrize("arch", [(2, 3, 2), (2, 3, 3, 1)])
    def test_other_shapes_match_single_runs_and_oracle(self, arch, oracle_forward_backward):
        # (2, 3, 2) back-propagates its two outputs by a matmul, (2, 3, 3, 1)
        # has two hidden layers; the (1, 0) first-layer row hits x = 0
        ds = sample_lattice()
        x = ds.inputs.T
        y = np.stack([ds.targets, np.cos(ds.targets)]) if arch[-1] == 2 else ds.targets
        runs = [xavier_init(arch, s) for s in range(4)]
        runs[1][0][0] = [1.0, 0.0]
        stack = [np.stack(layer) for layer in zip(*runs)]
        loss, grads, skipped = stack_step(stack, x, y)
        assert skipped[1] >= 20
        for r, mats in enumerate(runs):
            one_loss, one_grads, one_skipped = forward_backward(mats, x, y)
            assert loss[r] == one_loss and skipped[r] == one_skipped
            assert (grads[r] == np.concatenate([g.ravel() for g in one_grads])).all()
            want_loss, want_grads, want_skipped = oracle_forward_backward(mats, x, y)
            assert one_skipped == want_skipped
            assert one_loss == pytest.approx(want_loss, rel=1e-12)
            for g, w in zip(one_grads, want_grads):
                assert np.allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())
        # each call returns arrays of its own
        again = stack_step(stack, x, y)
        for first, second in zip((loss, grads, skipped), again):
            assert not np.shares_memory(first, second)
            assert first.tobytes() == second.tobytes()

    def test_reused_pass_resets_its_skip_counts(self):
        # the pass refills its skip counts only after an epoch that masked a point
        ds = sample_lattice()
        x, y = np.ascontiguousarray(ds.inputs.T), ds.targets
        stack = [np.stack(layer) for layer in zip(*(xavier_init((2, 2, 1), s) for s in range(3)))]
        stack[0][1, 0] = [1.0, 0.0]  # run 1 skips the 20 points with x = 0
        with _stack_pass(stack, x, y) as step:
            _, _, skipped, active = step()
            assert skipped.tolist() == [0, 20, 0] and active.tolist() == [True] * 3
            stack[0][1, 0] = [0.37, 0.81]
            loss, grads, skipped, active = step()
            with _stack_pass(stack, x, y) as fresh_step:
                fresh = fresh_step()
        assert active is None and fresh[3] is None and skipped.tolist() == [0, 0, 0]
        for got, want in zip((loss, grads, skipped), fresh):
            assert got.tobytes() == want.tobytes()

    def test_empty_stack(self):
        ds = sample_lattice()
        empty = [np.zeros((0, 2, 2)), np.zeros((0, 1, 2))]
        loss, grads, skipped = stack_step(empty, ds.inputs.T, ds.targets)
        assert loss.shape == skipped.shape == (0,) and grads.shape == (0, 6)
        assert train_stack(TrainConfig(epochs=3), ds, empty) == []


class TestAdam:
    def test_zero_grads_leave_params(self):
        state = AdamState(np.ones((1, 4)))
        adam_step(state, np.zeros((1, 4)), lr=1e-3)
        assert (state.params == 1.0).all()

    def test_first_step_closed_form(self):
        g = np.array([[0.3, -0.7, 1.1, 0.05]])
        state = AdamState(np.zeros((1, 4)))
        adam_step(state, g, lr=1e-3)
        want = -1e-3 * g / (np.abs(g) + 1e-8)
        assert np.allclose(state.params, want, atol=1e-9)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        g = np.array([[0.5]])
        state = AdamState(np.zeros((1, 1)))
        for _ in range(3000):
            adam_step(state, g, lr=1e-3)
        prev = state.params.copy()
        adam_step(state, g, lr=1e-3)
        last = float((state.params - prev)[0, 0])
        assert abs(abs(last) - 1e-3) < 5e-5

    def test_inactive_runs_keep_their_state_and_step_count(self):
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(5, 3, 6))
        state = AdamState(rng.normal(size=(3, 6)))
        alone = AdamState(state.params[2:].copy())
        for step, g in enumerate(grads):
            active = np.array([True, step % 2 == 0, True])
            before = [a[1].copy() for a in (state.params, state.m, state.v)]
            adam_step(state, g, 1e-2, active)
            kept = all((a[1] == b).all() for a, b in zip((state.params, state.m, state.v), before))
            assert kept == (not active[1])
            adam_step(alone, g[2:], 1e-2)
        assert state.t.tolist() == [5, 3, 5]
        # a run's update never depends on the other runs of the stack
        assert (state.params[2:] == alone.params).all()

    def test_long_masked_run_matches_oracle_bit_for_bit(self, oracle_adam):
        # 25,000 steps pass criterion 11's 20,000 epochs and every growth of
        # the bias-correction tables; run 1 skips every third step
        oracle_state, oracle_step = oracle_adam
        rng = np.random.default_rng(21)
        start = rng.normal(size=(3, 4))
        state = AdamState(start.copy())
        alone = [oracle_state([row.copy()]) for row in start]
        for step, g in enumerate(rng.normal(size=(25000, 3, 4))):
            active = np.array([True, step % 3 != 0, True])
            adam_step(state, g, 1e-3, active)
            for r in np.flatnonzero(active):
                alone[r] = oracle_step(alone[r], [g[r]], 1e-3)
                assert state.params[r].tobytes() == alone[r].params[0].tobytes()
        for r in range(3):
            assert state.m[r].tobytes() == alone[r].m[0].tobytes()
            assert state.v[r].tobytes() == alone[r].v[0].tobytes()
            assert state.t[r] == alone[r].t
        assert state.t.tolist() == [25000, 16666, 25000]

    def test_fresh_state_starts_at_zero(self):
        state = AdamState(np.ones((3, 4)))
        assert (state.m == 0).all() and (state.v == 0).all() and (state.t == 0).all()
        assert state.m.shape == state.v.shape == (3, 4) and state.t.shape == (3,)

    def test_an_epoch_allocates_no_stack_sized_array(self):
        # every array an epoch fills is allocated when the pass and the state are built
        ds = sample_lattice()
        runs = [xavier_init((2, 2, 1), s) for s in range(8)]
        state = AdamState(np.stack([np.concatenate([m.ravel() for m in run]) for run in runs]))
        with _stack_pass(_flat_views(state.params, [(2, 2), (1, 2)]),
                         np.ascontiguousarray(ds.inputs.T), ds.targets) as step:

            def epoch():
                loss, grads, skipped, active = step()
                adam_step(state, grads, 1e-3, active)

            epoch()
            tracemalloc.start()
            try:
                for _ in range(100):
                    epoch()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert state.t.tolist() == [101] * 8
        assert peak < np.empty((8, 2, 400)).nbytes

    def test_all_active_mask_is_the_default_step(self):
        # train_stack passes an all-True mask on every epoch with no pole hit
        rng = np.random.default_rng(8)
        start = rng.normal(size=(3, 6))
        masked, plain = AdamState(start.copy()), AdamState(start.copy())
        for g in rng.normal(size=(6, 3, 6)):
            adam_step(masked, g, 1e-2, np.ones(3, dtype=bool))
            adam_step(plain, g, 1e-2)
        for a, b in zip((masked.params, masked.m, masked.v, masked.t),
                        (plain.params, plain.m, plain.v, plain.t)):
            assert a.tobytes() == b.tobytes()
        assert masked.t.tolist() == [6, 6, 6]


class TestRecoveryScore:
    def test_exact_rows_scale_invariant(self):
        angles = singularity_recovery_score(np.array([[2.0, 2.0], [3.0, -3.0]]))
        assert max(angles) < 1e-6

    def test_axis_rows(self):
        angles = singularity_recovery_score(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert angles == pytest.approx([45.0, 45.0], abs=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        normals = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        for _ in range(25):
            w1 = rng.normal(size=(2, 2))
            got = singularity_recovery_score(w1)
            for t, nv in enumerate(normals):
                best = 90.0
                for row in w1:
                    for sign in (1, -1):
                        r = sign * row / np.linalg.norm(row)
                        ang = math.degrees(math.acos(min(1.0, abs(float(r @ nv)))))
                        best = min(best, ang)
                assert got[t] == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("w1", [[[math.nan, math.nan], [math.nan, 1.0]],
                                    [[-math.inf, -math.inf], [-math.inf, math.inf]]],
                             ids=["nan", "inf"])
    def test_diverged_rows_align_with_nothing(self, w1):
        # min(1.0, nan) is 1.0, an angle of 0, so a NaN cosine must not reach it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert singularity_recovery_score(np.array(w1)) == [90.0, 90.0]

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308])
    def test_huge_and_tiny_finite_rows_keep_their_angles(self, scale):
        # a plain norm of a row above about 1e154 overflows, so its cosine was 0
        w1 = np.array([[1.0, 1.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = singularity_recovery_score(np.array([scale * w1[0], w1[1]]))
        assert got == pytest.approx(singularity_recovery_score(w1), abs=1e-6)
        assert max(got) < 1e-5


class TestTraining:
    def test_oracle_init_stays_at_minimum(self):
        ds = sample_lattice()
        config = TrainConfig(epochs=200)
        res = train_run(config, ds, 0, initial=interpolating_weights())
        assert res.loss_curve[-1] < 1e-10

    def test_loss_invariant_under_reparametrization(self):
        ds = sample_lattice()
        mats = xavier_init((2, 2, 1), 5)
        w = Weights(Architecture((2, 2, 1)), __import__("ratnets").REAL,
                    tuple(tuple(tuple(row) for row in m) for m in mats))
        w2 = apply_symmetry(w, [[1, 0]], [[0.6, -1.7]])
        mats2 = [np.array(m, dtype=float) for m in w2.mats]
        l1, _, s1 = forward_backward(mats, ds.inputs.T, ds.targets)
        l2, _, s2 = forward_backward(mats2, ds.inputs.T, ds.targets)
        assert s1 == s2
        assert abs(l1 - l2) <= 1e-10 * max(1.0, abs(l1))

    def test_seed_determinism_and_worker_independence(self, tmp_path):
        config = TrainConfig(epochs=50, seed=123)
        ds = sample_lattice()
        s1 = run_experiment(config, 4, dataset=ds, workers=1)
        s2 = run_experiment(config, 4, dataset=ds, workers=2)
        a, b = io.StringIO(), io.StringIO()
        write_aggregate_csv(s1, a)
        write_aggregate_csv(s2, b)
        assert a.getvalue() == b.getvalue()
        # uneven chunks, and more workers than runs
        for n_inits, workers in ((5, 3), (3, 8)):
            one = tmp_path / f"{n_inits}-1"
            many = tmp_path / f"{n_inits}-{workers}"
            run_experiment(config, n_inits, dataset=ds, workers=1, out_dir=str(one))
            run_experiment(config, n_inits, dataset=ds, workers=workers, out_dir=str(many))
            assert (one / "aggregate.csv").read_bytes() == (many / "aggregate.csv").read_bytes()
            for i in range(n_inits):
                curve = train_run(config, ds, (config.seed, i)).loss_curve
                want = [f"{e},{float(v)!r}" for e, v in enumerate(curve)]
                for out in (one, many):
                    lines = (out / f"run{i:04d}.csv").read_text().splitlines()[1:]
                    assert [line.rsplit(",", 1)[0] for line in lines] == want

    @pytest.mark.parametrize("clip", [None, 1.0])
    def test_stack_matches_single_run_oracle(self, oracle_train_run, clip):
        ds = sample_lattice()
        config = TrainConfig(epochs=50, seed=4, clip=clip)
        inits = [xavier_init(config.arch, (config.seed, i)) for i in range(6)]
        # a first-layer row (1, 0) puts the lattice's x = 0 column on a pole
        inits.append([np.array([[1.0, 0.0], [0.37, 0.81]]), np.array([[0.5, -0.4]])])
        # a zero first matrix puts every point on a pole in every epoch
        inits.append([np.zeros((2, 2)), np.array([[1.0, 1.0]])])
        results = train_stack(config, ds, [np.stack(layer) for layer in zip(*inits)])
        total = len(ds.inputs)
        for res, init in zip(results, inits):
            want = oracle_train_run(config, ds, None, initial=init)
            assert (res.skipped == want.skipped).all()
            finite = np.isfinite(want.loss_curve)
            assert (np.isfinite(res.loss_curve) == finite).all()
            rel = np.abs(res.loss_curve[finite] - want.loss_curve[finite]) \
                / want.loss_curve[finite]
            assert rel.max(initial=0.0) <= 1e-9
        assert results[6].skipped[0] == 20  # of the 21 x = 0 points, (0, 0) is off the lattice
        dead = results[7]
        assert (dead.loss_curve == np.inf).all() and (dead.skipped == total).all()
        assert all((f == i).all() for f, i in zip(dead.final_weights, inits[7]))

    def test_a_strict_errstate_sees_no_pole_or_dead_run(self):
        # the pass divides by zero at a pole and in a dead run; _stack_pass
        # and train_stack keep that from the caller's errstate and from their results
        ds = sample_lattice()
        runs = [xavier_init((2, 2, 1), s) for s in range(3)]
        runs[1][0][0] = [1.0, 0.0]
        runs[2][0][:] = 0.0
        stack = [np.stack(layer) for layer in zip(*runs)]

        def outputs():
            out = list(stack_step(stack, ds.inputs.T, ds.targets))
            for res in train_stack(TrainConfig(epochs=5), ds, stack):
                out += [res.loss_curve, res.skipped, *res.final_weights]
            return [a.tobytes() for a in out]

        with np.errstate(all="raise"):
            strict = outputs()
        assert strict == outputs()

    def test_training_leaves_numpy_state_as_it_found_it(self):
        # the pass ignores division errors and shortens the ufunc buffer only inside its block
        ds = sample_lattice()
        x, y = ds.inputs.T, ds.targets
        runs = [xavier_init((2, 2, 1), s) for s in range(3)]
        runs[1][0][0] = [1.0, 0.0]
        runs[2][0][:] = 0.0
        stack = [np.stack(layer) for layer in zip(*runs)]

        def state():
            return np.getbufsize(), np.geterr()

        before = state()
        forward_backward(runs[1], x, y)
        assert state() == before
        with pytest.raises(AllPointsSkippedError):
            forward_backward(runs[2], x, y)
        assert state() == before
        train_stack(TrainConfig(epochs=3), ds, stack)
        assert state() == before
        with pytest.raises(KeyError):
            with _stack_pass(stack, x, y) as step:
                assert np.getbufsize() == len(ds.inputs) and np.geterr()["divide"] == "ignore"
                step()
                raise KeyError
        assert state() == before

    def test_run_files_written(self, tmp_path):
        config = TrainConfig(epochs=20, seed=9)
        run_experiment(config, 2, dataset=sample_lattice(), out_dir=str(tmp_path))
        assert (tmp_path / "aggregate.csv").exists()
        assert (tmp_path / "run0000.csv").exists()
        assert (tmp_path / "run0001_weights.json").exists()
        header = (tmp_path / "run0000.csv").read_text().splitlines()[0]
        assert header == "epoch,loss,skipped"

    @staticmethod
    def csv_writer_bytes(res):
        out = io.StringIO(newline="")
        w = csv.writer(out)
        w.writerow(["epoch", "loss", "skipped"])
        for e, (l, s) in enumerate(zip(res.loss_curve, res.skipped)):
            w.writerow([e, repr(float(l)), int(s)])
        return out.getvalue().encode()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_csv_matches_csv_writer_byte_for_byte(self, tmp_path, workers):
        config, ds = TrainConfig(epochs=30, seed=4), sample_lattice()
        run_experiment(config, 3, dataset=ds, workers=workers, out_dir=str(tmp_path))
        for i in range(3):
            want = self.csv_writer_bytes(train_run(config, ds, (config.seed, i)))
            assert (tmp_path / f"run{i:04d}.csv").read_bytes() == want

    def test_run_csv_writes_non_finite_and_extreme_losses_as_csv_writer_does(self, tmp_path):
        loss = np.array([np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16])
        res = TrainResult(loss, np.arange(7) * 1000, [np.eye(2)], [np.eye(2)], [0.0, 90.0])
        _write_run_files(str(tmp_path), 0, res, False)
        assert (tmp_path / "run0000.csv").read_bytes() == self.csv_writer_bytes(res)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"lr": -1e-3}, {"lr": math.inf}, {"lr": math.nan},
        {"clip": 0.0}, {"clip": -1.0}, {"clip": math.nan},
    ])
    def test_bad_step_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_loss_curve_length_matches_epochs(self):
        config = TrainConfig(epochs=35, seed=1)
        res = train_run(config, sample_lattice(), (1, 0))
        assert len(res.loss_curve) == 35
        assert len(res.skipped) == 35
        assert all(a in (0.0, 90.0) or 0.0 <= a <= 90.0 for a in res.recovered_angles)
