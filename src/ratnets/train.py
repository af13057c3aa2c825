"""Learning pole locations of a meromorphic target with a tiny reciprocal
network.

The target 1/(x+y) + 1/(x-y) is sampled on a 21x21 lattice over [-1,1]^2
with the two singular lines removed.  Full-batch Adam training on a
(2, 2, 1) network is run from many seeded initializations; a run counts as a
full success when the loss drops below threshold and as a partial success
when some first-layer row aligns with a true pole normal.

The runs train as one stack: every weight matrix carries a leading run
axis, shape (R, d_out, d_in), and each epoch is one loss-and-gradient pass
(`forward_backward_stack`) and one in-place Adam update (`adam_step`) over
all R runs.  Each run masks its own pole points and keeps its own point
count, loss, skip count and Adam step count; a run whose every point sits
at a pole skips that epoch's update.  A single run is the R = 1 case
(`train_run`, `forward_backward`).  Run i of an experiment draws its
initialization from (seed, i) and its results depend on nothing else, so
they are bit-identical however the runs are grouped into stacks or worker
processes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

POLE_NORMALS = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
POLE_GUARD = 1e-9
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Largest per-layer temporary of one kernel call, in floats (125 KiB): below
# glibc's 128 KiB mmap threshold an epoch reuses heap memory, above it every
# temporary page-faults in fresh memory, which doubles the cost per run.
# Larger stacks go through the kernel in blocks of runs.
BLOCK_FLOATS = 16000


class AllPointsSkippedError(ArithmeticError):
    """Every batch point sat on a pole of the current network."""


@dataclass
class Dataset:
    inputs: np.ndarray      # (N, 2)
    targets: np.ndarray     # (N,)


@dataclass
class TrainConfig:
    arch = (2, 2, 1)  # not a field: the target and the recovery score take two inputs, one output
    lr: float = 1e-3
    epochs: int = 20000
    seed: int = 0
    clip: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"need at least one epoch, got {self.epochs}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.clip is not None and not self.clip > 0:
            raise ValueError(f"gradient clip must be positive, got {self.clip}")


@dataclass
class TrainResult:
    loss_curve: np.ndarray
    skipped: np.ndarray
    initial_weights: list[np.ndarray]
    final_weights: list[np.ndarray]
    recovered_angles: list[float]


def target_g(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 / (x + y) + 1.0 / (x - y)


def sample_lattice(exclusion_radius: float = 0.0, grid_points: int = 21) -> Dataset:
    """Uniform lattice on [-1,1]^2 minus points within exclusion_radius of a
    singular line (radius 0 removes exactly the on-line points)."""
    if not 0 <= exclusion_radius < 1:
        raise ValueError("exclusion radius must be in [0, 1)")
    if grid_points < 3 or grid_points % 2 == 0:
        # an even count steps past x = 1, and fewer than 3 points divide by zero
        raise ValueError(f"grid must be odd and at least 3, got {grid_points}")
    half = (grid_points - 1) // 2
    axis = np.array([(i - half) / half for i in range(grid_points)])
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    x = xs.ravel()
    y = ys.ravel()
    dist = np.minimum(np.abs(x + y), np.abs(x - y)) / math.sqrt(2.0)
    keep = dist > exclusion_radius
    if not keep.any():
        raise ValueError(f"no lattice point lies farther than {exclusion_radius} from a pole line")
    pts = np.stack([x[keep], y[keep]], axis=1)
    return Dataset(pts, target_g(pts[:, 0], pts[:, 1]))


def xavier_init(arch, seed) -> list[np.ndarray]:
    """Per layer: uniform on +-sqrt(6 / (fan_in + fan_out)); deterministic."""
    rng = np.random.default_rng(seed)
    mats = []
    dims = tuple(arch)
    for k in range(len(dims) - 1):
        bound = math.sqrt(6.0 / (dims[k] + dims[k + 1]))
        mats.append(rng.uniform(-bound, bound, size=(dims[k + 1], dims[k])))
    return mats


def interpolating_weights() -> list[np.ndarray]:
    """(2,2,1) weights reproducing the target exactly: rows of the first
    matrix are the pole normals, output weights are all ones."""
    return [np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[1.0, 1.0]])]


def _flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Per-layer (R, d_out, d_in) views of an (R, P) array holding each
    run's matrices flattened in layer order."""
    views, off = [], 0
    for rows, cols in shapes:
        views.append(flat[:, off:off + rows * cols].reshape(-1, rows, cols))
        off += rows * cols
    return views


def forward_backward_stack(mats: list[np.ndarray], x: np.ndarray, y: np.ndarray):
    """Full-batch MSE losses and exact gradients of R runs at once, by
    reverse accumulation.

    mats[k] has shape (R, d_{k+1}, d_k); x (d0, B) and y (B,) or (dL, B) are
    shared by every run.  A point driving any intermediate coordinate of run
    r below POLE_GUARD, or to a non-finite value, is masked out of run r's
    loss and gradient for this step and counted.  Returns (loss, grads, skipped):
    loss (R,), inf for a run with no surviving point; grads (R, P), each
    run's gradient matrices flattened in layer order, zero for such a run;
    skipped (R,) ints.  Each run's results depend only on its own weights,
    not on the other runs of the stack, so a stack too large for one pass
    under BLOCK_FLOATS goes through in blocks of runs.
    """
    count, total = len(mats[0]), x.shape[1]
    width = max(max(w.shape[1:]) for w in mats)
    blocks = -(-count * width * total // BLOCK_FLOATS)
    if blocks < 2:
        return _forward_backward_block(mats, x, y)
    size = -(-count // blocks)
    parts = [_forward_backward_block([w[lo:lo + size] for w in mats], x, y)
             for lo in range(0, count, size)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _forward_backward_block(mats, x, y):
    total = x.shape[1]
    count = len(mats[0])
    acts, us = [x], []
    keep = None  # (R, B) surviving points; None while every point survives
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for w in mats[:-1]:
            u = w @ acts[-1]
            mag = np.abs(u)
            if not (mag.size and mag.min() >= POLE_GUARD and mag.max() < np.inf):
                ok = ((mag >= POLE_GUARD) & (mag < np.inf)).all(axis=1)
                keep = ok if keep is None else keep & ok
            us.append(u)
            acts.append(1.0 / u)
        r = mats[-1] @ acts[-1] - y
    b = total
    if keep is not None:
        kept = keep.sum(axis=1)
        # in the runs that lost points, unit pre-activations and zero
        # activations and residuals keep those points out of every sum below
        hit = np.flatnonzero(kept < total)
        cut = ~keep[hit, None, :]
        for u, a in zip(us, acts[1:]):
            u[hit] = np.where(cut, 1.0, u[hit])
            a[hit] = np.where(cut, 0.0, a[hit])
        r[hit] = np.where(cut, 0.0, r[hit])
        b = np.maximum(kept, 1)[:, None, None]
    loss = ((r * r).sum(axis=(1, 2), keepdims=True) / b).reshape(count)

    grads = np.empty((count, sum(w[0].size for w in mats)))
    views = _flat_views(grads, [w.shape[1:] for w in mats])
    dout = r
    dout *= 2.0
    dout /= b
    np.matmul(dout, acts[-1].swapaxes(-1, -2), out=views[-1])
    da = mats[-1].swapaxes(-1, -2) @ dout
    for k in range(len(mats) - 2, -1, -1):
        du = da
        du /= np.square(us[k], out=us[k])
        np.negative(du, out=du)
        np.matmul(du, acts[k].swapaxes(-1, -2), out=views[k])
        if k > 0:
            da = mats[k].swapaxes(-1, -2) @ du
    if keep is None:
        return loss, grads, np.zeros(count, dtype=int)
    loss[kept == 0] = np.inf
    return loss, grads, total - kept


def forward_backward(mats: list[np.ndarray], x: np.ndarray, y: np.ndarray):
    """Full-batch MSE loss and exact gradients of one run: the R = 1 case
    of forward_backward_stack.

    x has shape (d0, B); points driving any intermediate coordinate below
    POLE_GUARD are skipped for this step and counted.  Returns (loss, grads,
    skipped) with grads one matrix per layer.  Raises AllPointsSkippedError
    when nothing survives.
    """
    stack = [np.asarray(m, dtype=float)[None] for m in mats]
    loss, grads, skipped = forward_backward_stack(stack, x, y)
    total = x.shape[1]
    if skipped[0] == total:
        raise AllPointsSkippedError(f"all {total} points near a pole")
    shapes = [m.shape[1:] for m in stack]
    return float(loss[0]), [g[0] for g in _flat_views(grads, shapes)], int(skipped[0])


@dataclass
class AdamState:
    """Adam state of a stack of R runs: row r of params, m and v holds run
    r's weights and moments flattened in layer order, t[r] its step count.
    The moments and step counts start at zero."""
    params: np.ndarray

    def __post_init__(self):
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.t = np.zeros(len(self.params), dtype=int)


def adam_step(state: AdamState, grads: np.ndarray, lr: float,
              active: np.ndarray | None = None) -> None:
    """One standard update (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) with per-run
    bias correction, in place.

    Only the runs flagged in active (default: all) step; the others keep
    their weights, moments and step count.
    """
    # a slice keeps the all-active step in place; an index array copies the rows
    rows = slice(None) if active is None or active.all() else np.flatnonzero(active)
    g = grads[rows]
    t, m, v, params = state.t[rows] + 1, state.m[rows], state.v[rows], state.params[rows]
    # Python's pow, not numpy's, which differs in the last bit for some t
    steps = t.tolist()
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    mhat = m / np.array([1 - ADAM_BETA1 ** s for s in steps])[:, None]
    vhat = v / np.array([1 - ADAM_BETA2 ** s for s in steps])[:, None]
    params -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    state.t[rows], state.m[rows], state.v[rows], state.params[rows] = t, m, v, params


def singularity_recovery_score(w1: np.ndarray) -> list[float]:
    """For each target line normal in POLE_NORMALS, the smallest angle
    (degrees, sign blind) to any row of the first weight matrix.  A NaN
    cosine, as from a diverged run's infinite weights, is no alignment: a
    normal that only such rows meet scores 90."""
    rows = np.asarray(w1, dtype=float)
    angles = []
    with np.errstate(over="ignore", invalid="ignore"):
        # a power-of-two scale near each row's largest entry rounds nothing in
        # range and keeps the norm finite (a plain norm overflows above 1e154)
        rows = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1, keepdims=True))[1])
        norms = np.linalg.norm(rows, axis=1)
        for nv in POLE_NORMALS:
            cosines = np.abs(rows @ nv) / np.maximum(norms, 1e-300)
            best = float(np.fmax.reduce(cosines, initial=0.0))  # fmax skips NaN
            angles.append(math.degrees(math.acos(min(1.0, best))))
    return angles


def train_stack(config: TrainConfig, dataset: Dataset,
                initial: list[np.ndarray]) -> list[TrainResult]:
    """Train R runs as one stack from initial[k] of shape (R, d_{k+1}, d_k);
    one result per run.  Loss curves record pre-update losses; a run whose
    every point sits at a pole in an epoch records loss inf and skips that
    epoch's update while the rest of the stack trains on."""
    shapes = [m.shape[1:] for m in initial]
    count = len(initial[0])
    state = AdamState(np.concatenate([np.asarray(m, dtype=float).reshape(count, -1)
                                      for m in initial], axis=1))
    mats = _flat_views(state.params, shapes)
    x = dataset.inputs.T
    y = dataset.targets
    total = x.shape[1]
    losses = np.empty((count, config.epochs))
    skipped = np.empty((count, config.epochs), dtype=int)
    # a diverged run overflows to inf and NaN; its losses and weights record that
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss, grads, n_skip = forward_backward_stack(mats, x, y)
            losses[:, epoch] = loss
            skipped[:, epoch] = n_skip
            if config.clip is not None:
                norm = np.sqrt((grads * grads).sum(axis=1))
                over = norm > config.clip
                if over.any():
                    grads[over] *= (config.clip / norm[over])[:, None]
            adam_step(state, grads, config.lr, n_skip < total)
    results = []
    for r in range(count):
        final = [m[r].copy() for m in mats]
        results.append(TrainResult(
            losses[r].copy(), skipped[r].copy(), [m[r].copy() for m in initial], final,
            singularity_recovery_score(final[0])))
    return results


def train_run(config: TrainConfig, dataset: Dataset, run_seed,
              initial: list[np.ndarray] | None = None) -> TrainResult:
    """One full training run: a stack of one."""
    mats = initial if initial is not None else xavier_init(config.arch, run_seed)
    return train_stack(config, dataset, [np.array(m, dtype=float)[None] for m in mats])[0]


@dataclass
class RunRecord:
    run: int
    final_loss: float
    angle1: float
    angle2: float
    full_success: bool
    partial_success: bool


@dataclass
class ExperimentSummary:
    records: list[RunRecord]
    n_full: int
    n_partial: int


def _train_chunk(args):
    config, dataset, runs = args
    inits = [xavier_init(config.arch, (config.seed, i)) for i in runs]
    return train_stack(config, dataset, [np.stack(layer) for layer in zip(*inits)])


def run_experiment(config: TrainConfig, n_inits: int, dataset: Dataset,
                   out_dir: str | None = None, workers: int = 1,
                   success_loss: float = 1e-3, success_angle_deg: float = 5.0
                   ) -> ExperimentSummary:
    """Train n_inits independent seeded runs and aggregate success counts.

    The runs train as one stack, or as one contiguous chunk per Pool worker
    when workers > 1.  Run i draws its initialization from (config.seed, i),
    so results are bit-identical for any worker count.
    """
    if n_inits < 1:
        raise ValueError("need at least one initialization")
    if math.isnan(success_loss) or math.isnan(success_angle_deg):  # every run would fail
        raise ValueError("success thresholds must not be NaN")
    chunks = np.array_split(np.arange(n_inits), min(max(workers, 1), n_inits))
    jobs = [(config, dataset, chunk.tolist()) for chunk in chunks]
    if len(jobs) > 1:
        with Pool(len(jobs)) as pool:
            parts = pool.map(_train_chunk, jobs)
    else:
        parts = [_train_chunk(jobs[0])]
    results = [res for part in parts for res in part]

    records = []
    for i, res in enumerate(results):
        final_loss = float(res.loss_curve[-1])
        a1, a2 = res.recovered_angles
        records.append(RunRecord(i, final_loss, a1, a2,
                                 final_loss < success_loss,
                                 min(a1, a2) < success_angle_deg))
        if out_dir is not None:
            _write_run_files(out_dir, i, res, records[-1].full_success)
    summary = ExperimentSummary(records,
                                sum(r.full_success for r in records),
                                sum(r.partial_success for r in records))
    if out_dir is not None:
        with open(os.path.join(out_dir, "aggregate.csv"), "w", newline="") as f:
            write_aggregate_csv(summary, f)
    return summary


def write_aggregate_csv(summary: ExperimentSummary, fileobj) -> None:
    w = csv.writer(fileobj)
    w.writerow(["run", "final_loss", "angle1", "angle2", "full_success", "partial_success"])
    for r in summary.records:
        w.writerow([r.run, repr(r.final_loss), repr(r.angle1), repr(r.angle2),
                    r.full_success, r.partial_success])


def _write_run_files(out_dir: str, idx: int, res: TrainResult, converged: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"run{idx:04d}.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "loss", "skipped"])
        for e, (l, s) in enumerate(zip(res.loss_curve, res.skipped)):
            w.writerow([e, repr(float(l)), int(s)])

    def strict(m):  # a non-finite weight is null: strict JSON has no NaN or Infinity
        return np.where(np.isfinite(m), m, None).tolist()

    blob = {
        "initial": [strict(m) for m in res.initial_weights],
        "final": [strict(m) for m in res.final_weights],
        "angles_deg": res.recovered_angles,
        "converged": converged,
    }
    with open(os.path.join(out_dir, f"run{idx:04d}_weights.json"), "w") as f:
        json.dump(blob, f, indent=1, allow_nan=False)
