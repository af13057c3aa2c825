"""Learning pole locations of a meromorphic target with a tiny reciprocal
network.

The target 1/(x+y) + 1/(x-y) is sampled on a 21x21 lattice over [-1,1]^2
with the two singular lines removed.  Full-batch Adam training on a
(2, 2, 1) network is run from many seeded initializations; a run counts as a
full success when the loss drops below threshold and as a partial success
when some first-layer row aligns with a true pole normal.  Everything is
deterministic given the seed, independent of worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

POLE_NORMALS = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
POLE_GUARD = 1e-9


class AllPointsSkippedError(ArithmeticError):
    """Every batch point sat on a pole of the current network."""


@dataclass
class Dataset:
    inputs: np.ndarray      # (N, 2)
    targets: np.ndarray     # (N,)
    exclusion_radius: float


@dataclass
class TrainConfig:
    arch: tuple[int, ...] = (2, 2, 1)
    lr: float = 1e-3
    epochs: int = 20000
    seed: int = 0
    clip: float | None = None
    snapshot_every: int | None = None  # extra weight snapshots every k epochs

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"need at least one epoch, got {self.epochs}")


@dataclass
class TrainResult:
    loss_curve: np.ndarray
    skipped: np.ndarray
    initial_weights: list[np.ndarray]
    final_weights: list[np.ndarray]
    recovered_angles: list[float]
    converged: bool
    snapshots: list[tuple[int, list[np.ndarray]]] | None = None


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
    return Dataset(pts, target_g(pts[:, 0], pts[:, 1]), exclusion_radius)


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


def forward_backward(mats: list[np.ndarray], x: np.ndarray, y: np.ndarray,
                     pole_tol: float = POLE_GUARD):
    """Full-batch MSE loss and exact gradients by reverse accumulation.

    x has shape (d0, B); points driving any intermediate coordinate below
    pole_tol are skipped for this step and counted.  Raises
    AllPointsSkippedError when nothing survives.
    """
    L = len(mats)
    total = x.shape[1]
    mask = np.ones(total, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = x
        for k in range(L - 1):
            u = mats[k] @ a
            mask &= np.all(np.abs(u) >= pole_tol, axis=0) & np.all(np.isfinite(u), axis=0)
            a = 1.0 / u
    if not mask.any():
        raise AllPointsSkippedError(f"all {total} points near a pole")
    xb = x[:, mask]
    yb = np.atleast_2d(y)[:, mask]
    b = xb.shape[1]

    acts = [xb]
    us = []
    for k in range(L - 1):
        u = mats[k] @ acts[-1]
        us.append(u)
        acts.append(1.0 / u)
    out = mats[-1] @ acts[-1]
    r = out - yb
    loss = float((r * r).sum(axis=0).mean())

    grads = [np.zeros_like(m) for m in mats]
    dout = 2.0 * r / b
    grads[-1] = dout @ acts[-1].T
    da = mats[-1].T @ dout
    for k in range(L - 2, -1, -1):
        du = -da / (us[k] * us[k])
        grads[k] = du @ acts[k].T
        if k > 0:
            da = mats[k].T @ du
    return loss, grads, total - b


@dataclass
class AdamState:
    params: list[np.ndarray]
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0

    def __post_init__(self):
        if not self.m:
            self.m = [np.zeros_like(p) for p in self.params]
        if not self.v:
            self.v = [np.zeros_like(p) for p in self.params]


def adam_step(state: AdamState, grads: list[np.ndarray], lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One standard update with bias correction; returns a fresh state."""
    t = state.t + 1
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(state.params, grads, state.m, state.v):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        new_p.append(p - lr * mhat / (np.sqrt(vhat) + eps))
        new_m.append(m)
        new_v.append(v)
    return AdamState(new_p, new_m, new_v, t)


def singularity_recovery_score(w1: np.ndarray, normals: np.ndarray = POLE_NORMALS
                               ) -> list[float]:
    """For each target line normal, the smallest angle (degrees, sign
    blind) to any row of the first weight matrix."""
    rows = np.asarray(w1, dtype=float)
    norms = np.linalg.norm(rows, axis=1)
    angles = []
    for nv in normals:
        cosines = np.abs(rows @ nv) / np.maximum(norms, 1e-300)
        angles.append(math.degrees(math.acos(min(1.0, float(cosines.max())))))
    return angles


def train_run(config: TrainConfig, dataset: Dataset, run_seed,
              initial: list[np.ndarray] | None = None,
              success_loss: float = 1e-3) -> TrainResult:
    """One full training run; the loss curve records pre-update losses."""
    mats = [m.copy() for m in initial] if initial is not None else xavier_init(config.arch, run_seed)
    initial_mats = [m.copy() for m in mats]
    x = dataset.inputs.T
    y = dataset.targets
    state = AdamState([m.copy() for m in mats])
    losses = np.empty(config.epochs)
    skipped = np.zeros(config.epochs, dtype=int)
    snaps = [] if config.snapshot_every else None
    for epoch in range(config.epochs):
        if snaps is not None and epoch % config.snapshot_every == 0:
            snaps.append((epoch, [m.copy() for m in state.params]))
        try:
            loss, grads, n_skip = forward_backward(state.params, x, y)
        except AllPointsSkippedError:
            losses[epoch] = np.inf
            skipped[epoch] = x.shape[1]
            continue
        losses[epoch] = loss
        skipped[epoch] = n_skip
        if config.clip is not None:
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
            if norm > config.clip:
                grads = [g * (config.clip / norm) for g in grads]
        state = adam_step(state, grads, config.lr)
    final = state.params
    angles = singularity_recovery_score(final[0])
    return TrainResult(losses, skipped, initial_mats, final,
                       angles, float(losses[-1]) < success_loss, snaps)


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


def _experiment_worker(args):
    config, dataset, idx, success_loss = args
    result = train_run(config, dataset, (config.seed, idx), success_loss=success_loss)
    return result


def run_experiment(config: TrainConfig, n_inits: int, dataset: Dataset | None = None,
                   out_dir: str | None = None, workers: int = 1,
                   success_loss: float = 1e-3, success_angle_deg: float = 5.0
                   ) -> ExperimentSummary:
    """Train n_inits independent seeded runs and aggregate success counts.

    Run i draws its initialization from (config.seed, i), so results are
    bit-identical for any worker count.
    """
    if n_inits < 1:
        raise ValueError("need at least one initialization")
    if dataset is None:
        dataset = sample_lattice()
    jobs = [(config, dataset, i, success_loss) for i in range(n_inits)]
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(_experiment_worker, jobs)
    else:
        results = [_experiment_worker(j) for j in jobs]

    records = []
    for i, res in enumerate(results):
        final_loss = float(res.loss_curve[-1])
        a1, a2 = res.recovered_angles
        records.append(RunRecord(i, final_loss, a1, a2,
                                 final_loss < success_loss,
                                 min(a1, a2) < success_angle_deg))
        if out_dir is not None:
            _write_run_files(out_dir, i, res)
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


def _write_run_files(out_dir: str, idx: int, res: TrainResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"run{idx:04d}.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "loss", "skipped"])
        for e, (l, s) in enumerate(zip(res.loss_curve, res.skipped)):
            w.writerow([e, repr(float(l)), int(s)])
    blob = {
        "initial": [m.tolist() for m in res.initial_weights],
        "final": [m.tolist() for m in res.final_weights],
        "angles_deg": res.recovered_angles,
        "converged": res.converged,
    }
    with open(os.path.join(out_dir, f"run{idx:04d}_weights.json"), "w") as f:
        json.dump(blob, f, indent=1)
