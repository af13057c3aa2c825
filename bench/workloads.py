"""The three benchmark workloads: inputs, the timed call and its oracle.

Every workload is a fixed list of items (a *pass*) built from the workload
seed.  The seed changes only values (random evaluation points, weights,
training seeds); the item count, the architectures and the mix of item kinds
are the same for every seed, so runs with different seeds measure the same
amount of work.  A run repeats the pass, so the item list never needs to be
cut part way.

* dim-census: one item is `geometry.jacobian_rank_mod_p(arch, seed, p,
  samples=2)`, the exact Jacobian-rank dimension of one architecture.
* reconstruct-mix: one item is `reconstruct.reconstruct_auto` on a target
  tuple computed at set-up.
* pole-train: one item is `train.run_experiment` on a block of
  POLE_INITS seeded initializations.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from ratnets import geometry, network, reconstruct, train
from ratnets.fields import COMPLEX, DEFAULT_PRIME
from ratnets.network import Architecture, RationalTuple, Weights, degrees
from ratnets.poly import HomPoly, monomials

@dataclass
class Item:
    label: str
    args: tuple
    expect: Any = None


@dataclass
class Plan:
    """One pass of a workload.

    call(item) is the timed call; check(item, out) returns None when the
    output is correct and a one-line reason otherwise; hard_checks() runs
    once per run, outside timing; tally() reports counts that are recorded
    but not gated on.  shape describes the generated inputs and must not
    depend on the seed.  checks counts how often each oracle ran.
    """

    items: list[Item]
    call: Callable[[Item], Any]
    check: Callable[[Item, Any], str | None]
    shape: dict
    checks: Counter = field(default_factory=Counter)
    hard_checks: Callable[[], list[str]] = lambda: []
    tally: Callable[[], dict] = dict


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- dim-census ----------------------------------------------------------------

# The paper's dimension table: (arch, rank, ambient dimension, parameters).
REFERENCE_ROWS = [
    ((3, 3, 3, 3), 22, 136, 27),
    ((2, 3, 4, 3), 24, 39, 30),
    ((4, 3, 2, 2, 3), 22, 372, 28),
    ((2, 2, 2, 3, 2, 1), 14, 15, 22),
    ((2, 2, 4, 2, 2, 1), 17, 23, 26),
]
P61 = 2 ** 61 - 1
# The sample of the 722-architecture enumeration is fixed; the workload seed
# only picks the random evaluation points.
CENSUS_SAMPLE_SEED = 2509
# Strata: depth x ambient dimension below 50, 200 and 600.  Ambient 600 and
# up is the heavy tail (about 1 to 7 s per architecture); it is pooled
# across depths and sampled HEAVY_PICKS times.
AMBIENT_EDGES = (50, 200, 600)
PICKS_PER_BUCKET = (5, 5, 2)
HEAVY_PICKS = 1
# Every P61_EVERY-th sampled architecture runs over GF(2^61 - 1).
P61_EVERY = 5


def _census_sample(tiny: bool) -> list[tuple[tuple[int, ...], int]]:
    ref = {dims for dims, *_ in REFERENCE_ROWS}
    strata = defaultdict(list)
    for arch in geometry.enumerate_architectures(30, 5):
        if arch.dims in ref:
            continue
        amb = network.ambient_dim(arch)
        bucket = sum(amb >= e for e in AMBIENT_EDGES)
        key = ("heavy", 0) if bucket == len(AMBIENT_EDGES) else (arch.layers, bucket)
        strata[key].append(arch.dims)
    rng = random.Random(CENSUS_SAMPLE_SEED)
    picks = []
    for key in sorted(strata, key=str):
        want = HEAVY_PICKS if key[0] == "heavy" else PICKS_PER_BUCKET[key[1]]
        picks.extend(rng.sample(strata[key], min(want, len(strata[key]))))
    if tiny:
        picks = [d for d in picks if network.ambient_dim(Architecture(d)) < AMBIENT_EDGES[0]][:2]
    return [(dims, P61 if i % P61_EVERY == P61_EVERY - 1 else DEFAULT_PRIME)
            for i, dims in enumerate(picks)]


def build_census(seed: int, tiny: bool = False) -> Plan:
    rng = _rng("dim-census", seed)
    checks = Counter()
    items = []
    for dims, rank, amb, params in REFERENCE_ROWS:
        items.append(Item(f"ref {dims}", (dims, rng.randrange(2 ** 31), DEFAULT_PRIME),
                          (rank, amb, params)))
    for dims, p in _census_sample(tiny):
        items.append(Item(f"{dims} p={'2^61-1' if p == P61 else '2^31-1'}",
                          (dims, rng.randrange(2 ** 31), p)))

    def call(item):
        dims, point_seed, p = item.args
        return geometry.jacobian_rank_mod_p(dims, seed=point_seed, p=p, samples=2)

    def check(item, rep):
        checks["rank_matches_conjecture"] += 1
        if rep.status != "ok" or rep.jacobian_rank != rep.conjectured_dim:
            return (f"rank {rep.jacobian_rank} != conjectured {rep.conjectured_dim}"
                    f" (status {rep.status})")
        if item.expect is not None:
            checks["reference_row"] += 1
            got = (rep.jacobian_rank, rep.ambient_dim, rep.param_count)
            if got != item.expect:
                return f"reference row gives (rank, ambient, params) {got}, table says {item.expect}"
        return None

    shape = {
        "items": len(items),
        "reference_rows": len(REFERENCE_ROWS),
        "archs": [[list(it.args[0]), "2^61-1" if it.args[2] == P61 else "2^31-1"]
                  for it in items],
        "p61_share": sum(it.args[2] == P61 for it in items) / len(items),
        "samples_per_item": 2,
    }
    return Plan(items, call, check, shape, checks)


# -- reconstruct-mix -------------------------------------------------------------

# Criterion-5 shapes (n, m, k), criterion-6 depths, and off-model shallow
# shapes (input width 3 or more, where a random tuple is not in the model).
SHALLOW_SHAPES = [(n, m, k) for n in (2, 3, 4) for m in (2, 3, 4, 5) for k in (1, 2, 3)]
SHALLOW_TRIALS = 2
BINARY_DEPTHS = (2, 3, 4, 5, 6)
BINARY_TRIALS = 4
OFF_MODEL_SHAPES = [(n, m) for n in (3, 4) for m in (2, 3, 4, 5)]
OFF_MODEL_TRIALS = 2
RESIDUAL_TOL = 1e-6


def _random_form(rng: random.Random, nvars: int, degree: int) -> HomPoly:
    return HomPoly(COMPLEX, nvars, degree,
                   {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for e in monomials(nvars, degree)})


def build_reconstruct(seed: int, tiny: bool = False) -> Plan:
    rng = _rng("reconstruct-mix", seed)
    checks = Counter()
    if tiny:
        shallow, depths, off = SHALLOW_SHAPES[::12], BINARY_DEPTHS[1:2], OFF_MODEL_SHAPES[:1]
        shallow_trials = binary_trials = off_trials = 1
    else:
        shallow, depths, off = SHALLOW_SHAPES, BINARY_DEPTHS, OFF_MODEL_SHAPES
        shallow_trials, binary_trials, off_trials = SHALLOW_TRIALS, BINARY_TRIALS, OFF_MODEL_TRIALS
    items = []
    for dims in shallow:
        for _ in range(shallow_trials):
            w = Weights.random(Architecture(dims), COMPLEX, seed=rng.randrange(2 ** 31))
            items.append(Item(f"shallow {dims}", (network.forward_recursive(w), w.arch), True))
    for layers in depths:
        dims = (2,) * layers + (1,)
        for _ in range(binary_trials):
            w = Weights.random(Architecture(dims), COMPLEX, seed=rng.randrange(2 ** 31))
            items.append(Item(f"binary {dims}", (network.forward_recursive(w), w.arch), True))
    for j, (n, m) in enumerate(off):
        for t in range(off_trials):
            arch = Architecture((n, m, 1 + (j + t) % 3))
            prof = degrees(arch)
            target = RationalTuple(
                tuple(_random_form(rng, n, prof.numerator_degree) for _ in range(arch.dL)),
                _random_form(rng, n, prof.denominator_degree))
            items.append(Item(f"off-model {arch.dims}", (target, arch), False))

    def call(item):
        target, arch = item.args
        return reconstruct.reconstruct_auto(target, arch)

    def check(item, verdict):
        target, _ = item.args
        if not item.expect:
            checks["off_model_rejected"] += 1
            return "off-model tuple accepted" if verdict.in_model else None
        checks["on_model_accepted"] += 1
        if not verdict.in_model:
            return f"on-model tuple rejected at {verdict.stage_failed.value}"
        if not verdict.residual <= RESIDUAL_TOL:
            return f"residual {verdict.residual:.3e} above {RESIDUAL_TOL}"
        # recompute the residual through the forward map, independently of
        # the verdict's own figure
        checks["forward_map_residual"] += 1
        again = reconstruct.projective_mismatch(target, network.forward_recursive(verdict.weights))
        if not again <= RESIDUAL_TOL:
            return f"recomputed residual {again:.3e} above {RESIDUAL_TOL}"
        return None

    kinds = [it.label.split(" ", 1)[0] for it in items]
    shape = {
        "items": len(items),
        "shallow_items": kinds.count("shallow"),
        "binary_items": kinds.count("binary"),
        "off_model_items": kinds.count("off-model"),
        "off_model_share": kinds.count("off-model") / len(items),
        "archs": [list(it.args[1].dims) for it in items],
    }
    return Plan(items, call, check, shape, checks)


# -- pole-train ----------------------------------------------------------------

POLE_INITS = 8        # R: initializations per block (one item)
POLE_EPOCHS = 200     # E: epochs per initialization
POLE_BLOCKS = 10      # blocks per pass
POLE_LR = 1e-3
ORACLE_EPOCHS = 2000
ORACLE_LOSS = 1e-10


def build_pole(seed: int, tiny: bool = False) -> Plan:
    rng = _rng("pole-train", seed)
    inits, epochs, blocks = (2, 20, 2) if tiny else (POLE_INITS, POLE_EPOCHS, POLE_BLOCKS)
    ds = train.sample_lattice()
    items = [Item(f"block {b}", (rng.randrange(2 ** 31),)) for b in range(blocks)]
    checks = Counter()
    seen: dict[int, Any] = {}
    increases: list[dict] = []

    def config(block_seed):
        return train.TrainConfig(epochs=epochs, lr=POLE_LR, seed=block_seed)

    def call(item):
        return train.run_experiment(config(item.args[0]), inits, dataset=ds, workers=1)

    def initial_losses(block_seed):
        cfg = config(block_seed)
        return [train.forward_backward(train.xavier_init(cfg.arch, (block_seed, i)),
                                       ds.inputs.T, ds.targets)[0] for i in range(inits)]

    def check(item, summary):
        block_seed = item.args[0]
        first = block_seed not in seen
        if first:
            seen[block_seed] = summary
        start = initial_losses(block_seed)
        finals = [r.final_loss for r in summary.records]
        checks["final_loss_finite"] += 1
        if len(finals) != inits or not all(math.isfinite(v) for v in finals):
            return f"final losses {finals} are not {inits} finite values"
        up = [i for i, (a, b) in enumerate(zip(start, finals)) if b > a]
        if first:
            increases.extend({"block_seed": block_seed, "run": i, "initial": start[i],
                              "final": finals[i]} for i in up)
        checks["block_descends"] += 1
        # one run may climb out of a pole region slower than it started, but
        # a block where most runs end above their start did not train
        if 2 * len(up) >= inits:
            return f"{len(up)} of {inits} runs ended above their initial loss"
        return None

    def hard_checks():
        checks["interpolating_weights"] += 1
        oracle = train.train_run(train.TrainConfig(epochs=ORACLE_EPOCHS, seed=0), ds, 0,
                                 initial=train.interpolating_weights())
        final = float(oracle.loss_curve[-1])
        if not final < ORACLE_LOSS:
            return [f"interpolating weights end at loss {final:.3e}, need < {ORACLE_LOSS}"]
        return []

    def tally():
        return {"n_full": sum(s.n_full for s in seen.values()),
                "n_partial": sum(s.n_partial for s in seen.values()),
                "runs": inits * len(seen),
                "loss_increases": increases}

    shape = {"items": len(items), "inits_per_block": inits, "epochs": epochs,
             "lr": POLE_LR, "lattice_points": int(ds.inputs.shape[0])}
    return Plan(items, call, check, shape, checks, hard_checks, tally)


BUILDERS = {"dim-census": build_census, "reconstruct-mix": build_reconstruct,
            "pole-train": build_pole}
