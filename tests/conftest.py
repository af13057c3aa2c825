import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
import pytest

from ratnets.fields import ScalarField
from ratnets.network import Weights, degrees, forward_recursive
from ratnets.poly import HomPoly, monomials
from ratnets.train import (POLE_GUARD, AllPointsSkippedError, Dataset, TrainConfig, TrainResult,
                           singularity_recovery_score, xavier_init)


def _sym_contract_reference(field, indices, forms):
    """Permutation-sum evaluation of the symmetrized contraction, used as an
    independent oracle for the product-form implementation."""
    idx = list(indices)
    k = len(idx)
    nv = forms[0].nvars
    total = HomPoly.zero(field, nv, k)
    count = 0
    for perm in permutations(idx):
        term = HomPoly.one(field, nv)
        for j in perm:
            term = term.mul(forms[j - 1])
        total = total.add(term)
        count += 1
    return total.scale(field.inv(field.from_int(count)))


@pytest.fixture
def sym_contract_reference():
    return _sym_contract_reference


def _quadratic_all_real(c11, c12, c22, reality_tol: float = 1e-7) -> bool:
    """Real splitting test for c11*x^2 + 2*c12*x*y + c22*y^2 from the
    discriminant, an oracle for the factorization's reality flag."""
    if abs(complex(c11).imag) > reality_tol or abs(complex(c12).imag) > reality_tol \
            or abs(complex(c22).imag) > reality_tol:
        return False
    disc = (complex(c12) ** 2 - complex(c11) * complex(c22)).real
    return disc >= -reality_tol


@pytest.fixture
def quadratic_all_real():
    return _quadratic_all_real


class DualField(ScalarField):
    """First-order dual numbers (a, b) ~ a + b*eps over a base field."""

    def __init__(self, base: ScalarField):
        if isinstance(base, DualField):
            raise ValueError("nested dual fields are not supported")
        self.base = base
        self.name = f"dual({base.name})"
        self.exact = base.exact

    def lift(self, a):
        """Embed a base scalar with zero derivative part."""
        return (a, self.base.zero())

    def seed(self, a):
        """Embed a base scalar with unit derivative part."""
        return (a, self.base.one())

    def value(self, x):
        return x[0]

    def deriv(self, x):
        return x[1]

    def zero(self):
        z = self.base.zero()
        return (z, z)

    def one(self):
        return (self.base.one(), self.base.zero())

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero())

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def sub(self, a, b):
        return (self.base.sub(a[0], b[0]), self.base.sub(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        f = self.base
        return (f.mul(a[0], b[0]), f.add(f.mul(a[0], b[1]), f.mul(a[1], b[0])))

    def inv(self, a):
        # 1/(a + b eps) = 1/a - (b/a^2) eps
        f = self.base
        ia = f.inv(a[0])
        return (ia, f.neg(f.mul(a[1], f.mul(ia, ia))))

    def magnitude(self, a):
        return max(self.base.magnitude(a[0]), self.base.magnitude(a[1]))

    def random(self, rng):
        return (self.base.random(rng), self.base.zero())


def _jacobian_rows_dual(arch, base_mats, dual):
    """One dual-number forward pass per parameter; rows hold the derivative
    parts of every output coefficient on the ambient monomial basis.  An
    independent oracle for the library's Jacobian rows."""
    prof = degrees(arch)
    mon_n = monomials(arch.d0, prof.numerator_degree)
    mon_m = monomials(arch.d0, prof.denominator_degree)
    zero = dual.zero()
    slots = [(k, i, j) for k, (rows, cols) in enumerate(arch.shapes())
             for i in range(rows) for j in range(cols)]
    rows = []
    for slot in slots:
        mats = tuple(tuple(tuple(
            (dual.seed if (k, i, j) == slot else dual.lift)(base_mats[k][i][j])
            for j in range(arch.dims[k])) for i in range(arch.dims[k + 1]))
            for k in range(arch.layers))
        out = forward_recursive(Weights(arch, dual, mats))
        row = []
        for pnum in out.numerators:
            row.extend(dual.deriv(pnum.terms.get(e, zero)) for e in mon_n)
        row.extend(dual.deriv(out.denominator.terms.get(e, zero)) for e in mon_m)
        rows.append(row)
    return rows


@pytest.fixture
def dual_field():
    return DualField


@pytest.fixture
def dual_jacobian_rows():
    return _jacobian_rows_dual


def gf_rank(rows: list[list[int]], p: int) -> int:
    """Gaussian elimination rank over GF(p); mutates a local copy.  Column
    by column, with a search and swap for each pivot and normalized pivot
    rows: an elimination independent of ratnets.geometry.gf_rank's row
    pivots, kept unchanged as its oracle."""
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, m):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col] % p, -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(rank + 1, m):
            f = rows[i][col] % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


@pytest.fixture(scope="session")
def gf_rank_oracle():
    return gf_rank


# -- single-run training oracle -------------------------------------------------
#
# The single-run loss-and-gradient pass, Adam update and training loop that
# ratnets.train replaced by stacked training, kept unchanged as an
# independent oracle for it.

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


def train_run(config: TrainConfig, dataset: Dataset, run_seed,
              initial: list[np.ndarray] | None = None) -> TrainResult:
    """One full training run; the loss curve records pre-update losses."""
    mats = [m.copy() for m in initial] if initial is not None else xavier_init(config.arch, run_seed)
    initial_mats = [m.copy() for m in mats]
    x = dataset.inputs.T
    y = dataset.targets
    state = AdamState([m.copy() for m in mats])
    losses = np.empty(config.epochs)
    skipped = np.zeros(config.epochs, dtype=int)
    for epoch in range(config.epochs):
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
    return TrainResult(losses, skipped, initial_mats, final, angles)


@pytest.fixture
def oracle_forward_backward():
    return forward_backward


@pytest.fixture
def oracle_train_run():
    return train_run


@pytest.fixture
def oracle_adam():
    return AdamState, adam_step
