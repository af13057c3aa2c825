"""Dimension and membership geometry of the output-coefficient variety.

The dimension of the closure of the forward map's image equals the generic
rank of the map's Jacobian.  We evaluate that rank exactly over a large
prime field.  The forward map is an integer polynomial, so a forward pass
over Z/p^2 with one weight bumped by p differs from the base pass by p times
that weight's Jacobian row; Gaussian elimination mod p then gives the rank
with no numerical tolerance.  A float/SVD variant cross-checks small cases,
reading its rows by the complex step (one weight bumped by i*h).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial
from multiprocessing import Pool
from typing import Iterable, Sequence

import numpy as np

from .fields import COMPLEX, DEFAULT_PRIME, REAL, IntegerModRing, PrimeField, is_prime
from .network import (Architecture, Weights, ambient_dim, degrees,
                      forward_recursive, param_count)
from .poly import HomPoly, monomials


COMPLEX_STEP = 1e-20


class CensusTimeout(Exception):
    """Cooperative per-architecture deadline expired."""


@dataclass
class DimensionReport:
    arch: tuple[int, ...]
    jacobian_rank: int | None
    ambient_dim: int
    param_count: int
    conjectured_dim: int
    fiber_upper_bound: int
    prime: int
    seed: int
    runtime_seconds: float
    status: str = "ok"

    @property
    def match(self) -> bool:
        return self.jacobian_rank == self.conjectured_dim

    def to_json(self) -> dict:
        return {"arch": list(self.arch), "jacobian_rank": self.jacobian_rank,
                "ambient_dim": self.ambient_dim, "param_count": self.param_count,
                "conjectured_dim": self.conjectured_dim,
                "fiber_upper_bound": self.fiber_upper_bound,
                "prime": self.prime, "seed": self.seed,
                "runtime_seconds": self.runtime_seconds, "status": self.status}


def fiber_upper_bound(arch: Architecture) -> int:
    """Parameter count minus the hidden reparametrization dimensions plus one
    (diagonal scalings act through a single overall scale)."""
    hidden = sum(arch.dims[1:-1])
    return param_count(arch) - hidden + 1


def expected_dim(arch: Architecture) -> int:
    """Predicted variety dimension: the fiber bound clamped by the ambient
    space (a subvariety can never exceed its ambient dimension)."""
    return min(fiber_upper_bound(arch), ambient_dim(arch))


def gf_rank(rows: list[list[int]], p: int) -> int:
    """Gaussian elimination rank over GF(p); mutates a local copy."""
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


def _param_slots(arch: Architecture) -> list[tuple[int, int, int]]:
    return [(k, i, j) for k, (rows, cols) in enumerate(arch.shapes())
            for i in range(rows) for j in range(cols)]


def _coefficients(w: Weights, basis) -> list:
    """Forward-map output flattened on the ambient monomial basis: each
    numerator in turn, then the denominator."""
    mon_n, mon_m = basis
    out = forward_recursive(w)
    zero = w.field.zero()
    vec = []
    for pnum in out.numerators:
        vec.extend(pnum.terms.get(e, zero) for e in mon_n)
    vec.extend(out.denominator.terms.get(e, zero) for e in mon_m)
    return vec


def _ambient_basis(arch: Architecture):
    prof = degrees(arch)
    return monomials(arch.d0, prof.numerator_degree), monomials(arch.d0, prof.denominator_degree)


def _bumped(mats: tuple, slot, delta) -> tuple:
    """The weight matrices with delta added at one (k, i, j) slot."""
    k, i, j = slot
    m = [list(row) for row in mats[k]]
    m[i][j] += delta
    return mats[:k] + (m,) + mats[k + 1:]


def _jacobian_rows_mod_p(arch: Architecture, base_mats, p: int, deadline=None):
    """Exact Jacobian rows mod p at integer weights in [0, p).

    The forward map is an integer polynomial F, so over Z/p^2
    F(W + p e_s) = F(W) + p dF/dw_s(W); each row entry is therefore
    ((F(W + p e_s) - F(W)) mod p^2) // p.  One base pass, then one pass per
    parameter.
    """
    p2 = p * p
    ring = IntegerModRing(p2)
    basis = _ambient_basis(arch)

    def coefficients(mats):
        if deadline is not None and time.monotonic() > deadline:
            raise CensusTimeout
        return _coefficients(Weights(arch, ring, mats), basis)

    base = coefficients(base_mats)
    return [[(a - b) % p2 // p for a, b in zip(coefficients(_bumped(base_mats, s, p)), base)]
            for s in _param_slots(arch)]


def _jacobian_rows_complex_step(arch: Architecture, base_mats):
    """Float Jacobian rows at real weights by the complex step: bumping one
    weight by i*h leaves h dF/dw_s in every imaginary part, with no
    subtractive cancellation."""
    basis = _ambient_basis(arch)
    h = COMPLEX_STEP
    return [[c.imag / h for c in
             _coefficients(Weights(arch, COMPLEX, _bumped(base_mats, s, 1j * h)), basis)]
            for s in _param_slots(arch)]


def jacobian_rank_mod_p(arch, seed: int = 0, p: int = DEFAULT_PRIME,
                        samples: int = 2, deadline: float | None = None) -> DimensionReport:
    """Exact Jacobian rank of the parameter-to-coefficients map over GF(p).

    The rank at a random point can only undershoot the generic rank, so the
    computation is repeated at ``samples`` points (a disagreement triggers
    one extra point) and the maximum is reported.
    """
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    if not is_prime(p) or p <= 10 ** 6:
        raise ValueError("modulus must be a prime above 10^6")
    gf = PrimeField(p)
    t0 = time.monotonic()

    def rank_at(point_seed: int) -> int:
        base = Weights.random(arch, gf, seed=point_seed)
        return gf_rank(_jacobian_rows_mod_p(arch, base.mats, p, deadline), p)

    ranks = [rank_at(seed + 104729 * t) for t in range(max(1, samples))]
    if len(set(ranks)) > 1:
        ranks.append(rank_at(seed + 104729 * len(ranks)))
    rank = max(ranks)
    return DimensionReport(arch.dims, rank, ambient_dim(arch), param_count(arch),
                           expected_dim(arch), fiber_upper_bound(arch), p, seed,
                           time.monotonic() - t0)


def jacobian_rank_float(arch, seed: int = 0, tol: float = 1e-8) -> int:
    """SVD rank of the same Jacobian at a random real point: a cross-check for
    small architectures only, since on deeper or wider ones the singular values
    decay smoothly through tol and the rank undershoots (19, not 24, on
    (2, 3, 4, 3) with seed 2)."""
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    base = Weights.random(arch, REAL, seed=seed)
    rows = _jacobian_rows_complex_step(arch, base.mats)
    return numerical_rank(np.array(rows, dtype=float), tol)


def numerical_rank(a: np.ndarray, tol: float = 1e-10) -> int:
    """Singular values below tol * sigma_max are treated as zero."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


# -- filling classifications ---------------------------------------------------


@dataclass(frozen=True)
class FillingShallow:
    params_feasible: bool
    variety_filling: bool
    manifold_filling: bool


def filling_shallow(n: int, m: int, k: int) -> FillingShallow:
    """One-hidden-layer classification: parameters can only cover the ambient
    space for input width 1 or 2; width 2 fills the variety but never the
    manifold; width 1 is the trivial single-monomial case."""
    if min(n, m, k) < 1:
        raise ValueError("widths must be positive")
    if n == 1:
        return FillingShallow(True, True, True)
    if n == 2:
        return FillingShallow(True, True, False)
    return FillingShallow(False, False, False)


@dataclass(frozen=True)
class FillingBinary:
    params_feasible: bool
    variety_filling: bool


def filling_binary(layers: int, d_out: int) -> FillingBinary:
    """Binary-tower classification: with more than two layers the parameter
    count suffices only for small output widths (3 at even depth, 2 at odd),
    and only single-output towers fill; depth 2 is the shallow width-2 case,
    which fills for every output width."""
    if layers < 2 or d_out < 1:
        raise ValueError("need layers >= 2 and d_out >= 1")
    if layers == 2:
        return FillingBinary(True, True)
    feasible = d_out <= (3 if layers % 2 == 0 else 2)
    return FillingBinary(feasible, d_out == 1)


# -- moment matrix ------------------------------------------------------------


@dataclass
class MomentMatrix:
    row_labels: list[tuple[int, ...]]
    col_labels: list
    array: np.ndarray


@dataclass
class MomentRank:
    ok: bool
    rank: int
    necessary_only: bool

    def __bool__(self):
        return self.ok


def _multiset_multiplier(ms: Sequence[int]) -> int:
    mult = 1
    for v in set(ms):
        mult *= factorial(list(ms).count(v))
    return mult


def build_moment_matrix(Ps: Sequence[HomPoly], Q: HomPoly, arch) -> MomentMatrix:
    """Coefficient matrix whose rank certifies one-hidden-layer membership.

    Rows are multisets of size d1 - 1 over the input variables; columns are
    the d2 numerator tags followed by the input variables.  Each entry is a
    tuple coefficient times the number of orderings of the combined multiset
    (so a doubled index doubles the coefficient, a tripled one gives 6, ...).
    On-model tuples make this matrix a product of d1-column factors, pinning
    its rank at d1.
    """
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    if not arch.is_shallow():
        raise ValueError("moment matrix is defined for one-hidden-layer shapes")
    d0, d1, d2 = arch.dims
    if Q.degree != d1 or any(p.degree != d1 - 1 for p in Ps) or len(Ps) != d2:
        raise ValueError("tuple degrees do not match the architecture")
    rows = list(combinations_with_replacement(range(d0), d1 - 1))
    col_labels = [("num", k) for k in range(d2)] + [("var", j) for j in range(d0)]
    out = np.zeros((len(rows), len(col_labels)), dtype=complex)

    def exp_of(ms):
        e = [0] * d0
        for v in ms:
            e[v] += 1
        return tuple(e)

    for r, ms in enumerate(rows):
        base_mult = _multiset_multiplier(ms)
        for k in range(d2):
            out[r, k] = base_mult * complex(Ps[k].coefficient(exp_of(ms)))
        for j in range(d0):
            full = tuple(sorted(ms + (j,)))
            out[r, d2 + j] = _multiset_multiplier(full) * complex(Q.coefficient(exp_of(full)))
    return MomentMatrix(rows, col_labels, out)


def rank_test_membership(Ps: Sequence[HomPoly], Q: HomPoly, arch,
                         tol: float = 1e-10) -> MomentRank:
    """True when the moment matrix has numerical rank at most the hidden
    width.  Exact membership characterization for hidden width 2; for wider
    hidden layers a necessary condition only."""
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    mm = build_moment_matrix(Ps, Q, arch)
    rank = numerical_rank(mm.array, tol)
    d1 = arch.dims[1]
    return MomentRank(rank <= d1, rank, d1 >= 3)


# -- census --------------------------------------------------------------------


def enumerate_architectures(max_params: int = 30, max_layers: int = 5,
                            max_width: int = 9) -> list[Architecture]:
    """All architectures with 2..max_layers weight matrices, input and hidden
    widths in 2..max_width, output width in 1..max_width, and at most
    max_params parameters; lexicographic by (layer count, dims)."""
    if max_params < 1 or max_layers < 2 or max_width < 2:
        raise ValueError("bounds must allow at least one architecture")
    out = []
    for layers in range(2, max_layers + 1):
        def rec(dims: list[int]):
            pos = len(dims)
            if pos == layers + 1:
                out.append(Architecture(tuple(dims)))
                return
            lo = 1 if pos == layers else 2
            for d in range(lo, max_width + 1):
                if dims:
                    used = sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))
                    if used + dims[-1] * d > max_params:
                        break
                rec(dims + [d])
        rec([])
    return out


def _census_entry(args) -> DimensionReport:
    dims, seed, p, timeout_s, samples = args
    arch = Architecture(dims)
    t0 = time.monotonic()
    try:
        deadline = t0 + timeout_s if timeout_s else None
        return jacobian_rank_mod_p(arch, seed=seed, p=p, samples=samples, deadline=deadline)
    except CensusTimeout:
        return DimensionReport(arch.dims, None, ambient_dim(arch), param_count(arch),
                               expected_dim(arch), fiber_upper_bound(arch), p, seed,
                               time.monotonic() - t0, status="timeout")


def census(max_params: int = 30, max_layers: int = 5, p: int = DEFAULT_PRIME,
           seed: int = 0, timeout_s: float = 10.0, max_width: int = 9,
           workers: int = 1, samples: int = 2) -> list[DimensionReport]:
    """Jacobian-rank dimension for every architecture within the bounds.

    Per-architecture seeds derive from (seed, position) so the output is
    identical for any worker count; rows keep enumeration order.
    """
    archs = enumerate_architectures(max_params, max_layers, max_width)
    jobs = [(a.dims, seed + 1000003 * idx, p, timeout_s, samples)
            for idx, a in enumerate(archs)]
    if workers > 1:
        with Pool(workers) as pool:
            return pool.map(_census_entry, jobs)
    return [_census_entry(j) for j in jobs]


CENSUS_COLUMNS = ["arch", "jacobian_rank", "ambient_dim", "param_count",
                  "conjectured_dim", "match", "runtime_s", "status"]


def census_to_csv(reports: Iterable[DimensionReport], fileobj) -> None:
    w = csv.writer(fileobj)
    w.writerow(CENSUS_COLUMNS)
    for r in reports:
        w.writerow([",".join(str(d) for d in r.arch),
                    "" if r.jacobian_rank is None else r.jacobian_rank,
                    r.ambient_dim, r.param_count, r.conjectured_dim,
                    r.match, f"{r.runtime_seconds:.3f}", r.status])

