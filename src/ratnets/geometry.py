"""Dimension and membership geometry of the output-coefficient variety.

The dimension of the closure of the forward map's image equals the generic
rank of the map's Jacobian.  We evaluate that rank exactly over a large
prime field with no polynomial built: the layer recursion runs on scalars
at random input points, each value carrying its tangent in every weight.
That Jacobian is the coefficient Jacobian times Vandermonde blocks, which
keep its rank at enough generic points; elimination mod p then gives the
rank with no numerical tolerance.

Residues mod p are numpy arrays whose dtype follows from p and the platform,
and every product, plus any addend, takes _mul_mod's one remainder: int64 with
``(c + a * b) % p`` below 2^31; uint64 with a long-double quotient estimate
below 2^62 where long double has a 64-bit mantissa (x86-64); Python ints in
object arrays above, or where long double is plain double.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, factorial, prod
from multiprocessing import Pool
from typing import Iterable

import numpy as np

from .fields import DEFAULT_PRIME, PrimeField, is_prime
from .network import Architecture, RationalTuple, ambient_dim, assemble, degrees, param_count, shape_matches
from .poly import _as_complex, _pow2_scaled_forms, deleted_products, monomial_count, monomials

SMALL_PRIME_LIMIT = 2 ** 31  # below it a product of two residues fits in int64
WORD_PRIME_LIMIT = 2 ** 62  # below it a*b - q*p fits in int64 (see _mul_mod)
LONG_DOUBLE_MANTISSA = np.finfo(np.longdouble).nmant  # 63 on x86-64, 52 where it is double
SPARE_POINTS = 4  # evaluation points beyond the count generic points need


@dataclass
class DimensionReport:
    arch: tuple[int, ...]
    jacobian_rank: int
    ambient_dim: int
    param_count: int
    conjectured_dim: int
    fiber_upper_bound: int
    prime: int
    seed: int
    runtime_seconds: float
    sample_ranks: tuple[int, ...] = ()
    status = "ok"  # not a field: every rank runs to completion

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


def _residues(values, p: int) -> np.ndarray:
    """values (integers of any size and sign) mod p as an array whose dtype
    picks _mul_mod's backend: int64 below SMALL_PRIME_LIMIT, uint64 below
    WORD_PRIME_LIMIT where long double has a 64-bit mantissa, else Python ints."""
    if p >= WORD_PRIME_LIMIT or p >= SMALL_PRIME_LIMIT and LONG_DOUBLE_MANTISSA < 63:
        return np.array(values, dtype=object) % p
    try:
        r = np.array(values, dtype=np.int64) % p
    except OverflowError:  # entries beyond int64
        r = (np.array(values, dtype=object) % p).astype(np.int64)
    return r if p < SMALL_PRIME_LIMIT else r.view(np.uint64)


@lru_cache(maxsize=16)
def _inverse(p: int) -> np.longdouble:
    return np.longdouble(1) / np.array(p, dtype=np.uint64).astype(np.longdouble)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int, add: np.ndarray | None = None) -> np.ndarray:
    """(add + a * b) mod p, add defaulting to 0, elementwise (broadcasting) for
    residue arrays of one dtype, with one remainder.

    uint64 residues take the quotient estimate q of a*b/p in long double
    from a precomputed 1/p (Shoup's MulMod; Moller and Granlund 2011): with
    a 64-bit mantissa and a, b <= p < 2^62 it is within one of the true
    quotient, so a*b - q*p, taken in wrapping 64-bit arithmetic, lies in
    [-p, 2p); adding p and the addend puts it in [0, 4p), below 2^64.
    """
    if a.dtype != np.uint64:
        return (a * b if add is None else add + a * b) % p
    if a.size < b.size:  # scale the smaller operand by 1/p
        a, b = b, a
    a, b = a.view(np.int64), b.view(np.int64)
    q = (a * (b * _inverse(p))).astype(np.int64)
    return ((a * b - q * p).view(np.uint64) + (p if add is None else add + p)) % p


def gf_rank(rows, p: int) -> int:
    """Rank over GF(p) of integer rows (a 2-D array or a list of rows), by
    vectorized elimination on the wide side with row pivots: each row's first
    nonzero entry, with no search or swap (a zero row adds no rank).  Below
    2^31 a later row becomes itself times the pivot minus its entry times the
    pivot row, a nonzero scale with terms below p^2: one int64 remainder and
    no inverse.  uint64 and object rows, whose addend must be a residue, add
    the pivot row times minus their entry over the pivot, in place from the
    pivot's column on (the pivot row is zero before it)."""
    if len(rows) == 0:
        return 0
    a = _residues(rows, p)
    if a.shape[0] > a.shape[1]:
        a = a.T.copy()  # contiguous rows
    rank = 0
    while len(a):
        row, a = a[0], a[1:]
        nonzero = row.nonzero()[0]
        if nonzero.size == 0:
            continue
        rank, col = rank + 1, nonzero[0]
        if p < SMALL_PRIME_LIMIT:
            a = _mul_mod(a[:, col, None], p - row, p, a * row[col])
        else:
            neg_inv = a.dtype.type(p - pow(int(row[col]), -1, p))
            a[:, col:] = _mul_mod(_mul_mod(a[:, col, None], neg_inv, p), row[col:], p, a[:, col:])
    return rank


def _point_count(arch: Architecture) -> int:
    """N = min(P, largest monomial count) + SPARE_POINTS: an r-dimensional
    space of polynomial tuples (r <= P) stays injective under evaluation at
    r generic points, and so does each component at its monomial count.
    A prefix of the points that reaches the fiber bound already gives the
    rank at all N: its columns are some of theirs (jacobian_rank_mod_p)."""
    prof = degrees(arch)
    return SPARE_POINTS + min(param_count(arch), max(
        monomial_count(arch.d0, d) for d in (prof.numerator_degree, prof.denominator_degree)))


def _point_jacobian(arch: Architecture, mats, points, p: int) -> np.ndarray:
    """P x (d_L + 1)N Jacobian of the output components at N points mod p,
    by forward-mode tangents through the forward map's own scan and assembly
    (poly.deleted_products, network.assemble) run on scalars.

    Row s is weight s (row-major, layer by layer); column c*N + t is
    component c (numerators, then the denominator) at points[t].  This is
    the coefficient Jacobian times a block-diagonal matrix of monomials at
    the points.  A value and its P tangents at the N points are one dual, an
    (N, 1 + P) array with the value in column 0.  Every sum is reduced with
    the product it adds: an unreduced sum of int64 products or uint64 residues wraps.
    """
    dims, nparams = arch.dims, param_count(arch)
    ins = _residues(points, p).T[..., None]  # the inputs' duals: values, no tangents

    def apply(w, v):  # rows of the residue matrix w against the stacked duals v
        acc = _mul_mod(w[:, 0, None, None], v[0], p)
        for j in range(1, len(v)):
            acc = _mul_mod(w[:, j, None, None], v[j], p, acc)
        return acc

    def mul(a, b):  # duals; None is one
        if a is None or b is None:
            return b if a is None else a
        out = _mul_mod(a[:, :1], b, p)  # a's value times b's value and tangents
        out[:, 1:] = _mul_mod(b[:, :1], a[:, 1:], p, out[:, 1:])
        return out

    qs, offset = [None, None], 0  # product forms, indexed as in network.forward_layers
    for k, w in enumerate(mats):
        if k:  # the deleted products of the previous layer
            dels, full = deleted_products(duals, mul, None)
            qs.append(full)
            ins = np.stack(dels)
        duals = apply(_residues(w, p), ins)
        if not k:  # layer 0 ran on values alone
            duals = np.concatenate([duals, np.zeros(duals.shape[:2] + (nparams,), duals.dtype)], -1)
        for i in range(dims[k + 1]):  # the derivative in w[i][j] is the value of ins[j]
            duals[i, :, 1 + offset + i * dims[k]:1 + offset + (i + 1) * dims[k]] = ins[..., 0].T
        offset += dims[k + 1] * dims[k]

    nums, den = assemble(duals, qs, mul, None)
    return np.stack([d[:, 1:] for d in nums + [den]]).transpose(2, 0, 1).reshape(nparams, -1)


def jacobian_rank_mod_p(arch, seed: int = 0, p: int = DEFAULT_PRIME,
                        samples: int = 2) -> DimensionReport:
    """Exact Jacobian rank of the parameter-to-coefficients map over GF(p).

    Each sample draws the weights and _point_count(arch) input points from
    one seeded stream.  Its rank undershoots the generic rank r only where a
    fixed nonzero r x r minor, a polynomial in weights and points jointly,
    vanishes: by Schwartz-Zippel, with probability at most deg(minor)/(p-1).
    So up to ``samples`` samples are ranked (a disagreement adds one), the
    maximum is reported and ``sample_ranks`` lists them all.

    A sample that ranks expected_dim(arch) ends the loop, as none ranks more
    (the fiber bound of Kileel, Trager and Bruna, 2019).  Scaling hidden
    neuron i's row in and column out alike scales the tuple F, so its tangent
    v_i has J v_i in span(F), over the integers and so mod p.  The v_i have
    disjoint supports: generic rank <= P - hidden + 1, and <= ambient as J is
    the coefficient Jacobian times Vandermonde blocks.  No sample ranks above
    the generic rank.

    Each sample first ranks the Jacobian at its first
    ceil(bound / (d_L + 1)) + SPARE_POINTS points only, enough columns to
    reach the bound.  They are columns of the sample's full Jacobian, so
    prefix rank <= full rank <= bound: a prefix that reaches the bound gives
    the full rank, and any other prefix is topped up with the remaining
    points' columns.

    One weight matrix is a ValueError: no hidden layer means no denominator
    and a fiber bound P + 1.
    """
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    if arch.layers < 2:
        raise ValueError(f"need at least one hidden layer, got {arch.dims}")
    if not is_prime(p) or p <= 10 ** 6:
        raise ValueError("modulus must be a prime above 10^6")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    gf, n_points, bound, nparams = PrimeField(p), _point_count(arch), expected_dim(arch), param_count(arch)
    few = min(n_points, ceil(bound / (arch.dL + 1)) + SPARE_POINTS)
    t0 = time.monotonic()

    def rank_at(t: int) -> int:
        draws = iter(gf.randoms(random.Random(seed + 104729 * t), nparams + n_points * arch.d0))
        mats = [[[next(draws) for _ in range(cols)] for _ in range(rows)]
                for rows, cols in arch.shapes()]
        points = [[next(draws) for _ in range(arch.d0)] for _ in range(n_points)]
        # lists of row views: the benchmark's gf_rank cell counter tests `if rows`
        jac = _point_jacobian(arch, mats, points[:few], p)
        rank = gf_rank(list(jac), p)
        if rank < bound and few < n_points:
            jac = np.hstack([jac, _point_jacobian(arch, mats, points[few:], p)])
            rank = gf_rank(list(jac), p)
        return rank

    ranks = []
    for t in range(samples + 1):  # one extra sample when the first ones disagree
        if t == samples and len(set(ranks)) == 1:
            break
        ranks.append(rank_at(t))
        if ranks[-1] == bound:  # proven: no sample ranks above the bound
            break
    return DimensionReport(arch.dims, max(ranks), ambient_dim(arch), nparams,
                           bound, fiber_upper_bound(arch), p, seed,
                           time.monotonic() - t0, tuple(ranks))


def numerical_rank(a: np.ndarray, tol: float = 1e-10) -> int:
    """Singular values below tol * sigma_max are treated as zero."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
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
class MomentRank:
    ok: bool
    rank: int
    necessary_only = True  # not a field: rank <= d1 holds on the closure too


def build_moment_matrix(t: RationalTuple, arch) -> np.ndarray:
    """Coefficient matrix whose rank tests one-hidden-layer membership.

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
    if not shape_matches(t, arch):
        raise ValueError(f"tuple shape does not match the architecture {arch}")
    *Ps, Q = map(_as_complex, t.all_polys())  # a TypeError for an exact field
    d0, d1, d2 = arch.dims
    rows = monomials(d0, d1 - 1)  # a multiset of input indices is its exponent tuple
    out = np.zeros((len(rows), d2 + d0), dtype=complex)
    for r, e in enumerate(rows):
        base_mult = prod(map(factorial, e))
        for k in range(d2):
            out[r, k] = base_mult * Ps[k].coefficient(e)
        for j in range(d0):
            full = e[:j] + (e[j] + 1,) + e[j + 1:]
            out[r, d2 + j] = prod(map(factorial, full)) * Q.coefficient(full)
    return out


def rank_test_membership(t: RationalTuple, arch, tol: float = 1e-10) -> MomentRank:
    """True when the denominator is nonzero (a zero one defines no rational
    function) and the moment matrix has numerical rank at most the hidden
    width.  A necessary condition only, at every hidden width: limits of
    on-model tuples pass too, such as P = y, Q = x^2 at (2, 2, 1), which is
    no sum a / l1 + b / l2.

    The matrix is built from the tuple scaled by one power of two, exact in
    range, so its multiplicities cannot overflow; a coefficient that is not
    finite fails, with rank -1 (none is measured)."""
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    *scaled, scaled_q = _pow2_scaled_forms(t.all_polys())
    matrix = build_moment_matrix(RationalTuple(scaled, scaled_q), arch)
    if not np.isfinite(matrix).all():
        return MomentRank(False, -1)
    rank = numerical_rank(matrix, tol)
    return MomentRank(rank <= arch.dims[1] and not t.denominator.is_zero(), rank)


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


def census(max_params: int = 30, max_layers: int = 5, p: int = DEFAULT_PRIME,
           seed: int = 0, max_width: int = 9, workers: int = 1,
           samples: int = 2) -> list[DimensionReport]:
    """Jacobian-rank dimension for every architecture within the bounds.

    Per-architecture seeds derive from (seed, position) so the output is
    identical for any worker count; rows keep enumeration order.  Every row
    runs to completion, so it depends on its inputs alone, not on the clock.
    """
    if samples < 1:  # checked here too: a bound may leave no architecture
        raise ValueError(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    archs = enumerate_architectures(max_params, max_layers, max_width)
    jobs = [(a, seed + 1000003 * idx, p, samples) for idx, a in enumerate(archs)]
    procs = min(workers, len(jobs))
    if procs > 1:
        with Pool(procs) as pool:
            return pool.starmap(jacobian_rank_mod_p, jobs)
    return [jacobian_rank_mod_p(*j) for j in jobs]


CENSUS_COLUMNS = ["arch", "jacobian_rank", "ambient_dim", "param_count",
                  "conjectured_dim", "match", "runtime_s", "status"]


def census_to_csv(reports: Iterable[DimensionReport], fileobj) -> None:
    w = csv.writer(fileobj)
    w.writerow(CENSUS_COLUMNS)
    for r in reports:
        w.writerow([",".join(str(d) for d in r.arch),
                    r.jacobian_rank, r.ambient_dim, r.param_count, r.conjectured_dim,
                    r.match, f"{r.runtime_seconds:.3f}", r.status])

