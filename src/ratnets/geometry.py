"""Dimension and membership geometry of the output-coefficient variety.

The dimension of the closure of the forward map's image equals the generic
rank of the map's Jacobian.  We evaluate that rank exactly over a large
prime field with no polynomial built: the layer recursion runs on scalars
at random input points, each value carrying its tangent in every weight.
That Jacobian is the coefficient Jacobian times Vandermonde blocks, which
keep its rank at enough generic points; elimination mod p then gives the
rank with no numerical tolerance.

Residues mod p are numpy arrays whose dtype follows from p and the
platform, and every product of two goes through _mul_mod: int64 with
``a * b % p`` below 2^31; uint64 with a long-double quotient estimate below
2^62 where long double has a 64-bit mantissa (x86-64); Python ints in
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
from typing import Iterable, Sequence

import numpy as np

from .fields import DEFAULT_PRIME, PrimeField, is_prime
from .network import Architecture, ambient_dim, assemble, degrees, param_count, shape_matches
from .poly import HomPoly, _pow2_scaled_forms, deleted_products, monomial_count, monomials

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


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a * b mod p elementwise (broadcasting) for residue arrays of one dtype.

    uint64 residues take the quotient estimate q of a*b/p in long double
    from a precomputed 1/p (Shoup's MulMod; Moller and Granlund 2011): with
    a 64-bit mantissa and a, b <= p < 2^62 it is within one of the true
    quotient, so a*b - q*p, taken in wrapping 64-bit arithmetic, lies in
    [-p, 2p) and one remainder by p finishes it.
    """
    if a.dtype != np.uint64:
        return a * b % p
    if a.size < b.size:  # scale the smaller operand by 1/p
        a, b = b, a
    a, b = a.view(np.int64), b.view(np.int64)
    q = (a * (b * _inverse(p))).astype(np.int64)
    return ((a * b - q * p) % p).view(np.uint64)


def gf_rank(rows, p: int) -> int:
    """Rank over GF(p) of integer rows (a 2-D array or a list of rows), by
    vectorized elimination along the shorter side."""
    if len(rows) == 0:
        return 0
    a = _residues(rows, p)
    if a.shape[0] < a.shape[1]:
        a = a.T
    rank = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        if nonzero[0]:
            piv = rank + nonzero[0]
            a[[rank, piv]] = a[[piv, rank]]
        # each row below minus (its first entry / pivot) times the pivot row,
        # which stays unnormalised; the sum, below 2p, is reduced in place
        neg_inv = a.dtype.type(p - pow(int(a[rank, col]), -1, p))
        below = a[rank + 1:, col:]
        below += _mul_mod(_mul_mod(below[:, :1], neg_inv, p), a[rank, col:], p)
        below %= p
        rank += 1
        if rank == a.shape[0]:
            break
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
    the points.  Every product and every sum is reduced, dot products
    included: a sum of unreduced int64 products would wrap, and so would a
    sum of five uint64 residues.
    """
    dims, nparams = arch.dims, param_count(arch)
    ins = _residues(points, p).T

    def apply(w, v):  # rows of the residue matrix w against the stacked values v
        terms = _mul_mod(w.reshape(w.shape + (1,) * (v.ndim - 1)), v, p)
        if terms.dtype != np.uint64:
            return terms.sum(axis=1) % p
        acc = terms[:, 0]
        for j in range(1, terms.shape[1]):
            acc = (acc + terms[:, j]) % p  # below 2p, which fits uint64
        return acc

    def mul(a, b):  # (value, tangent) pairs of shapes (N,), (N, P); None is one
        if a is None or b is None:
            return b if a is None else a
        (av, at), (bv, bt) = a, b
        return (_mul_mod(av, bv, p),  # and a sum below 2p, which fits uint64:
                (_mul_mod(av[:, None], bt, p) + _mul_mod(bv[:, None], at, p)) % p)

    qs, offset = [None, None], 0  # product forms, indexed as in network.forward_layers
    for k, w in enumerate(mats):
        if k:  # the deleted products of the previous layer
            dels, full = deleted_products(list(zip(vals, tans)), mul, None)
            qs.append(full)
            ins, in_tans = np.stack([v for v, _ in dels]), np.stack([t for _, t in dels])
        w = _residues(w, p)
        vals = apply(w, ins)
        tans = apply(w, in_tans) if k else np.zeros(vals.shape + (nparams,), dtype=vals.dtype)
        for i in range(dims[k + 1]):  # the derivative in w[i][j] is ins[j]
            tans[i, :, offset + i * dims[k]:offset + (i + 1) * dims[k]] = ins.T
        offset += dims[k + 1] * dims[k]

    nums, den = assemble(list(zip(vals, tans)), qs, mul, None)
    outs = [t for _, t in nums] + [den[1]]
    return np.stack(outs).transpose(2, 0, 1).reshape(nparams, -1)


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
    gf = PrimeField(p)
    n_points, bound = _point_count(arch), expected_dim(arch)
    few = min(n_points, ceil(bound / (arch.dL + 1)) + SPARE_POINTS)
    t0 = time.monotonic()

    def rank_at(t: int) -> int:
        rng = random.Random(seed + 104729 * t)
        mats = [[[gf.random(rng) for _ in range(cols)] for _ in range(rows)]
                for rows, cols in arch.shapes()]
        points = [[gf.random(rng) for _ in range(arch.d0)] for _ in range(n_points)]
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
    return DimensionReport(arch.dims, max(ranks), ambient_dim(arch), param_count(arch),
                           bound, fiber_upper_bound(arch), p, seed,
                           time.monotonic() - t0, tuple(ranks))


def numerical_rank(a: np.ndarray, tol: float = 1e-10) -> int:
    """Singular values below tol * sigma_max are treated as zero."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0:
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
class MomentRank:
    ok: bool
    rank: int
    necessary_only = True  # not a field: rank <= d1 holds on the closure too


def build_moment_matrix(Ps: Sequence[HomPoly], Q: HomPoly, arch) -> np.ndarray:
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
    if not shape_matches(Ps, Q, arch):
        raise ValueError(f"tuple shape does not match the architecture {arch}")
    d0, d1, d2 = arch.dims
    rows = monomials(d0, d1 - 1)  # a multiset of input indices is its exponent tuple
    out = np.zeros((len(rows), d2 + d0), dtype=complex)
    for r, e in enumerate(rows):
        base_mult = prod(map(factorial, e))
        for k in range(d2):
            out[r, k] = base_mult * complex(Ps[k].coefficient(e))
        for j in range(d0):
            full = e[:j] + (e[j] + 1,) + e[j + 1:]
            out[r, d2 + j] = prod(map(factorial, full)) * complex(Q.coefficient(full))
    return out


def rank_test_membership(Ps: Sequence[HomPoly], Q: HomPoly, arch,
                         tol: float = 1e-10) -> MomentRank:
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
    *scaled, scaled_q = _pow2_scaled_forms([*Ps, Q])
    matrix = build_moment_matrix(scaled, scaled_q, arch)
    if not np.isfinite(matrix).all():
        return MomentRank(False, -1)
    rank = numerical_rank(matrix, tol)
    return MomentRank(rank <= arch.dims[1] and not Q.is_zero(), rank)


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

