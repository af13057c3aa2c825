"""Factoring homogeneous forms into products of linear forms.

The workhorse reduces multilinear factorization to one univariate
root-finding problem plus linear solves: normalize the form so some
variable's pure power has coefficient 1, read the second-column entries of
the factor matrix off the roots of an associated univariate polynomial, then
recover every remaining column from an elementary-symmetric linear system.
A final expansion check makes the procedure sound: a form is declared
decomposable only when the reassembled product matches the input.

A retry under a random change of variables A never expands Q∘A: the
procedure reads only the pure powers of Q∘A and its coefficients on one
pencil, from Q and its gradient at the roots of unity on that pencil,
interpolated by an FFT (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 8 and 10); both are read off the terms c x**u of Q, dQ/dx_i
as sum(u_i c x**u) / x_i, and as 0 where x_i = 0, which a random A meets
with probability zero and which can only spoil that retry's split.  A form
whose well-conditioned direct attempt misses by more than FAR times the
tolerance gets no retries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .fields import COMPLEX
from .poly import HomPoly, _as_complex, _pow2_scaled, deleted_products, product
from .network import RationalTuple, Weights

ROOT_TOL = 1e-10
REASSEMBLY_TOL = 1e-8
REALITY_TOL = 1e-7
LEADING_TOL = 1e-10
MAX_RETRIES = 5
# attempt 0 ends the search when its elementary-symmetric solve has condition
# number below WELL_CONDITIONED and its split misses by more than FAR * tol;
# retries have mended attempt-0 misses of up to 2.4e5 * tol
WELL_CONDITIONED = 1e6
FAR = 1e6


class NonConvergenceError(ArithmeticError):
    """Root finder failed to meet its residual bound, or a binary split its
    reassembly bound; residual is the reassembly residual in the second case
    and None in the first."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class FactorFailure(enum.Enum):
    LEADING_COEFF_ZERO_UNFIXABLE = "LeadingCoeffZeroUnfixable"
    ROOT_FIND_FAIL = "RootFindFail"
    VERIFICATION_FAIL = "VerificationFail"


@dataclass
class LinearFactorization:
    """constant * product(factor rows) reproduces the source within residual
    (residual is relative to the source's largest coefficient)."""

    constant: complex
    factors: list[tuple]
    residual: float

    def reassemble(self) -> HomPoly:
        nvars = len(self.factors[0]) if self.factors else 0
        return product([HomPoly.constant(COMPLEX, nvars, self.constant),
                        *(HomPoly.linear(COMPLEX, f) for f in self.factors)])

    def zero_line_ratios(self) -> list[complex]:
        """For binary factors a*x1 + b*x2: the slope x2/x1 = -a/b of each
        zero line (inf encoded as complex inf when b = 0)."""
        out = []
        for f in self.factors:
            a, b = (complex(c) for c in f)
            out.append(complex(np.inf) if b == 0 else -a / b)
        return out

    def to_json(self) -> dict:
        return {
            "constant": [self.constant.real, self.constant.imag],
            "factors": [[[complex(c).real, complex(c).imag] for c in f] for f in self.factors],
            "residual": self.residual,
        }


@dataclass
class FactorReport:
    decomposable: bool
    factorization: LinearFactorization | None
    all_real: bool
    failure_reason: FactorFailure | None = None

    def to_json(self) -> dict:
        obj = {"decomposable": self.decomposable, "all_real": self.all_real}
        if self.factorization is not None:
            obj.update(self.factorization.to_json())
        if self.failure_reason is not None:
            obj["failure_reason"] = self.failure_reason.value
        return obj


def roots_univariate(coeffs: Sequence[complex]) -> list[complex]:
    """The deg roots (with multiplicity) of sum(coeffs[k] * y**k), or
    NonConvergenceError.

    The roots are the companion-matrix eigenvalues, which np.roots finds
    backward stably; every root r must satisfy
    |p(r)| <= ROOT_TOL * max|coeffs| * max(1, |r|)**deg, with a finite left side.
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0 or c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    deg = c.size - 1
    if deg == 0:
        return []
    c, e = _pow2_scaled(c)
    scale = np.max(np.abs(c))
    if not np.isfinite(scale):  # no root can meet the bound
        raise NonConvergenceError("coefficients are not finite")
    if c[-1] == 0:  # np.roots would drop it and return fewer than deg roots
        raise NonConvergenceError("leading coefficient is below the float range of the largest")
    # an overflow or NaN on the way is left to the residual test, which it fails
    with np.errstate(all="ignore"):
        try:
            # complex even when np.roots finds only real roots (all-zero ones included)
            roots = np.roots(c[::-1]).astype(complex)
        except np.linalg.LinAlgError as ex:
            raise NonConvergenceError(str(ex)) from ex
        resid = np.abs(np.polyval(c[::-1], roots))
        if not (np.isfinite(resid).all()
                and np.all(resid <= ROOT_TOL * scale * np.maximum(1.0, np.abs(roots)) ** deg)):
            raise NonConvergenceError(f"max residual {np.ldexp(resid.max(), e):.3e} above bound")
    return [complex(r) for r in roots]


def _guarded(q: HomPoly) -> tuple[HomPoly, float]:
    """(q over COMPLEX, its largest coefficient magnitude); ValueError if
    constant, zero or not finite."""
    if q.degree < 1:
        raise ValueError(f"cannot factor a form of degree {q.degree}: need degree >= 1")
    if q.is_zero():
        raise ValueError("cannot factor the zero form")
    q = _as_complex(q)
    maxmag = q.max_magnitude()
    if not np.isfinite(maxmag):
        raise ValueError("cannot factor a form whose coefficients are not finite")
    return q, maxmag


def _checked_split(const: complex, rows: list, q: HomPoly, maxmag: float) -> LinearFactorization:
    """const * prod(rows) and its residual against q, relative to q's largest magnitude maxmag."""
    fz = LinearFactorization(const, rows, 0.0)
    fz.residual = fz.reassemble().sub(q).max_magnitude() / maxmag
    return fz


def factor_multilinear(Q: HomPoly, tol: float = REASSEMBLY_TOL, seed: int = 0) -> FactorReport:
    """Decide whether Q is a product of linear forms, and produce one.

    A direct attempt runs the univariate-roots procedure in the original
    coordinates; if it fails to verify (or no variable carries a pure m-th
    power), up to MAX_RETRIES seeded random linear changes of variables A are
    tried and the recovered factors mapped back.  There are no retries when
    the direct attempt's elementary-symmetric solve has condition number
    below WELL_CONDITIONED and its split misses Q by more than FAR * tol.
    A retry reads the coefficients of Q∘A it needs from Q and its gradient
    on a pencil (`_PencilReader`), and its pivot test compares each pure
    power Q(A e_i) with max_j |Q(A e_j)|, not with the largest coefficient
    of Q∘A, which is never formed.  Soundness rests on the final expansion
    check in the original coordinates, never on the intermediate solves.
    """
    Q, maxmag = _guarded(Q)
    m, n = Q.degree, Q.nvars
    if n < 2:
        raise ValueError("need at least 2 variables")
    rng = np.random.default_rng(seed)
    reader = None
    failure = FactorFailure.LEADING_COEFF_ZERO_UNFIXABLE
    for attempt in range(MAX_RETRIES + 1):
        if attempt == 0:
            change = None
            pure = [Q.coefficient(tuple(m if j == i else 0 for j in range(n))) for i in range(n)]
            ref, pencil = maxmag, partial(_coordinate_pencil, Q)
        else:
            change = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            reader = reader or _PencilReader(Q)
            pure, pencil = reader.read(change)
            ref = np.max(np.abs(pure))
        try:
            got = _factor_attempt(pure, ref, pencil)
        except NonConvergenceError:
            failure = FactorFailure.ROOT_FIND_FAIL
            continue
        if got is None:
            continue  # no pure m-th power in these coordinates
        const, rows, condition = got
        if change is not None:
            inv = np.linalg.inv(change)
            rows = [tuple(r @ inv) for r in rows]
        const, rows = _normalize_factors(const, rows)
        if change is not None:
            const = reader.unscale(const)  # last, so only unscale can overflow, silently
        fz = _checked_split(const, rows, Q, maxmag)
        if fz.residual <= tol:
            return FactorReport(True, fz, _factors_all_real(const, rows), None)
        failure = FactorFailure.VERIFICATION_FAIL
        if change is None and condition < WELL_CONDITIONED and fz.residual > FAR * tol:
            break
    return FactorReport(False, None, False, failure)


def _coordinate_pencil(q: HomPoly, p: int, b: int) -> tuple[list, list[list]]:
    """(line, cross) of q read off its own coefficients; see _factor_attempt."""
    n, m = q.nvars, q.degree

    def coeff(*powers: tuple[int, int]) -> complex:
        """Coefficient of the monomial prod(x_i**u for i, u in powers)."""
        e = [0] * n
        for i, u in powers:
            e[i] += u
        return q.coefficient(tuple(e))

    line = [coeff((p, m - k), (b, k)) for k in range(m + 1)]
    cross = [[coeff((p, m - 1 - t), (b, t), (v, 1)) for v in range(n)] for t in range(m)]
    return line, cross


class _PencilReader:
    """The coefficients of Q∘A that _factor_attempt reads, without Q∘A.

    For columns a = A e_p and b = A e_q, (Q∘A)(s e_p + t e_q) = Q(s a + t b),
    so the coefficients of y_p**(m-k) y_q**k are those of t**k in Q(a + t b),
    and the coefficients of y_p**(m-1-t) y_q**t y_v are those of
    ∇Q(a + t b) . A e_v.  Both are polynomials in t of degree at most m:
    Q and ∇Q are evaluated at the m + 1 roots of unity in one pass and the
    coefficients recovered by one FFT; the pure powers are the values Q(A e_i).

    Q is scaled by an exact power of two 2**-e to a largest coefficient part
    in [0.5, 1) first, so coefficients near the top of the float range do not
    overflow; `read` gives the coefficients of 2**-e Q∘A and `unscale`
    multiplies a constant back by 2**e.
    """

    def __init__(self, Q: HomPoly):
        self.n, self.m = Q.nvars, Q.degree
        self.exps = np.array(list(Q.terms), dtype=np.intp).reshape(-1, self.n)
        self.coef, self.e = _pow2_scaled(np.array(list(Q.terms.values()), dtype=complex))

    def values(self, X: np.ndarray) -> np.ndarray:
        """Row j: [Q, dQ/dx_1, ..., dQ/dx_n] of 2**-e Q at the point X[j], from each
        term c x**u formed once: dQ/dx_i is sum(u_i c x**u) / x_i, 0 where x_i = 0."""
        powers = np.ones((len(X), self.n, self.m + 1), dtype=complex)
        powers[:, :, 1:] = np.cumprod(np.repeat(X[:, :, None], self.m, axis=2), axis=2)
        terms = powers[:, np.arange(self.n), self.exps].prod(axis=2) * self.coef
        grad = np.divide(terms @ self.exps, X, out=np.zeros(X.shape, dtype=complex), where=X != 0)
        return np.column_stack([terms.sum(axis=1), grad])

    def read(self, A: np.ndarray):
        """(pure, pencil) of 2**-e Q∘A, in _factor_attempt's convention."""
        pure = self.values(A.T)[:, 0]
        nodes = np.exp(2j * np.pi * np.arange(self.m + 1) / (self.m + 1))

        def pencil(p: int, b: int):
            at = self.values(A[:, p] + nodes[:, None] * A[:, b])
            coeffs = np.fft.fft(np.column_stack([at[:, 0], at[:, 1:] @ A]), axis=0) / (self.m + 1)
            return coeffs[:, 0], coeffs[:self.m, 1:]

        return pure, pencil

    def unscale(self, c: complex) -> complex:
        # an overflow to inf is what Python arithmetic on Q∘A gives, silently
        with np.errstate(over="ignore"):
            return complex(np.ldexp(c.real, self.e), np.ldexp(c.imag, self.e))


def _factor_attempt(pure: Sequence[complex], ref: float, pencil
                    ) -> tuple[complex, list[np.ndarray], float] | None:
    """One pass of the univariate-roots procedure on a degree-m form q in n
    variables, read through its coefficients: pure[i] is that of y_i**m, and
    pencil(p, b) gives (line, cross) with line[k] that of y_p**(m-k) y_b**k
    (k = 0..m) and cross[t][v] that of y_p**(m-1-t) y_b**t y_v (t = 0..m-1,
    v neither p nor b).
    The pivot is the first variable with |pure[i]| > LEADING_TOL * ref;
    None if there is none.  Otherwise (c0, rows, condition), condition
    being σmax/σmin of the elementary-symmetric matrix (inf if singular)."""
    n = len(pure)
    pivot = next((i for i in range(n) if abs(pure[i]) > LEADING_TOL * ref), None)
    if pivot is None:
        return None
    perm = [pivot] + [i for i in range(n) if i != pivot]
    line, cross = pencil(pivot, perm[1])
    m = len(line) - 1
    c0 = pure[pivot]
    # univariate polynomial whose roots are the factors' second coordinates
    g = np.zeros(m + 1, dtype=complex)
    g[m] = 1.0  # ascending storage: g[k] multiplies y^k
    for k in range(1, m + 1):
        g[m - k] = (-1) ** k * (line[k] / c0)
    second = roots_univariate(g)
    rows = np.empty((m, n), dtype=complex)  # one factor per row, one variable per column
    rows[:, pivot] = 1.0
    rows[:, perm[1]] = second
    # remaining columns: one m x m elementary-symmetric system each, one min-norm solve for all
    # (repeated roots give identical columns; equal weight split is the
    # correct assignment for genuinely repeated factors)
    # column i: coefficients of prod_{j != i} (1 + r_j y), ascending
    hats, _ = deleted_products([[1, r] for r in second], np.convolve, np.ones(1))
    M = np.array(hats, dtype=complex).T
    rest = perm[2:]
    rhs = np.array([[cross[t][var] / c0 for var in rest] for t in range(m)], dtype=complex)
    rows[:, rest], _, _, sv = np.linalg.lstsq(M, rhs, rcond=None)
    return c0, list(rows), sv[0] / sv[-1] if sv[-1] > 0 else np.inf


def _normalize_factors(const: complex, rows: list[tuple]):
    out = []
    for r in rows:
        r = np.asarray(r, dtype=complex)
        mags = np.abs(r)
        lead = r[np.argmax(mags > 1e-8 * max(mags.max(), 1e-300))]  # first above threshold
        out.append(tuple((r / lead).tolist()))
        const *= lead
    return complex(const), out


def _factors_all_real(const: complex, rows: list[tuple]) -> bool:
    scale = max(max(abs(complex(v)) for v in r) for r in rows)
    if abs(const.imag) > REALITY_TOL * max(abs(const), 1.0):
        return False
    return all(abs(complex(v).imag) <= REALITY_TOL * max(scale, 1.0)
               for r in rows for v in r)


def factor_binary_form(q: HomPoly, tol: float = REASSEMBLY_TOL) -> LinearFactorization:
    """Split a nonzero binary form completely: q = c * prod(x1 - r*x2) * x2^e.

    The pure-x2 multiplicity e is the number of leading coefficients (in x1)
    that vanish; the finite roots come from the dehomogenization at x2 = 1.
    """
    if q.nvars != 2:
        raise ValueError("binary factorization needs exactly 2 variables")
    q, maxmag = _guarded(q)
    m = q.degree
    coeffs = [q.coefficient((m - k, k)) for k in range(m + 1)]  # coeff of x1^(m-k) x2^k
    lead = next(k for k in range(m + 1) if abs(coeffs[k]) > LEADING_TOL * maxmag)
    const = coeffs[lead]
    factors = [(0j, 1 + 0j)] * lead
    deg_t = m - lead
    # q/x2^lead dehomogenized at x2=1, ascending in x1
    asc = [coeffs[lead + (deg_t - k)] for k in range(deg_t + 1)]
    roots = roots_univariate(asc)
    factors = factors + [(1 + 0j, -r) for r in roots]
    fz = _checked_split(complex(const), factors, q, maxmag)
    if not fz.residual <= tol:
        raise NonConvergenceError(f"binary factor residual {fz.residual:.3e} above {tol}",
                                  fz.residual)
    return fz


def factor_quadratic_explicit(c11: complex, c12: complex, c22: complex
                              ) -> tuple[tuple, tuple]:
    """Rows of two linear forms whose product is c11*x^2 + 2*c12*x*y + c22*y^2.

    The first form carries the overall scale; the pair is real exactly when
    the inputs are real with c12^2 - c11*c22 >= 0.
    """
    c11, c12, c22 = complex(c11), complex(c12), complex(c22)
    if c11 == 0 == c22:  # the form is 2*c12*x*y
        return (1.0 + 0j, 0j), (0j, 2 * c12)
    s = np.sqrt(complex(c12 * c12 - c11 * c22))
    if c11 != 0:
        return (c11, c12 + s), (1.0 + 0j, (c12 - s) / c11)
    return (c12 + s, c22), ((c12 - s) / c22, 1.0 + 0j)


def build_H(w: Weights) -> HomPoly:
    """Product of the per-neuron affine slices for a one-hidden-layer net.

    For widths (n, m, k) this is a degree-m form in n + k variables
    (x_1..x_n, z_1..z_k): factor j couples the j-th input linear form with
    the j-th column of the output matrix on the z block.  Its z-free part is
    the network denominator and its z_i-linear part is the i-th numerator.
    """
    arch, f = w.arch, w.field
    if not arch.is_shallow():
        raise ValueError("H is defined for one-hidden-layer architectures")
    n, m, k = arch.dims
    return product([HomPoly.one(f, n + k),
                    *(HomPoly.linear(f, [*w.mats[0][j], *(w.mats[1][i][j] for i in range(k))])
                      for j in range(m))])


def h_slices(H: HomPoly, n: int, k: int) -> RationalTuple:
    """Split H into the tuple (coefficients of z_1, ..., z_k; z-free part),
    each a form in the first n variables."""
    f = H.field
    m = H.degree
    den: dict = {}
    nums: list[dict] = [{} for _ in range(k)]
    for e, c in H.terms.items():
        ztail = e[n:]
        zdeg = sum(ztail)
        if zdeg == 0:
            den[e[:n]] = c
        elif zdeg == 1:
            nums[ztail.index(1)][e[:n]] = c
    return RationalTuple([HomPoly(f, n, m - 1, t) for t in nums], HomPoly(f, n, m, den))
