"""Factoring homogeneous forms into products of linear forms.

The workhorse reduces multilinear factorization to one univariate
root-finding problem plus linear solves: normalize the form so some
variable's pure power has coefficient 1, read the second-column entries of
the factor matrix off the roots of an associated univariate polynomial, then
recover every remaining column from an elementary-symmetric linear system.
A final expansion check makes the procedure sound: a form is declared
decomposable only when the reassembled product matches the input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import ScalarField, COMPLEX
from .poly import HomPoly, LinearForm, NotDivisibleError, _as_complex
from .network import Weights

ROOT_TOL = 1e-10
REASSEMBLY_TOL = 1e-8
REALITY_TOL = 1e-7
LEADING_TOL = 1e-10
MAX_RETRIES = 5


class NonConvergenceError(ArithmeticError):
    """Root finder failed to meet its residual bound."""


class FactorFailure(enum.Enum):
    LEADING_COEFF_ZERO_UNFIXABLE = "LeadingCoeffZeroUnfixable"
    ROOT_FIND_FAIL = "RootFindFail"
    VERIFICATION_FAIL = "VerificationFail"


@dataclass
class LinearFactorization:
    """constant * product(factors) reproduces the source within residual
    (residual is relative to the source's largest coefficient)."""

    constant: complex
    factors: list[LinearForm]
    residual: float

    def reassemble(self, field: ScalarField | None = None) -> HomPoly:
        field = field or COMPLEX
        nvars = self.factors[0].nvars if self.factors else 0
        acc = HomPoly.constant(field, nvars, self.constant)
        for f in self.factors:
            acc = acc.mul(f.as_poly(field))
        return acc

    def zero_line_ratios(self) -> list[complex]:
        """For binary factors a*x1 + b*x2: the slope x2/x1 = -a/b of each
        zero line (inf encoded as complex inf when b = 0)."""
        out = []
        for f in self.factors:
            a, b = (complex(c) for c in f.coeffs)
            out.append(complex(np.inf) if b == 0 else -a / b)
        return out

    def to_json(self) -> dict:
        return {
            "constant": [self.constant.real, self.constant.imag],
            "factors": [[[complex(c).real, complex(c).imag] for c in f.coeffs] for f in self.factors],
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


def roots_univariate(coeffs: Sequence[complex], tol: float = ROOT_TOL,
                     newton_steps: int = 12) -> list[complex]:
    """Roots (with multiplicity) of sum(coeffs[k] * y**k).

    Companion-matrix eigenvalues followed by Newton polishing; every root r
    must satisfy |p(r)| <= tol * max|coeffs| * max(1, |r|)**deg.
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0 or c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    deg = c.size - 1
    if deg == 0:
        return []
    scale = np.max(np.abs(c))
    try:
        # complex even when np.roots finds only real roots (all-zero ones included)
        roots = np.roots(c[::-1]).astype(complex)
    except np.linalg.LinAlgError as ex:
        raise NonConvergenceError(str(ex)) from ex
    dc = c[1:] * np.arange(1, deg + 1)
    for _ in range(newton_steps):
        pv = np.polyval(c[::-1], roots)
        dv = np.polyval(dc[::-1], roots)
        safe = np.abs(dv) > 1e-300
        step = np.zeros_like(roots)
        step[safe] = pv[safe] / dv[safe]
        # damp steps near multiple roots where Newton overshoots
        big = np.abs(step) > 1.0
        step[big] /= np.abs(step[big])
        roots = roots - step
        if np.all(np.abs(np.polyval(c[::-1], roots))
                  <= tol * scale * np.maximum(1.0, np.abs(roots)) ** deg):
            break
    resid = np.abs(np.polyval(c[::-1], roots))
    bound = tol * scale * np.maximum(1.0, np.abs(roots)) ** deg
    if np.any(resid > bound):
        raise NonConvergenceError(f"max residual {resid.max():.3e} above bound")
    return [complex(r) for r in roots]


def _elem_sym_all(vals: Sequence[complex], kmax: int) -> np.ndarray:
    """e_0..e_kmax of vals, by the one-value-at-a-time update."""
    e = np.zeros(kmax + 1, dtype=complex)
    e[0] = 1.0
    for v in vals:
        for k in range(min(kmax, len(vals)), 0, -1):
            e[k] += v * e[k - 1]
    return e


def factor_multilinear(Q: HomPoly, tol: float = REASSEMBLY_TOL, seed: int = 0,
                       max_retries: int = MAX_RETRIES) -> FactorReport:
    """Decide whether Q is a product of linear forms, and produce one.

    A direct attempt runs the univariate-roots procedure in the original
    coordinates; if it fails to verify (or no variable carries a pure m-th
    power), up to max_retries seeded random linear changes of variables are
    tried and the recovered factors mapped back.  Soundness rests on the
    final expansion check, never on the intermediate solves.
    """
    if Q.is_zero():
        raise ValueError("cannot factor the zero form")
    m, n = Q.degree, Q.nvars
    if m < 1 or n < 2:
        raise ValueError("need degree >= 1 and at least 2 variables")
    Q = _as_complex(Q)
    maxmag = Q.max_magnitude()
    rng = np.random.default_rng(seed)
    saw_leading = False
    last_failure = FactorFailure.VERIFICATION_FAIL
    for attempt in range(max_retries + 1):
        if attempt == 0:
            qw, change = Q, None
        else:
            change = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            qw = Q.compose_linear(change.tolist())
        try:
            got = _factor_attempt(qw)
        except NonConvergenceError:
            last_failure = FactorFailure.ROOT_FIND_FAIL
            continue
        if got is None:
            continue  # no pure m-th power in these coordinates
        saw_leading = True
        const, rows = got
        if change is not None:
            inv = np.linalg.inv(change)
            rows = [tuple(np.asarray(r) @ inv) for r in rows]
        const, rows = _normalize_factors(const, rows)
        fz = LinearFactorization(const, [LinearForm(r) for r in rows], 0.0)
        fz.residual = fz.reassemble().sub(Q).max_magnitude() / maxmag
        if fz.residual <= tol:
            return FactorReport(True, fz, _factors_all_real(const, rows), None)
        last_failure = FactorFailure.VERIFICATION_FAIL
    if not saw_leading:
        return FactorReport(False, None, False, FactorFailure.LEADING_COEFF_ZERO_UNFIXABLE)
    return FactorReport(False, None, False, last_failure)


def _factor_attempt(q: HomPoly) -> tuple[complex, list[tuple]] | None:
    """One pass of the univariate-roots procedure; None if no admissible
    pure power exists in these coordinates."""
    n, m = q.nvars, q.degree
    maxmag = q.max_magnitude()

    def coeff(*powers: tuple[int, int]) -> complex:
        """Coefficient of the monomial prod(x_i**u for i, u in powers)."""
        e = [0] * n
        for i, u in powers:
            e[i] += u
        return q.coefficient(tuple(e))

    pivot = None
    for i in range(n):
        if abs(coeff((i, m))) > LEADING_TOL * maxmag:
            pivot = i
            break
    if pivot is None:
        return None
    perm = [pivot] + [i for i in range(n) if i != pivot]
    c0 = coeff((pivot, m))
    # univariate polynomial whose roots are the factors' second coordinates
    g = np.zeros(m + 1, dtype=complex)
    g[m] = 1.0  # ascending storage: g[k] multiplies y^k
    for k in range(1, m + 1):
        g[m - k] = (-1) ** k * (coeff((pivot, m - k), (perm[1], k)) / c0)
    second = roots_univariate(g, tol=ROOT_TOL)
    rows = [[1.0 + 0j, a] for a in second]
    # remaining columns: m x m elementary-symmetric systems, min-norm solve
    # (repeated roots give identical columns; equal weight split is the
    # correct assignment for genuinely repeated factors)
    esym_hat = [_elem_sym_all(second[:i] + second[i + 1:], m - 1) for i in range(m)]
    M = np.array([[esym_hat[i][t] for i in range(m)] for t in range(m)], dtype=complex)
    for var in perm[2:]:
        rhs = np.array([coeff((pivot, m - 1 - t), (perm[1], t), (var, 1)) / c0
                        for t in range(m)], dtype=complex)
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
        for i in range(m):
            rows[i].append(sol[i])
    inv = [0] * n
    for idx, p in enumerate(perm):
        inv[p] = idx
    return c0, [tuple(row[inv[i]] for i in range(n)) for row in rows]


def _normalize_factors(const: complex, rows: list[tuple]):
    out = []
    for r in rows:
        r = np.asarray(r, dtype=complex)
        lead = None
        for v in r:  # first coordinate above threshold, else the largest
            if abs(v) > 1e-8 * max(np.max(np.abs(r)), 1e-300):
                lead = v
                break
        if lead is None or lead == 0:
            lead = r[int(np.argmax(np.abs(r)))]
        out.append(tuple((r / lead).tolist()))
        const *= lead
    return complex(const), out


def _factors_all_real(const: complex, rows: list[tuple],
                      reality_tol: float = REALITY_TOL) -> bool:
    scale = max(max(abs(complex(v)) for v in r) for r in rows)
    if abs(const.imag) > reality_tol * max(abs(const), 1.0):
        return False
    return all(abs(complex(v).imag) <= reality_tol * max(scale, 1.0)
               for r in rows for v in r)


def factor_binary_form(q: HomPoly, tol: float = REASSEMBLY_TOL) -> LinearFactorization:
    """Split a nonzero binary form completely: q = c * prod(x1 - r*x2) * x2^e.

    The pure-x2 multiplicity e is the number of leading coefficients (in x1)
    that vanish; the finite roots come from the dehomogenization at x2 = 1.
    """
    if q.nvars != 2:
        raise ValueError("binary factorization needs exactly 2 variables")
    if q.is_zero():
        raise ValueError("cannot factor the zero form")
    m = q.degree
    q = _as_complex(q)
    maxmag = q.max_magnitude()
    coeffs = [q.coefficient((m - k, k)) for k in range(m + 1)]  # coeff of x1^(m-k) x2^k
    lead = 0
    while abs(coeffs[lead]) <= LEADING_TOL * maxmag:
        lead += 1
    const = coeffs[lead]
    factors = [LinearForm((0j, 1 + 0j))] * lead
    deg_t = m - lead
    if deg_t > 0:
        # q/x2^lead dehomogenized at x2=1, ascending in x1
        asc = [coeffs[lead + (deg_t - k)] for k in range(deg_t + 1)]
        roots = roots_univariate(asc)
        factors = factors + [LinearForm((1 + 0j, -r)) for r in roots]
    fz = LinearFactorization(complex(const), factors, 0.0)
    fz.residual = fz.reassemble().sub(q).max_magnitude() / maxmag
    if fz.residual > tol:
        raise NonConvergenceError(f"binary factor residual {fz.residual:.3e} above {tol}")
    return fz


def factor_quadratic_explicit(c11: complex, c12: complex, c22: complex
                              ) -> tuple[LinearForm, LinearForm]:
    """Two linear forms whose product is c11*x^2 + 2*c12*x*y + c22*y^2.

    The first form carries the overall scale; the pair is real exactly when
    the inputs are real with c12^2 - c11*c22 >= 0.
    """
    c11, c12, c22 = complex(c11), complex(c12), complex(c22)
    if c11 != 0:
        s = np.sqrt(complex(c12 * c12 - c11 * c22))
        return (LinearForm((c11, c12 + s)), LinearForm((1.0 + 0j, (c12 - s) / c11)))
    if c22 != 0:
        s = np.sqrt(complex(c12 * c12 - c11 * c22))
        return (LinearForm((c12 + s, c22)), LinearForm(((c12 - s) / c22, 1.0 + 0j)))
    # c11 = c22 = 0: the form is 2*c12*x*y
    return (LinearForm((1.0 + 0j, 0j)), LinearForm((0j, 2 * c12)))


def quadratic_all_real(c11, c12, c22, reality_tol: float = REALITY_TOL) -> bool:
    """Real splitting test for c11*x^2 + 2*c12*x*y + c22*y^2."""
    if abs(complex(c11).imag) > reality_tol or abs(complex(c12).imag) > reality_tol \
            or abs(complex(c22).imag) > reality_tol:
        return False
    disc = (complex(c12) ** 2 - complex(c11) * complex(c22)).real
    return disc >= -reality_tol


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
    acc = HomPoly.one(f, n + k)
    for j in range(m):
        coeffs = list(w.mats[0][j]) + [w.mats[1][i][j] for i in range(k)]
        acc = acc.mul(HomPoly.linear(f, coeffs))
    return acc


def h_slices(H: HomPoly, n: int, k: int) -> tuple[list[HomPoly], HomPoly]:
    """Split H into ([coefficient of z_1, ..., z_k], z-free part), each a
    form in the first n variables."""
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
    return ([HomPoly(f, n, m - 1, t) for t in nums], HomPoly(f, n, m, den))


def divides(linform: LinearForm, Q: HomPoly, tol: float = 1e-9) -> bool:
    """Divisibility check by attempted exact division."""
    try:
        Q.exact_divide(linform, tol)
        return True
    except NotDivisibleError:
        return False
