"""Parameter recovery from output tuples, with membership verdicts.

Shallow route: factor the denominator into linear forms (rows of the first
matrix), then solve one least-squares system per numerator for the second
matrix.  Deep binary route: peel one layer at a time by factoring the
appropriate binary form, substituting the two chosen factor directions to
canonical coordinates and dividing them out, down to a linear numerator over
a constant denominator.  Recovered weights are only ever compared through the
forward map, never entrywise, since permutation and diagonal
reparametrizations leave the function unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import COMPLEX
from .poly import (HomPoly, NotDivisibleError, _as_complex, _pow2_scaled_forms, deleted_products,
                   max_or_nan, monomials)
from .network import Architecture, Weights, RationalTuple, forward_recursive, shape_matches
from .factor import REASSEMBLY_TOL, NonConvergenceError, factor_binary_form, factor_multilinear

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PROPORTIONAL_TOL = 1e-7


class Stage(enum.Enum):
    NONE = "None"
    DEGREE_TEST = "DegreeTest"
    FACTOR_TEST = "FactorTest"
    SPAN_TEST = "SpanTest"
    REPEATED_FACTORS = "RepeatedFactors"
    VERIFICATION_FAIL = "VerificationFail"


@dataclass
class MembershipVerdict:
    in_model: bool
    stage_failed: Stage
    weights: Weights | None
    residual: float
    necessary_only: bool = False

    def to_json(self) -> dict:
        """A non-finite residual (no residual was measured) is written as null."""
        residual = self.residual if math.isfinite(self.residual) else None
        obj = {"in_model": self.in_model, "stage_failed": self.stage_failed.value,
               "residual": residual, "necessary_only": self.necessary_only}
        if self.weights is not None:
            obj["weights"] = self.weights.to_json()
        return obj


class ReconstructionError(RuntimeError):
    def __init__(self, verdict: MembershipVerdict):
        super().__init__(f"reconstruction failed at stage {verdict.stage_failed.value}")
        self.verdict = verdict


def projective_normalize(t: RationalTuple) -> RationalTuple:
    """Scale the tuple so the denominator's grlex-leading coefficient is 1,
    falling back to its largest-magnitude coefficient when that slot is
    (numerically) empty."""
    q = _as_complex(t.denominator)
    if q.is_zero():
        raise ValueError("denominator is identically zero")
    mag = q.field.magnitude
    pivot = q.coefficient((q.degree,) + (0,) * (q.nvars - 1))
    if mag(pivot) <= 1e-12 * q.max_magnitude():
        pivot = max(q.terms.values(), key=mag)
    s = 1.0 / pivot
    return RationalTuple(tuple(_as_complex(p).scale(s) for p in t.numerators), q.scale(s))


def projective_mismatch(a: RationalTuple, b: RationalTuple) -> float:
    """Max coefficient deviation between the normalized tuples, relative to
    the first tuple's largest coefficient magnitude; NaN when that is not
    finite, since a finite deviation relative to it would read as 0."""
    a, b = projective_normalize(a), projective_normalize(b)
    if len(a.numerators) != len(b.numerators):
        raise ValueError("tuples have different output counts")
    scale = max_or_nan(p.max_magnitude() for p in a.all_polys())
    if not math.isfinite(scale):
        return math.nan
    err = max_or_nan(pa.sub(pb).max_magnitude() for pa, pb in zip(a.all_polys(), b.all_polys()))
    return err / scale if scale else err


def _fail(stage: Stage, residual: float = float("inf"),
          necessary_only: bool = False) -> MembershipVerdict:
    return MembershipVerdict(False, stage, None, residual, necessary_only)


def _verified(w: Weights, target: RationalTuple, tol: float) -> MembershipVerdict:
    """Accept w if its forward map is within tol of target (NaN is not)."""
    mism = projective_mismatch(forward_recursive(w), target)
    if not mism <= tol:
        return _fail(Stage.VERIFICATION_FAIL, mism)
    return MembershipVerdict(True, Stage.NONE, w, mism)


def reconstruct_shallow(t: RationalTuple, arch, tol: float = 1e-6, seed: int = 0,
                        require_real: bool = False) -> MembershipVerdict:
    """Recover one-hidden-layer weights from a candidate output tuple."""
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    if not arch.is_shallow():
        raise ValueError("expected a one-hidden-layer architecture")
    n, m, k = arch.dims
    if not shape_matches(t, arch):
        return _fail(Stage.DEGREE_TEST)
    try:
        report = factor_multilinear(t.denominator, tol=min(tol, REASSEMBLY_TOL), seed=seed)
    except ValueError:  # the zero form, or coefficients that are not finite
        return _fail(Stage.FACTOR_TEST)
    if not report.decomposable or (require_real and not report.all_real):
        return _fail(Stage.FACTOR_TEST, report.factorization.residual if report.factorization else float("inf"))
    rows = report.factorization.factors  # tuples of Python complex
    forms = [HomPoly.linear(COMPLEX, r) for r in rows]
    hats, _ = deleted_products(forms, HomPoly.mul, HomPoly.one(COMPLEX, n))
    basis = monomials(n, m - 1)
    A = np.array([[complex(h.coefficient(e)) for h in hats] for e in basis])
    W2 = np.zeros((k, m), dtype=complex)
    for i, p in enumerate(map(_as_complex, t.numerators)):
        # Q is constant * prod(rows): dividing the numerator by it, not a row,
        # keeps A's columns on one scale, so lstsq's cutoff drops none of them;
        # past the float range there is no solution to measure (NaN fails too)
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = np.array([complex(p.coefficient(e)) for e in basis]) / report.factorization.constant
            if not np.isfinite(rhs).all():
                return _fail(Stage.SPAN_TEST)
            W2[i] = sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
            res = np.max(np.abs(A @ sol - rhs))
        scale = max(np.max(np.abs(rhs)), 1e-300)
        if not res <= tol * scale:
            return _fail(Stage.SPAN_TEST, float(res / scale))
    if require_real and np.max(np.abs(W2.imag)) > tol * max(np.max(np.abs(W2)), 1e-300):
        return _fail(Stage.SPAN_TEST)

    w = Weights(arch, COMPLEX, (rows, W2.tolist()))
    return _verified(w, t, tol)


def reconstruct_binary(t: RationalTuple, layers: int, tol: float = 1e-6) -> MembershipVerdict:
    """Recover (2, ..., 2, 1) weights from a single-output binary tuple: one
    peel per layer from depth L down to 2, each factoring the denominator
    (even depth) or the numerator (odd depth); the last matrix is the linear
    numerator left over the constant denominator."""
    if layers < 2:
        raise ValueError("need at least 2 layers")
    arch = Architecture((2,) * layers + (1,))
    if not shape_matches(t, arch):
        return _fail(Stage.DEGREE_TEST)
    P, Q = _as_complex(t.numerators[0]), _as_complex(t.denominator)
    mats = []
    for depth in range(layers, 1, -1):
        even = depth % 2 == 0
        try:
            fz = factor_binary_form(Q if even else P)
        except (NonConvergenceError, ValueError):
            return _fail(Stage.FACTOR_TEST)
        pair = _most_independent_pair([np.asarray(f, dtype=complex) for f in fz.factors])
        if pair is None:
            return _fail(Stage.REPEATED_FACTORS)
        W1 = np.array(pair, dtype=complex)
        # the peeled subnetwork sees coordinates composed with one swap
        rows = np.linalg.inv(SWAP @ W1).tolist()
        P, Q = P.compose_linear(rows), Q.compose_linear(rows)
        try:
            if even:
                Q = Q.exact_divide(0, tol).exact_divide(1, tol)
            else:
                P = P.exact_divide(0, tol).exact_divide(1, tol)
        except NotDivisibleError:
            return _fail(Stage.VERIFICATION_FAIL)
        mats.append(W1.tolist())
    c = complex(Q.coefficient((0, 0)))
    mats.append([[complex(P.coefficient((1, 0))) / c, complex(P.coefficient((0, 1))) / c]])
    w = Weights(arch, COMPLEX, mats)
    return _verified(w, t, tol)


def _most_independent_pair(vecs: list[np.ndarray]):
    """The two direction vectors (of at least two) with the smallest
    normalized inner product, the first such pair on a tie, each scaled to
    unit norm; None when it is proportional within tolerance.  Unit rows keep
    the peel's substitution balanced: scaling a hidden neuron leaves the
    function unchanged, so the next form's factors should not see that scale."""
    units = [v / np.linalg.norm(v) for v in vecs]
    overlap, i, j = min((abs(np.vdot(units[i], units[j])), i, j)
                        for i, j in combinations(range(len(units)), 2))
    if 1.0 - overlap < PROPORTIONAL_TOL:
        return None
    return units[i], units[j]


def resultant_binary(p: HomPoly, q: HomPoly) -> complex:
    """Sylvester resultant of two binary forms (coefficient convention:
    descending powers of the first variable)."""
    if p.nvars != 2 or q.nvars != 2:
        raise ValueError("resultant is defined here for binary forms")
    dp, dq = p.degree, q.degree
    a = [complex(p.coefficient((dp - k, k))) for k in range(dp + 1)]
    b = [complex(q.coefficient((dq - k, k))) for k in range(dq + 1)]
    n = dp + dq
    S = np.zeros((n, n), dtype=complex)
    for i in range(dq):
        S[i, i:i + dp + 1] = a
    for i in range(dp):
        S[dq + i, i:i + dq + 1] = b
    return complex(np.linalg.det(S))


def membership_binary_multioutput(t: RationalTuple, layers: int,
                                  tol: float = 1e-8) -> MembershipVerdict:
    """Membership for multi-output binary architectures.  Two layers are the
    one-hidden-layer shape (2, 2, k), and one output is the single-output
    tower: exact verdicts from the reconstruction `reconstruct_auto` takes.
    Otherwise a necessary-condition screen: numerators must pairwise share
    all but one linear factor, so every pairwise resultant vanishes."""
    if layers < 2:
        raise ValueError("need at least 2 layers")
    k = len(t.numerators)
    if not k or not shape_matches(t, Architecture((2,) * layers + (k,))):
        return _fail(Stage.DEGREE_TEST, necessary_only=True)
    if t.denominator.is_zero():  # res(P, 0) = 0 would pass the screen below
        return _fail(Stage.FACTOR_TEST, necessary_only=True)
    if layers == 2 or k == 1:  # exact: the one-hidden-layer shape or the single-output tower
        return reconstruct_auto(t, Architecture((2,) * layers + (k,)), tol)
    # each numerator into range by an exact power of two, then to largest magnitude 1
    Ps = [_pow2_scaled_forms([p])[0] for p in t.numerators]
    scales = [p.max_magnitude() for p in Ps]
    if not all(s < float("inf") for s in scales):  # NaN too; scaling would make NaN determinants
        return _fail(Stage.VERIFICATION_FAIL, necessary_only=True)
    Ps = [p.scale(1.0 / s) if s else p for p, s in zip(Ps, scales)]
    worst = max_or_nan(abs(resultant_binary(Ps[i], Ps[j]))
                       for i in range(len(Ps)) for j in range(i + 1, len(Ps)))
    if not worst <= tol:
        return MembershipVerdict(False, Stage.VERIFICATION_FAIL, None, worst, True)
    return MembershipVerdict(True, Stage.NONE, None, worst, True)


def reconstruct_auto(t: RationalTuple, arch: Architecture, tol: float = 1e-6,
                     seed: int = 0, require_real: bool = False) -> MembershipVerdict:
    """Dispatch to the shallow or deep-binary procedure for this shape;
    require_real is for the shallow one only (ValueError on a binary tower)."""
    if arch.is_shallow():
        return reconstruct_shallow(t, arch, tol=tol, seed=seed, require_real=require_real)
    if arch.is_binary() and arch.dL == 1:
        if require_real:
            raise ValueError("real-only reconstruction needs a one-hidden-layer architecture")
        return reconstruct_binary(t, arch.layers, tol=tol)
    raise ValueError(f"no reconstruction procedure for architecture {arch}")


def round_trip_residual(w: Weights, seed: int = 0) -> float:
    """Forward map, reconstruct, forward map again: the verdict's projective
    mismatch between the two tuples (ReconstructionError when none verifies)."""
    verdict = reconstruct_auto(forward_recursive(w), w.arch, tol=float("inf"), seed=seed)
    if verdict.weights is None:
        raise ReconstructionError(verdict)
    return verdict.residual
