"""Parameter recovery from output tuples, with membership verdicts.

Shallow route: factor the denominator into linear forms (rows of the first
matrix), solve one least-squares system per numerator over their deleted
products for the second matrix, and verify from those same products.  Deep
binary route: split the first numerator and the denominator once into linear
factor rows, then peel one layer at a time by taking the two most
independent rows of the appropriate form, carried through the substitutions
so far, down to the last layer over a constant.  Recovered weights are only
ever compared through the forward map, never entrywise, since permutation
and diagonal reparametrizations leave the function unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import COMPLEX
from .poly import (HomPoly, _as_complex, _pow2_scaled_forms, combination, deleted_products,
                   max_or_nan, monomials)
from .network import (Architecture, Weights, RationalTuple, assemble, forward_recursive,
                      shape_matches)
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
    necessary_only = False  # not a field: every route verifies its weights

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


def _normalizing(t: RationalTuple) -> tuple[list[HomPoly], complex]:
    """t's forms over COMPLEX, numerators then denominator, and the scale
    s = 1/pivot that makes the pivot 1: the denominator's grlex-leading
    coefficient, or its largest-magnitude one when the leading magnitude is
    not above 1e-12 times the largest (an empty slot, or NaN anywhere)."""
    q = _as_complex(t.denominator)
    if q.is_zero():
        raise ValueError("denominator is identically zero")
    mag = q.field.magnitude
    pivot = q.coefficient((q.degree,) + (0,) * (q.nvars - 1))
    if not mag(pivot) > 1e-12 * q.max_magnitude():
        pivot = max(q.terms.values(), key=mag)
    return [*map(_as_complex, t.numerators), q], 1.0 / pivot


def projective_normalize(t: RationalTuple) -> RationalTuple:
    """The tuple scaled so the denominator's pivot (see _normalizing) is 1."""
    forms, s = _normalizing(t)
    return RationalTuple(tuple(p.scale(s) for p in forms[:-1]), forms[-1].scale(s))


def projective_mismatch(a: RationalTuple, b: RationalTuple) -> float:
    """Max over the coefficients of |a_e s_a - b_e s_b|, with a missing term
    read as 0 and (s_a, s_b) the normalizing scales, relative to the largest
    |a_e s_a|; NaN when that is not finite, since a finite deviation relative
    to it would read as 0.  Read from the terms: no scaled form is built."""
    fa, sa = _normalizing(a)
    fb, sb = _normalizing(b)
    if len(fa) != len(fb):
        raise ValueError("tuples have different output counts")
    mag = COMPLEX.magnitude
    scale = max_or_nan(mag(sa * c) for p in fa for c in p.terms.values())
    if not math.isfinite(scale):
        return math.nan
    err = max_or_nan(_deviation(pa, sa, pb, sb) for pa, pb in zip(fa, fb))
    return err / scale if scale else err


def _deviation(pa: HomPoly, sa: complex, pb: HomPoly, sb: complex) -> float:
    """max |a_e sa - b_e sb| over the terms of two forms of one signature."""
    if pa.nvars != pb.nvars:
        raise ValueError(f"variable count mismatch: {pa.nvars} vs {pb.nvars}")
    if pa.degree != pb.degree:
        raise ValueError("cannot compare forms of different degree")
    mag, ta, tb = COMPLEX.magnitude, pa.terms, pb.terms
    return max_or_nan([*(mag(sa * c - sb * tb[e]) if e in tb else mag(sa * c) for e, c in ta.items()),
                       *(mag(sb * c) for e, c in tb.items() if e not in ta)])


def _fail(stage: Stage, residual: float = float("inf")) -> MembershipVerdict:
    return MembershipVerdict(False, stage, None, residual)


def _verified(w: Weights, image: RationalTuple, target: RationalTuple, tol: float) -> MembershipVerdict:
    """Accept w if its forward map, the caller's image (bit for bit
    forward_recursive(w)), is within tol of target (NaN is not)."""
    mism = projective_mismatch(image, target)
    if not mism <= tol:
        return _fail(Stage.VERIFICATION_FAIL, mism)
    return MembershipVerdict(True, Stage.NONE, w, mism)


def reconstruct_shallow(t: RationalTuple, arch, tol: float = 1e-6, seed: int = 0,
                        require_real: bool = False) -> MembershipVerdict:
    """Recover one-hidden-layer weights from a candidate output tuple.  The
    forward map that verifies them is assembled from the span solve's deleted
    and full products, as forward_recursive does it: the same tuple, bit for bit."""
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
    one = HomPoly.one(COMPLEX, n)
    hats, full = deleted_products(forms, HomPoly.mul, one)
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
    nums, den = assemble([combination(r, hats) for r in w.mats[1]], [one, one, full], HomPoly.mul, one)
    return _verified(w, RationalTuple(nums, den), t, tol)


def reconstruct_binary(t: RationalTuple, layers: int, tol: float = 1e-6) -> MembershipVerdict:
    """Recover (2, ..., 2, k) weights from a binary tuple with k numerators.
    Q and P1 are each split once into a constant and factor rows; every
    factor a deeper layer's form has is one of those rows carried through the
    substitutions x = M y made so far.  So the peel works on the rows alone:
    from depth L down to 2 it takes the most independent pair of Q's rows
    (even depth) or P1's rows (odd depth) times M, moves their norms into that
    form's constant, drops them and maps them to the swapped coordinates.  The
    last matrix is P's last row times M over the constant Q that is left, or
    with k > 1 each l_i times M, from the fit P_i = l_i(x) N with the least
    residual over the choices of P1's private row (_shared_split).
    The forms are read scaled by one power of two (poly._pow2_scaled_forms),
    which leaves their ratios and so the weights unchanged."""
    if layers < 2:
        raise ValueError("need at least 2 layers")
    k = len(t.numerators)
    if not k or not shape_matches(t, arch := Architecture((2,) * layers + (k,))):
        return _fail(Stage.DEGREE_TEST)
    try:  # Q's split at index 0, P1's at 1: depth % 2 picks the form to peel
        Q, *Ps = _pow2_scaled_forms([t.denominator, *t.numerators])
        splits = [factor_binary_form(f) for f in (Q, Ps[0])]
    except (NonConvergenceError, ValueError):
        return _fail(Stage.FACTOR_TEST)
    consts = [fz.constant for fz in splits]
    rows = [np.array(fz.factors, dtype=complex) for fz in splits]
    if k > 1:  # the fitted rows l_i carry every numerator's scale
        B = np.array([[p.coefficient(e) for p in Ps] for e in monomials(2, Ps[0].degree)])
        if not np.isfinite(B).all():
            return _fail(Stage.SPAN_TEST)
        rows[1], lead = _shared_split(rows[1], B)
        consts[1] = 1.0
    M, mats = np.eye(2, dtype=complex), []
    for depth in range(layers, 1, -1):
        f = depth % 2
        pair = _most_independent_pair(rows[f] @ M)
        if pair is None:
            return _fail(Stage.REPEATED_FACTORS)
        i, j, W1, norm = pair
        consts[f] *= norm
        rows[f] = np.delete(rows[f], [i, j], axis=0)
        # the peeled subnetwork sees coordinates composed with one swap
        M = M @ np.linalg.inv(SWAP @ W1)
        mats.append(W1.tolist())
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        last = np.complex128(consts[1]) / consts[0] * ((rows[1] if k == 1 else lead) @ M)
    mats.append(last.tolist())
    w = Weights(arch, COMPLEX, mats)
    return _verified(w, forward_recursive(w), t, tol)


def _shared_split(rows: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P1's factor rows less its private one, and the rows l_i of the fit
    P_i = l_i(x) N, N the product of the rows kept (B's column i: P_i's
    coefficients, x^d first).  The private row is the one whose fit leaves
    the smallest max |A L - B| (the first on a tie; a NaN never wins)."""
    d, fits = len(B) - 1, []
    forms = [HomPoly.linear(COMPLEX, r) for r in rows]
    for N in deleted_products(forms, HomPoly.mul, HomPoly.one(COMPLEX, 2))[0]:
        n = [N.coefficient((d - 1 - j, j)) for j in range(d)]
        A = np.array([[*n, 0], [0, *n]], dtype=complex).T  # x N and y N
        L = np.linalg.lstsq(A, B, rcond=None)[0]
        fits.append((np.max(np.abs(A @ L - B)), L.T))
    i = int(np.argmin(np.nan_to_num([res for res, _ in fits], nan=np.inf)))
    return np.delete(rows, i, axis=0), fits[i][1]


def _most_independent_pair(vecs: np.ndarray):
    """For rows of direction vectors (at least two): the indices i < j of the
    pair with the smallest normalized inner product (the first such pair on a
    tie), the pair scaled to unit norm, and the product of their norms; None
    when the pair is proportional within tolerance.  Unit rows keep the
    peel's substitution balanced: scaling a hidden neuron leaves the function
    unchanged, so the next form's rows should not see that scale."""
    norms = np.linalg.norm(vecs, axis=1)
    units = vecs / norms[:, None]
    overlap, i, j = min((abs(np.vdot(units[i], units[j])), i, j)
                        for i, j in combinations(range(len(units)), 2))
    if 1.0 - overlap < PROPORTIONAL_TOL:
        return None
    return i, j, units[[i, j]], float(norms[i] * norms[j])


def membership_binary_multioutput(t: RationalTuple, layers: int,
                                  tol: float = 1e-8) -> MembershipVerdict:
    """Membership for (2, ..., 2, k), k the tuple's numerator count: the exact
    verdict of the reconstruction `reconstruct_auto` takes for that shape."""
    if layers < 2:
        raise ValueError("need at least 2 layers")
    if not t.numerators:
        return _fail(Stage.DEGREE_TEST)
    return reconstruct_auto(t, Architecture((2,) * layers + (len(t.numerators),)), tol)


def reconstruct_auto(t: RationalTuple, arch: Architecture, tol: float = 1e-6,
                     seed: int = 0, require_real: bool = False) -> MembershipVerdict:
    """Dispatch to the shallow or deep-binary procedure for this shape;
    require_real is for the shallow one only (ValueError on a binary tower)."""
    if arch.is_shallow():
        return reconstruct_shallow(t, arch, tol=tol, seed=seed, require_real=require_real)
    if arch.is_binary():
        if require_real:
            raise ValueError("real-only reconstruction needs a one-hidden-layer architecture")
        if len(t.numerators) != arch.dL:  # reconstruct_binary reads k from the tuple
            return _fail(Stage.DEGREE_TEST)
        return reconstruct_binary(t, arch.layers, tol=tol)
    raise ValueError(f"no reconstruction procedure for architecture {arch}")


def round_trip_residual(w: Weights, seed: int = 0) -> float:
    """Forward map, reconstruct, forward map again: the verdict's projective
    mismatch between the two tuples (ReconstructionError when none verifies)."""
    verdict = reconstruct_auto(forward_recursive(w), w.arch, tol=float("inf"), seed=seed)
    if verdict.weights is None:
        raise ReconstructionError(verdict)
    return verdict.residual
