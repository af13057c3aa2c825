"""Network architectures, weights, and the coefficient parameter map.

The forward map sends weight matrices to a tuple of homogeneous numerators
sharing one homogeneous denominator.  Two independent constructions are
provided: the layer recursion (any architecture) and the matrix closed form
(binary hidden layers only).  No common-factor cancellation is ever applied
to the output tuple.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

from .fields import ComplexField, ScalarField, field_from_name, checked_number, PrimeField
from .poly import HomPoly, deleted_products, monomial_count

POLE_GUARD = 1e-12


class ArchitectureError(ValueError):
    """Dimension vector violates the supported architecture constraints."""


class DomainError(ArithmeticError):
    """Numeric evaluation hit a pole (an intermediate coordinate vanished)."""


@dataclass(frozen=True)
class Architecture:
    """Dimension vector (d_0, ..., d_L); L = number of weight matrices.

    Input and hidden widths below 2 stall the degree growth of the output,
    so they are rejected.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(operator.index(checked_number(d)) for d in self.dims)
        except TypeError as ex:
            raise ArchitectureError(f"widths must be integers, got {self.dims}") from ex
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ArchitectureError("need at least an input and an output layer")
        if any(d < 1 for d in dims):
            raise ArchitectureError("all widths must be positive")
        if any(d < 2 for d in dims[:-1]):
            raise ArchitectureError(
                f"input and hidden widths must be >= 2, got {dims} "
                "(width-1 layers stop degree growth)")

    @property
    def layers(self) -> int:
        return len(self.dims) - 1

    @property
    def d0(self) -> int:
        return self.dims[0]

    @property
    def dL(self) -> int:
        return self.dims[-1]

    def is_binary(self) -> bool:
        return all(d == 2 for d in self.dims[:-1])

    def is_shallow(self) -> bool:
        return self.layers == 2

    def shapes(self) -> list[tuple[int, int]]:
        return [(self.dims[k + 1], self.dims[k]) for k in range(self.layers)]

    def __str__(self):
        return ",".join(str(d) for d in self.dims)


def param_count(arch: Architecture) -> int:
    return sum(a * b for a, b in arch.shapes())


def layer_degrees(arch: Architecture) -> tuple[list[int], list[int]]:
    """Degrees of the recursion's intermediate forms.

    Returns (n, m) with n[k] = deg of the layer-k numerator factor for
    k = 1..L and m[k] = deg of the layer-k product form, m[0] = m[1] = 0.
    """
    dims = arch.dims
    n = [0, 1]
    m = [0, 0]
    for k in range(2, arch.layers + 1):
        n.append((dims[k - 1] - 1) * n[k - 1])
        m.append(dims[k - 1] * n[k - 1])
    return n, m


@dataclass(frozen=True)
class DegreeProfile:
    numerator_degree: int
    denominator_degree: int


@lru_cache(maxsize=1024)
def degrees(arch: Architecture) -> DegreeProfile:
    """Output degrees from the alternating assembly, as sums of degrees;
    computed once per architecture, since a rank or a shape test asks again."""
    L = arch.layers
    n, m = layer_degrees(arch)
    (num,), den = assemble([n[L]], m, operator.add, 0)
    return DegreeProfile(num, den)


def shape_matches(t: RationalTuple, arch: Architecture) -> bool:
    """The tuple t has arch's output count, input width and output degrees."""
    prof = degrees(arch)
    Q = t.denominator
    return (len(t.numerators) == arch.dL and Q.nvars == arch.d0 and Q.degree == prof.denominator_degree
            and all(p.nvars == arch.d0 and p.degree == prof.numerator_degree for p in t.numerators))


def ambient_dim(arch: Architecture) -> int:
    """Coefficient count of the output tuple's ambient space."""
    prof = degrees(arch)
    n0 = arch.d0
    return (arch.dL * monomial_count(n0, prof.numerator_degree)
            + monomial_count(n0, prof.denominator_degree))


@dataclass(frozen=True)
class Weights:
    """Weight matrices for an architecture; mats[k] has shape d_{k+1} x d_k."""

    arch: Architecture
    field: ScalarField
    mats: tuple

    def __post_init__(self):
        mats = tuple(tuple(tuple(row) for row in m) for m in self.mats)
        object.__setattr__(self, "mats", mats)
        shapes = [(len(m), len(m[0]) if m else 0) for m in mats]
        if shapes != self.arch.shapes():
            raise ArchitectureError(f"matrix shapes {shapes} do not match {self.arch.shapes()}")
        for k, (m, (_, cols)) in enumerate(zip(mats, shapes)):
            if any(len(row) != cols for row in m):
                raise ArchitectureError(f"matrix {k + 1} has rows of unequal length")

    @classmethod
    def random(cls, arch: Architecture, field: ScalarField, seed: int = 0) -> "Weights":
        rng = random.Random(seed)
        mats = [tuple(tuple(field.random(rng) for _ in range(cols)) for _ in range(rows))
                for rows, cols in arch.shapes()]
        return cls(arch, field, tuple(mats))

    def to_json(self) -> dict:
        obj = {
            "arch": list(self.arch.dims),
            "field": self.field.json_name,
            "mats": [[[_coeff_json_value(self.field, v) for v in row] for row in m] for m in self.mats],
        }
        if isinstance(self.field, PrimeField):
            obj["p"] = self.field.p
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Weights":
        field = field_from_name(obj["field"], obj.get("p"))
        arch = Architecture(tuple(obj["arch"]))
        mats = tuple(tuple(tuple(_coeff_from_json_value(field, v) for v in row) for row in m)
                     for m in obj["mats"])
        return cls(arch, field, mats)


def _coeff_json_value(field, v):
    obj = field.coeff_to_json(v)
    if "im" in obj and obj["im"] != 0.0:
        return [obj["re"], obj["im"]]
    return obj["re"]


def _coeff_from_json_value(field, v):
    if isinstance(v, list):
        if not isinstance(field, ComplexField):
            raise TypeError(f"{field.name} entry {v!r} is a list; only complex weights"
                            " take a [re, im] pair")
        if len(v) != 2:
            raise TypeError(f"complex entry {v!r} is not a [re, im] pair")
        return field.coeff_from_json({"re": v[0], "im": v[1]})
    return field.coeff_from_json({"re": v})


@dataclass(frozen=True)
class RationalTuple:
    """Output tuple (P_1, ..., P_dL, Q); never reduced to lowest terms."""

    numerators: tuple[HomPoly, ...]
    denominator: HomPoly

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))

    def all_polys(self) -> list[HomPoly]:
        return list(self.numerators) + [self.denominator]

    def common_monomial_factor(self) -> tuple[int, ...]:
        """Largest monomial dividing every component (all-zero if none)."""
        exps = [e for p in self.all_polys() for e in p.terms]
        return tuple(map(min, zip(*exps))) if exps else (0,) * self.denominator.nvars

    def to_json(self) -> dict:
        return {"numerators": [p.to_json() for p in self.numerators],
                "denominator": self.denominator.to_json()}

    @classmethod
    def from_json(cls, field: ScalarField, obj: dict) -> "RationalTuple":
        return cls(tuple(HomPoly.from_json(field, p) for p in obj["numerators"]),
                   HomPoly.from_json(field, obj["denominator"]))


def forward_layers(w: Weights) -> tuple[list[HomPoly], list[HomPoly]]:
    """Run the layer recursion, returning the last layer's numerator forms
    and the full list of product forms (index 0..L, entries 0 and 1 are 1)."""
    arch, f = w.arch, w.field
    dims = arch.dims
    d0 = dims[0]
    p = [HomPoly.linear(f, w.mats[0][i]) for i in range(dims[1])]
    one = HomPoly.one(f, d0)
    qs = [one, one]
    for k in range(1, arch.layers):
        dels, full = deleted_products(p, HomPoly.mul, one)
        qs.append(full)
        nxt = []
        for i in range(dims[k + 1]):
            acc = HomPoly.zero(f, d0, dels[0].degree)
            for j in range(dims[k]):
                acc = acc.add(dels[j].scale(w.mats[k][i][j]))
            nxt.append(acc)
        p = nxt
    return p, qs


def assemble(p: Sequence, qs: Sequence, mul, one) -> tuple[list, object]:
    """Numerators p_i q_{L-1} q_{L-3} ... and denominator q_L q_{L-2} ... from
    the top layer's factors p and the product forms qs[0..L]; each product
    starts at ``one``, mul's identity or a marker it skips."""
    L = len(qs) - 1
    num_factor = reduce(mul, qs[L - 1:1:-2], one)
    return [mul(pi, num_factor) for pi in p], reduce(mul, qs[L:1:-2], one)


def forward_recursive(w: Weights) -> RationalTuple:
    """Assemble the output tuple from the layer recursion."""
    p, qs = forward_layers(w)
    nums, den = assemble(p, qs, HomPoly.mul, qs[0])  # qs[0] is the constant 1
    return RationalTuple(nums, den)


# -- binary closed form ------------------------------------------------------


def _mat_mul(f: ScalarField, A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return tuple(tuple(
        _dot(f, [A[i][k] for k in range(inner)], [B[k][j] for k in range(inner)])
        for j in range(cols)) for i in range(rows))


def _dot(f: ScalarField, xs, ys):
    acc = f.zero()
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


def forward_binary(w: Weights) -> RationalTuple:
    """Closed form for architectures (2, 2, ..., 2, dL), over any field.

    Built from the matrix chain A_1 = W_1, A_i = W_i S A_{i-1} with S the
    2x2 swap: the stage-i quadratic form (1/2) x^T A_{i-1}^T S A_{i-1} x is
    (a_1 . x)(a_2 . x), the product of A_{i-1}'s two rows, so no 1/2 is
    taken and GF(2) works too; the final linear forms are the rows of
    W_L S A_{L-1}.  This route shares no code with forward_recursive.
    """
    arch, f = w.arch, w.field
    if not arch.is_binary():
        raise ArchitectureError(f"{arch} is not binary (all hidden widths 2)")
    L = arch.layers
    chain = w.mats[0]  # A_1 = W_1
    quads = [HomPoly.one(f, 2), HomPoly.one(f, 2)]  # stages 0 and 1
    for i in range(2, L + 1):
        quads.append(HomPoly.linear(f, chain[0]).mul(HomPoly.linear(f, chain[1])))
        chain = _mat_mul(f, w.mats[i - 1], (chain[1], chain[0]))
    # after the loop chain = W_L S A_{L-1}, rows give the output linear forms
    lin = [HomPoly.linear(f, row) for row in chain]
    num_factor = _alternating_product_list(quads, L - 1, f)
    den = _alternating_product_list(quads, L, f)
    return RationalTuple(tuple(p.mul(num_factor) for p in lin), den)


def _alternating_product_list(qs, top, f):
    acc = HomPoly.one(f, 2)
    t = top
    while t >= 2:
        acc = acc.mul(qs[t])
        t -= 2
    return acc


# -- numeric evaluation and symmetries ----------------------------------------


def eval_network(w: Weights, x: Sequence) -> list:
    """Numeric forward pass applying the entrywise reciprocal between layers;
    DomainError when an intermediate coordinate's magnitude falls below
    POLE_GUARD."""
    arch, f = w.arch, w.field
    if len(x) != arch.d0:
        raise ValueError(f"input has {len(x)} coordinates, need {arch.d0}")
    vec = list(x)
    for k in range(arch.layers):
        vec = [_dot(f, row, vec) for row in w.mats[k]]
        if k < arch.layers - 1:
            for v in vec:
                if f.magnitude(v) < POLE_GUARD:
                    raise DomainError(f"intermediate coordinate vanished at layer {k + 1}")
            vec = [f.inv(v) for v in vec]
    return vec


def apply_symmetry(w: Weights, perms: Sequence[Sequence[int]],
                   diags: Sequence[Sequence]) -> Weights:
    """Transform weights by per-hidden-layer permutations and diagonals.

    perms[i] and diags[i] act on hidden layer i+1 (size d_{i+1}); the network
    function is unchanged, and with identity permutations the output tuple is
    rescaled by the product of all diagonal entries.
    """
    arch, f = w.arch, w.field
    L = arch.layers
    if len(perms) != L - 1 or len(diags) != L - 1:
        raise ValueError(f"need {L - 1} permutations and diagonals")
    for i in range(L - 1):
        d = arch.dims[i + 1]
        if sorted(perms[i]) != list(range(d)):
            raise ValueError(f"perms[{i}] is not a permutation of 0..{d - 1}")
        if len(diags[i]) != d:
            raise ValueError(f"diags[{i}] has wrong length")
        if any(f.is_zero(v) for v in diags[i]):
            raise ValueError("diagonal entries must be nonzero")

    new = []
    for k, m in enumerate(w.mats):
        # rows before columns: row i takes diag[perm[i]] * W_k[perm[i]], then
        # column j of W_{k+1} takes W_{k+1}[:, perm[j]] * diag[perm[j]]
        if k < L - 1:
            p, v = perms[k], diags[k]
            m = [[f.mul(v[r], c) for c in m[r]] for r in p]
        if k > 0:
            p, v = perms[k - 1], diags[k - 1]
            m = [[f.mul(row[c], v[c]) for c in p] for row in m]
        new.append(tuple(map(tuple, m)))
    return Weights(arch, f, tuple(new))
