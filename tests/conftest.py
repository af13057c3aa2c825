from itertools import permutations

import pytest

from ratnets.fields import ScalarField
from ratnets.network import Weights, degrees, forward_recursive
from ratnets.poly import HomPoly, LinearForm, monomials


def _sym_contract_reference(field, indices, forms):
    """Permutation-sum evaluation of the symmetrized contraction, used as an
    independent oracle for the product-form implementation."""
    forms = [f.as_poly(field) if isinstance(f, LinearForm) else f for f in forms]
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


class DualField(ScalarField):
    """First-order dual numbers (a, b) ~ a + b*eps over a base field."""

    def __init__(self, base: ScalarField):
        if isinstance(base, DualField):
            raise ValueError("nested dual fields are not supported")
        self.base = base
        self.name = f"dual({base.name})"
        self.exact = base.exact
        self.cleanup_rel = base.cleanup_rel

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
