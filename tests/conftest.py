from itertools import permutations

import pytest

from ratnets.poly import HomPoly, LinearForm


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
