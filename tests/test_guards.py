"""Input guards that no other test reaches: each call raises the exception
type named beside it, exactly that type."""

import numpy as np
import pytest

from ratnets import factor, geometry, network, poly, reconstruct, train
from ratnets.fields import COMPLEX, REAL, PrimeField
from ratnets.network import Architecture, ArchitectureError, RationalTuple, Weights
from ratnets.poly import HomPoly


def lin(*coeffs, field=REAL):
    return HomPoly.linear(field, coeffs)


def shallow_weights():
    return Weights.random(Architecture((2, 2, 1)), REAL, seed=1)


def shallow_tuple():
    return network.forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=1))


GUARDS = {
    "poly: add across degrees": (lambda: HomPoly.one(REAL, 2).add(lin(1.0, 2.0)), ValueError),
    "poly: ragged substitution rows": (lambda: lin(1.0, 2.0).compose_linear([[1.0, 2.0], [3.0]]),
                                       ValueError),
    "poly: evaluate at a short point": (lambda: lin(1.0, 2.0).evaluate([1.0]), ValueError),
    "poly: empty product": (lambda: poly.product([]), ValueError),
    "poly: empty index multiset": (lambda: poly.sym_contract([], [lin(1.0, 2.0)]), ValueError),
    "network: one layer": (lambda: Architecture((2,)), ArchitectureError),
    "network: zero width": (lambda: Architecture((2, 0)), ArchitectureError),
    "network: eval at a short point": (lambda: network.eval_network(shallow_weights(), [1.0]),
                                       ValueError),
    "network: symmetry count": (lambda: network.apply_symmetry(shallow_weights(), [], []),
                                ValueError),
    "network: not a permutation": (
        lambda: network.apply_symmetry(shallow_weights(), [[0, 0]], [[1.0, 1.0]]), ValueError),
    "network: diagonal length": (
        lambda: network.apply_symmetry(shallow_weights(), [[1, 0]], [[1.0]]), ValueError),
    "factor: one variable": (
        lambda: factor.factor_multilinear(HomPoly(COMPLEX, 1, 2, {(2,): 1 + 0j})), ValueError),
    "factor: binary split of a ternary form": (
        lambda: factor.factor_binary_form(lin(1.0, 2.0, 3.0, field=COMPLEX)), ValueError),
    "factor: H of a deep network": (
        lambda: factor.build_H(Weights.random(Architecture((2, 2, 2, 1)), REAL)), ValueError),
    "fields: inverse of 0 in GF(p)": (lambda: PrimeField(101).inv(0), ZeroDivisionError),
    "geometry: shallow filling width 0": (lambda: geometry.filling_shallow(0, 2, 1), ValueError),
    "geometry: binary filling depth 1": (lambda: geometry.filling_binary(1, 1), ValueError),
    "geometry: moment matrix of a deep shape": (
        lambda: geometry.build_moment_matrix(shallow_tuple(), Architecture((2, 2, 2, 1))),
        ValueError),
    "geometry: bounds that allow nothing": (
        lambda: geometry.enumerate_architectures(max_params=0), ValueError),
    "reconstruct: zero denominator": (
        lambda: reconstruct.projective_normalize(
            RationalTuple((lin(1.0, 2.0, field=COMPLEX),), HomPoly.zero(COMPLEX, 2, 2))),
        ValueError),
    "reconstruct: output counts differ": (
        lambda: reconstruct.projective_mismatch(
            shallow_tuple(), RationalTuple((), shallow_tuple().denominator)),
        ValueError),
    "reconstruct: shallow route on a deep shape": (
        lambda: reconstruct.reconstruct_shallow(shallow_tuple(), Architecture((2, 2, 2, 1))),
        ValueError),
    "reconstruct: binary route with one layer": (
        lambda: reconstruct.reconstruct_binary(shallow_tuple(), Architecture((2, 1))), ValueError),
    "reconstruct: binary membership with one layer": (
        lambda: reconstruct.membership_binary_multioutput(shallow_tuple(), 1), ValueError),
    "train: no initialization": (
        lambda: train.run_experiment(train.TrainConfig(), 0, train.sample_lattice()), ValueError),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_type(name):
    call, exc = GUARDS[name]
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc


def test_numerical_rank_of_an_empty_matrix_is_zero():
    assert geometry.numerical_rank(np.zeros((0, 3))) == 0


def test_monomials_in_no_variables():
    assert poly.monomials(0, 0) == [()]
    assert poly.monomials(0, 2) == []
