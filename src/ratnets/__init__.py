"""Algebra of reciprocal-activation rational networks.

The forward map of a network whose activation inverts each coordinate is a
tuple of homogeneous-polynomial ratios with a shared denominator.  This
package computes that tuple in closed form, factors denominators into
linear forms, reconstructs weights from output tuples, measures the
dimension of the output-coefficient variety over finite fields, and trains
small networks to locate the poles of a meromorphic target.
"""

__version__ = "0.1.0"

from .fields import (COMPLEX, DEFAULT_PRIME, REAL, ComplexField, PrimeField,
                     RealField, ScalarField)
from .poly import HomPoly, NotDivisibleError, monomials, sym_contract
from .network import (Architecture, ArchitectureError, DegreeProfile, DomainError,
                      RationalTuple, Weights, ambient_dim, apply_symmetry, degrees,
                      eval_network, forward_binary, forward_recursive, param_count)
from .factor import (FactorReport, LinearFactorization, build_H,
                     factor_binary_form, factor_multilinear,
                     factor_quadratic_explicit, h_slices, roots_univariate)
from .reconstruct import (MembershipVerdict, Stage, membership_binary_multioutput,
                          projective_mismatch, reconstruct_binary,
                          reconstruct_shallow, round_trip_residual)
from .geometry import (DimensionReport, census, census_to_csv,
                       enumerate_architectures, expected_dim, filling_binary,
                       filling_shallow, jacobian_rank_mod_p, rank_test_membership)
from .train import (Dataset, TrainConfig, TrainResult, forward_backward,
                    run_experiment, sample_lattice, singularity_recovery_score,
                    xavier_init)

__all__ = [name for name in dir() if not name.startswith("_")]
