"""Spectral verification library for the damped string.

Weighted finite-difference models of the damped wave equation
rho(x)^2 u_tt - u_xx + alpha(x) u_t = 0 on [0,1]: first-order factor T and
its weighted adjoint, the Dirac-type operator D with damping block B, the
wave generator G, analytic Green's kernels, trace-formula ledgers, polar /
supersymmetry identities, and Riesz projections.
"""

from .coefficients import (CoefficientError, CoefficientSpec, Piece, constant,
                           integrate_product, parse_coefficient_spec,
                           polynomial)
from .discretization import (BoundaryCondition, DiscreteOperatorSet,
                             KernelAmbiguityError, WeightedGrid,
                             build_grid, build_operator_set,
                             kernel_dimensions)
from .greens import (KernelUnavailableError, apply_inverse_via_kernel,
                     greens_kernel, t0_analytic)
from .reporting import (ConfigError, RunConfig, VerificationReport, parse_bc,
                        random_coefficients)
from .riesz import (Contour, ContourError, RieszCluster, cluster_eigenvalues,
                    riesz_projection, verify_resolution_of_identity)
from .spectral import (EigenPair, Spectrum, check_strip, check_symmetry,
                       closed_form_constant_damping, constant_damping_dirac,
                       eigen_dirac, eigen_generator, fit_asymptotics,
                       map_dirac_to_generator, map_generator_to_dirac,
                       multiset_distance, verify_factorization_identity)
from .susy import (BlockResolvent, block_diagonalize, check_intertwining,
                   check_isospectral, resolvent_dirac, resolvent_perturbed)
from .traces import (TraceLedger, build_ledger, eigen_sum, livsic_check,
                     resolvent_trace_expansion, trace_coefficient)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
