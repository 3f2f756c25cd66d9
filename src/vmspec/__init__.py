"""Spectral instability analysis of purely magnetic kinetic equilibria.

The pipeline: validate a profile, build (or take) a periodic magnetic
potential, assemble the Galerkin blocks of the linearized field system,
count negative eigenvalues of the truncated symmetric matrix across the
growth parameter, and reconstruct the physical growing mode wherever the
count forces a kernel.
"""

from .discretization import (FourierBasis, VelocityQuadrature, build_fourier_basis,
                             build_velocity_quadrature, integrate_velocity)
from .equilibrium import (CenterConditions, EquilibriumProfile, EquilibriumState,
                          MagneticPotential, ValidationReport, WeightSpec,
                          build_profile, check_center_conditions, find_center_amplitude,
                          make_homogeneous_state, solve_equilibrium_potential,
                          source_term, validate_profile)
from .operators import (EvalOptions, ModalBasis, OperatorBlocks, assemble_M, assemble_blocks,
                        node_moments)
from .spectra import (INCONCLUSIVE, UNSTABLE_T1, UNSTABLE_T2, CountReport,
                      EigenDecomposition, KernelCrossing, SweepResult, VerdictResult,
                      a2_kernel_trivial, count_eigenvalues, default_lambda_grid, locate_kernel,
                      locate_kernel_for_state, modal_truncation, sweep,
                      symmetric_eigen, verdict)
from .growing_mode import (GrowingMode, ResidualReport, from_coefficients, operator_defect_coeffs,
                           physical_defect_coeffs, reconstruct, residuals)
from . import errors

__version__ = "0.1.0"
