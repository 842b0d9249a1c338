"""Optimal control of invariant mechanical systems on matrix Lie groups.

Left-trivialized dynamics, Pontryagin extremal flows, indirect shooting
for minimum covariant acceleration trajectories, and an independent
direct-transcription oracle.
"""

from .algebra import (LieAlgebraModel, ValidationReport, abelian_model, ad_star,
                      bias, bracket, connection_bilinear, embed_control, flat,
                      kinetic_energy, load_model, make_model, sharp, so3_model,
                      validate_model)
from .direct import DirectResult, TranscriptionConfig, optimize_direct, transcription_objective
from .dynamics import State, Trajectory, simulate, write_trajectory_csv, zero_control
from .errors import (AngleOutOfRange, DimensionMismatch, NoConvergence,
                     NonFinite, SingularRegularity)
from .groups import (GroupModel, abelian_group, adjoint_matrix, exp_map,
                     generic_group, hat, inverse, log_map, reconstruct_step,
                     so3_group, unhat, validate_group)
from .pmp import (CostModel, Costate, ExtremalPoint, TangentTuple,
                  coordinate_observable, eliminate_control, extremal_rhs,
                  fd_observable, flow_extremal, hamiltonian,
                  hamiltonian_field_check, hamiltonian_observable,
                  min_acc_cost, poisson_bracket, quadratic_cost,
                  running_cost, spatial_momentum, symplectic_form)
from .shooting import (BoundaryProblem, ShootingResult, boundary_residual,
                       extremal_defect, solve_shooting)

__version__ = "0.1.0"
