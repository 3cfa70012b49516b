"""Locking-robust solver for nearly-incompressible linear elasticity.

The linear system of the displacement formulation is solved with conjugate
gradients preconditioned by a convex combination of a plain strain-stiffness
inverse and a Stokes-projected inverse; the combination stays uniformly
effective for every value of the compressibility parameter.
"""

__version__ = "0.1.0"

from .mesh import Mesh, build_uniform_mesh, dump_mesh
from .fem import (AssembledSystem, DofSpace, ManufacturedProblem,
                  ReducedSystem, apply_dirichlet, assemble_div,
                  assemble_epsilon_stiffness, assemble_load,
                  assemble_pressure_mass, assemble_system, build_space,
                  compute_errors, interpolate)
from .sparse_linalg import (Factorization, NotSpdError, SingularMatrixError,
                            dense_symmetric_generalized_eigs, factor_spd,
                            factor_symmetric_indefinite, tridiagonal_eigs)
from .solver import (InfSupReport, NormEquivalenceError, PcgConvergenceError,
                     Preconditioner, SolveReport, StokesProjector,
                     build_projector,
                     dense_preconditioned_spectrum, dense_preconditioner_matrix,
                     estimate_condition, measure_inf_sup, pcg_solve,
                     sharpened_condition_estimate, verify_norm_equivalence)
from .bench import (BenchCell, BenchResult, ExperimentConfig, PreparedCase,
                    emit_report, poisson_to_lambda, prepare_case,
                    run_table_experiment, run_verification_suite, solve_cell)
from . import fourier

__all__ = [name for name in dir() if not name.startswith("_")]
