"""Global bifurcation diagrams of positive solutions of
-u'' = lam*u + a(x)*u^3, u(0) = u(1) = 0, for symmetric piecewise-constant
weights a, by pseudo-arclength continuation of a finite-difference
discretization, cross-checked by a phase-plane shooting oracle.
"""

from .bifurcation import (BifurcationEvent, classify, null_vector,
                          switch_branch)
from .continuation import (Branch, ContinuationConfig, SolutionPoint,
                           continue_branch, fold_points, make_point,
                           update_tangent)
from .corrector import (AugmentedState, NewtonError, SingularSystemError,
                        SoftMode, Tangent, bordered_solve, newton_augmented,
                        newton_fixed_lambda, solve_tridiag)
from .diagram import (BranchRecord, DiagramBundle, RunConfig, deep_census,
                      emit_svg, run_diagram, run_epsilon_sweep,
                      trace_main_branch, write_bundle)
from .discretize import (BandedJacobian, Discretization, MeshMismatchError,
                         discrete_l2_norm, jacobian, principal_eigenvalue,
                         residual, toeplitz_eigenvalue)
from .mesh import (Mesh, MeshError, build_refined_mesh, build_uniform_mesh,
                   mesh_spacings)
from .seeding import (find_new_solution, isola_seeds, matches_branch,
                      patterns, peak_indices, peak_pattern, peak_seed,
                      sine_seed, support_intervals)
from .shooting import (BlowUpError, Trajectory, check_decay_identity,
                       integrate_ivp, potential_energy, shoot_count, time_map)
from .weight import Weight, WeightError, build_weight, eval_weight

__version__ = "0.1.0"
