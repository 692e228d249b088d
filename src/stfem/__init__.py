"""Goal-oriented adaptive space-time finite elements for the regularized
parabolic p-Laplacian on simplicial meshes of the unit space-time box."""

from .adaptivity import (AdaptiveConfig, AdaptiveResult, ConvergenceRecord,
                         adaptive_loop, doerfler_mark)
from .assembly import (assemble_jacobian, assemble_residual,
                       assemble_time_matrix)
from .dwr import EstimatorBreakdown, efficiency, enrich, estimate
from .goals import FinalTimeIntegralGoal, GoalError, RegionEnergyGoal
from .io import records_to_csv, write_vtk
from .mesh import (BoundaryTag, GoalRegion, MeshError, SimplicialMesh,
                   box_faces, build_box_mesh, build_region_mesh,
                   diamond_region, octahedron_region, refine, uniform_refine)
from .problems import (ManufacturedSolution, ProblemDefinition, flux,
                       flux_jacobian, manufactured_source, smooth_problem,
                       smooth_product_solution)
from .quadrature import QuadratureRule, simplex_rule
from .solvers import (Ilu0, LinearSolveResult, LinearSolverConfig,
                      NewtonConfig, SolveStats, gmres, linear_solve,
                      newton_solve, random_initial_guess, solve_adjoint)
from .spaces import (FeFunction, FeSpace, error_norms, inject, interpolate,
                     tabulate_shape, transfer, zero_function)

__version__ = "0.1.0"
