"""Matrix-free isogeometric Galerkin solver with weighted quadrature.

Tensor-product B-spline discretizations of -div(K grad u) + alpha u = f on
single-patch geometries, with three assembly routes (matrix-free weighted
quadrature, explicitly assembled weighted quadrature, standard Gaussian
quadrature), a fast-diagonalization preconditioner and Krylov solvers.
"""

from .splines import (KnotVector, TensorSpace, collocation_matrix,
                      make_uniform_knots, tensor_space)
from .kron import CostMeter, kron_apply, tensor_grid
from .wq import (EXACTNESS_TOL, TensorRule, WQConstructionError, WQRule1D,
                 build_tensor_rule, build_wq_rule, exact_grams,
                 gauss_points_weights, gauss_tensor_rule, wq_points)
from .geometry import (DegenerateGeometryError, GeometryMap, extrude,
                       identity_map, pullback, quarter_ring_map,
                       quarter_ring_rational_map)
from .operators import (MassOperator, StiffnessOperator, coefficient_grids,
                        setup_mass, setup_stiffness, wq_load_vector, wq_terms)
from .assembly import (AssembledMatrix, MemoryGuardError, assemble_rhs,
                       assemble_sgq, assemble_wq_explicit,
                       estimate_matrix_nnz, kron_materialize)
from .solvers import (FDPreconditioner, IndefiniteOperatorError, KrylovReport,
                      bicgstab, cg, stopping_tolerance)
from .problems import (ManufacturedCase, QUARTER_RING_H1_REFERENCE,
                       cube_sine_case, h1_relative_error, l2_relative_error,
                       oscillating_case, relative_errors)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
