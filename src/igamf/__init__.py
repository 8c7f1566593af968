"""Matrix-free isogeometric Galerkin solver with weighted quadrature.

Tensor-product B-spline discretizations of -div(K grad u) + alpha u = f on
single-patch geometries, with three assembly routes (matrix-free weighted
quadrature, explicitly assembled weighted quadrature, standard Gaussian
quadrature), a fast-diagonalization preconditioner and Krylov solvers.
"""

from .splines import (KnotVector, TensorSpace, collocation_matrix,
                      make_uniform_knots, multi_to_scalar, scalar_to_multi,
                      tensor_space)
from .kron import CostMeter, kron_apply, kron_materialize, tensor_grid
from .wq import (EXACTNESS_TOL, TensorRule, WQConstructionError, WQRule1D,
                 build_tensor_rule, build_wq_rule, exact_gram,
                 gauss_points_weights, wq_points, wq_weights)
from .geometry import (DegenerateGeometryError, GeometryMap, affine_map,
                       identity_map, pullback, quarter_ring_map,
                       quarter_ring_rational_map, spline_control_net_map)
from .operators import (COEFF_EVAL_FLOPS, MassOperator, StiffnessOperator,
                        coefficient_grids, setup_mass, setup_stiffness,
                        wq_terms)
from .assembly import (AssembledMatrix, MemoryGuardError, assemble_rhs,
                       assemble_sgq, assemble_wq_explicit,
                       estimate_matrix_nnz, max_row_nnz)
from .solvers import (FDPreconditioner, IndefiniteOperatorError, KrylovReport,
                      bicgstab, cg, stopping_tolerance,
                      univariate_parametric_matrices)
from .problems import (ManufacturedCase, QUARTER_RING_H1_REFERENCE,
                       cube_sine_case, h1_relative_error, l2_relative_error,
                       oscillating_case)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
