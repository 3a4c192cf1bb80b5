"""Finite elements for the Poisson problem on anisotropic tetrahedral meshes:
P1-Lagrange, nonconforming Crouzeix-Raviart and lowest-order Raviart-Thomas
discretisations, an anisotropy measure replacing shape-regularity, and the
bubble-based equivalence between the enriched CR and RT0 mixed solutions.
"""

from .analysis import (ManufacturedCase, broken_h1_error, converge_row,
                       convergence_indicator, cube_polynomial_case,
                       discrete_poincare_ratio, error_norms, l2_error,
                       sliver_interp_row, sliver_tet)
from .elements import (cr_interpolate, cr_interpolate_pointwise,
                       local_commuting_check, p0_project, rt_interpolate)
from .equivalence import (bubble_eval, bubble_grad, bubble_identities,
                          bubble_spread, enriched_cr_solve, marini_reconstruct)
from .geometry import (TetGeometry, barycentric_coords, element_volumes,
                       global_metrics, simplex_measure, tet_geometry)
from .mesh import FaceTable, Mesh, build_face_table, generate_aniso_cube
from .quadrature import (QuadratureRule, integrate, tet_rule_degree2,
                         tet_rule_degree5, tri_rule_midpoint3)
from .system import (Field, SolverError, SparseSystem, assemble_cr, assemble_p1,
                     assemble_rt0_mixed, rt0_mass_matrix, solve_saddle,
                     solve_spd)

__version__ = "0.1.0"
