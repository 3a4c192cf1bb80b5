"""Elementwise quadratic bubbles and the closed-form reconstruction that turns
a Crouzeix-Raviart solve with projected data into the RT0 mixed solution.

On a tet with barycentre x_T and vertex spread L = sum_i |x_i - x_T|^2 the
bubble is phi_T(x) = L - 12 |x - x_T|^2.  Its face means vanish, its mean is
2L/5 and the mean of |grad phi_T|^2 is 144L/5; consequently the bubble block
of the enriched CR problem decouples, each bubble coefficient is
gamma_T = (mean of f over T) / 72, and the mixed solution is recovered
elementwise from the CR one:

    sigma|_T = grad u_CR - (1/3) f_T (x - x_T)
    u|_T     = mean(u_CR) + (1/180) f_T L
"""

import numpy as np

from .geometry import element_volumes
from .mesh import face_traces
from .quadrature import (integrate, simplex_measure, tet_rule_degree2,
                         tet_rule_degree5)
from .system import Field, assemble_cr, solve_spd, _element_loads

_RULE2 = tet_rule_degree2()


def bubble_spread(vertices):
    """L: sum of squared vertex distances to the barycentre."""
    vertices = np.asarray(vertices, dtype=float)
    return float(((vertices - vertices.mean(axis=0)) ** 2).sum())


def bubble_eval(vertices, points):
    vertices = np.asarray(vertices, dtype=float)
    points = np.atleast_2d(points)
    centre = vertices.mean(axis=0)
    return bubble_spread(vertices) - 12.0 * ((points - centre) ** 2).sum(axis=1)


def bubble_grad(vertices, points):
    vertices = np.asarray(vertices, dtype=float)
    points = np.atleast_2d(points)
    return -24.0 * (points - vertices.mean(axis=0))


def bubble_identities(vertices):
    """(mean of phi_T, mean of |grad phi_T|^2) over the tet.

    Computed with the degree-2 rule, whose integrands here are quadratic, so
    the returned values must equal 2L/5 and 144L/5 exactly.
    """
    vertices = np.asarray(vertices, dtype=float)
    volume = simplex_measure(vertices)
    mean = integrate(
        _RULE2, vertices,
        lambda x, y, z: bubble_eval(vertices, np.stack([x, y, z], axis=-1)),
    ) / volume
    grad_sq = integrate(
        _RULE2, vertices,
        lambda x, y, z: (bubble_grad(vertices, np.stack([x, y, z], axis=-1)) ** 2
                         ).sum(axis=1),
    ) / volume
    return float(mean), float(grad_sq)


def enriched_cr_solve(mesh, f, tol=1e-10):
    """Solve the CR problem with projected data and split off the bubbles.

    The CR block and the bubble block of the enriched space are orthogonal in
    the broken H1 product, so the CR part solves the plain system with
    right-hand side (P0 f, theta_i) and the bubble coefficients come per
    element as gamma_T = (mean of f) / 72.  Returns (cr field, gamma array).
    """
    system = assemble_cr(mesh, f, rhs_mode="projected-f")
    cr = solve_spd(system, tol=tol)
    _, f_int = _element_loads(mesh, f, tet_rule_degree5())
    gamma = f_int / element_volumes(mesh) / 72.0
    return cr, gamma


def marini_reconstruct(mesh, cr_field, f, bubble_stiffness=72.0):
    """Rebuild the RT0 mixed solution from a CR solve with projected data.

    Returns (rt0 field, max_flux_mismatch).  The flux coefficient of every
    face is the face mean of sigma . n_F; the mismatch is the largest
    disagreement between the values computed from the two incident tets and
    certifies (when small) that the reconstruction is H(div)-conforming.
    ``bubble_stiffness`` rescales the elementwise correction and exists as a
    fault-injection hook for the verification suite; 72 is the correct value.

    Raises ValueError when the field does not live on ``mesh`` or is not a
    CR field.
    """
    if cr_field.space != "cr" or cr_field.mesh is not mesh:
        raise ValueError("marini_reconstruct needs a CR field on the same mesh")
    v = mesh.tet_vertices()
    vols = element_volumes(mesh)
    _, f_int = _element_loads(mesh, f, tet_rule_degree5())
    fbar = f_int / vols

    centres = v.mean(axis=1)
    # sigma = grad u_CR + slope (x - x_T) is affine; the two candidates of an
    # interior face disagree by the conformity defect
    slope = -24.0 * fbar / bubble_stiffness                   # = -fbar/3 at 72
    flux, mismatch = face_traces(
        mesh, slope, slope[:, None] * centres - cr_field.element_gradients())

    spread = ((v - centres[:, None, :]) ** 2).sum(axis=(1, 2))
    cell_mean = cr_field.element_coeffs().sum(axis=1) / 4.0
    cell = cell_mean + fbar * spread * 2.0 / (5.0 * bubble_stiffness)  # = /180 at 72
    rt = Field("rt0", mesh, flux, cell_coeffs=cell,
               solve_info=dict(cr_field.solve_info))
    return rt, mismatch
