"""Elementwise quadratic bubbles, the enriched Crouzeix-Raviart solve and the
closed-form reconstruction that turns its solution into the RT0 mixed one.

On a tet with barycentre x_T and vertex spread L = sum_i |x_i - x_T|^2 the
bubble is phi_T(x) = L - 12 |x - x_T|^2.  Its face means vanish, its mean is
2L/5 and the mean of |grad phi_T|^2 is 144L/5; consequently the bubble block
of the enriched CR problem decouples, each bubble coefficient is
gamma_T = f_T / 72 with f_T the mean of f over T, and the mixed solution is
the gradient and the mean of the enriched one, elementwise:

    sigma|_T = grad u_CR + gamma_T grad phi_T = grad u_CR - 24 gamma_T (x - x_T)
    u|_T     = mean(u_CR) + gamma_T mean(phi_T) = mean(u_CR) + (2/5) gamma_T L
"""

import numpy as np

from .elements import p0_project
from .geometry import per_block
from .mesh import face_traces
from .quadrature import mean, tet_rule_degree2
from .system import Field, assemble_cr, solve_spd

_RULE2 = tet_rule_degree2()


def bubble_spread(vertices):
    """L: sum of squared vertex distances to the barycentre, per tet of a
    stack (..., 4, 3)."""
    vertices = np.asarray(vertices, dtype=float)
    squares = (vertices - vertices.mean(axis=-2, keepdims=True)) ** 2
    # the 12 squares of a tet summed in C order, in any layout of the stack
    return squares.reshape(squares.shape[:-2] + (12,)).sum(axis=-1)


def bubble_eval(vertices, points):
    """phi_T at points (..., n, 3) of the tets (..., 4, 3), shape (..., n)."""
    vertices = np.asarray(vertices, dtype=float)
    centre = vertices.mean(axis=-2, keepdims=True)
    return (np.expand_dims(bubble_spread(vertices), -1)
            - 12.0 * ((np.atleast_2d(points) - centre) ** 2).sum(axis=-1))


def bubble_grad(vertices, points):
    """grad phi_T at points (..., n, 3) of the tets (..., 4, 3)."""
    vertices = np.asarray(vertices, dtype=float)
    return -24.0 * (np.atleast_2d(points) - vertices.mean(axis=-2, keepdims=True))


def bubble_identities(vertices):
    """(mean of phi_T, mean of |grad phi_T|^2) over each tet of a stack.

    Computed with the degree-2 rule, whose integrands here are quadratic, so
    the returned values must equal 2L/5 and 144L/5 exactly.
    """
    vertices = np.asarray(vertices, dtype=float)

    def per_tet(fn):
        return lambda x, y, z: fn(np.stack([x, y, z], axis=-1))

    return (mean(_RULE2, vertices, per_tet(lambda p: bubble_eval(vertices, p))),
            mean(_RULE2, vertices, per_tet(
                lambda p: (bubble_grad(vertices, p) ** 2).sum(axis=-1))))


def enriched_cr_solve(mesh, f, tol=1e-10, bubble_stiffness=72.0):
    """Solve the CR problem enriched by one bubble per tet, with projected data.

    f is sampled once per tet, for its cell means f_T.  The CR block and the bubble
    block are orthogonal in the broken H1 product, so the CR part solves the
    plain system with cell-mean data and each bubble coefficient is
    gamma_T = f_T / 72, the bubble's load over its stiffness.
    ``bubble_stiffness`` replaces the 72 and exists as a fault-injection hook
    for the verification suite.  Returns (cr field, gamma array).
    """
    fbar = p0_project(mesh.tet_vertices(), f)
    cr = solve_spd(assemble_cr(mesh, fbar), tol=tol)
    return cr, fbar / bubble_stiffness


def marini_reconstruct(mesh, cr_field, gamma):
    """Rebuild the RT0 mixed solution from the enriched CR solution: the CR
    field and the bubble coefficients gamma (nt,) of ``enriched_cr_solve``.

    Returns (rt0 field, max_flux_mismatch).  The flux coefficient of every
    face is the face mean of sigma . n_F; the mismatch is the largest
    disagreement between the values computed from the two incident tets and
    certifies (when small) that the reconstruction is H(div)-conforming.

    Raises ValueError when the field does not live on ``mesh`` or is not a
    CR field.
    """
    if cr_field.space != "cr" or cr_field.mesh is not mesh:
        raise ValueError("marini_reconstruct needs a CR field on the same mesh")
    # sigma = grad u_CR + slope (x - x_T) = slope x - b is affine; the two
    # candidates of an interior face disagree by the conformity defect
    slope = -24.0 * gamma

    def block(s):
        v = mesh.tet_vertices(s)
        return (slope[s, None] * v.mean(axis=1) - cr_field.element_gradients(s, v),
                cr_field.element_coeffs(s).sum(axis=1) / 4.0
                + 0.4 * gamma[s] * bubble_spread(v))

    b, cell = per_block(mesh.n_tets, block)
    flux, mismatch = face_traces(mesh, slope, b)
    rt = Field("rt0", mesh, flux, cell_coeffs=cell,
               solve_info=dict(cr_field.solve_info))
    return rt, mismatch
