"""Local shape functions and the four local interpolation operators: the
piecewise-constant projection, the two Crouzeix-Raviart interpolants (face
mean and face barycentre flavours) and the lowest-order Raviart-Thomas
interpolant, on one tet (4, 3) or a stack of tets (..., 4, 3).

Each local element is written once.  The CR basis theta_i = 1 - 3 lambda_i is
``cr_shape`` and its gradient ``cr_gradients``; the assembler, ``Field``, the
sliver demo and the identity suite call them.  An RT0 field sum_i c_i psi_i,
psi_i = |F_i|/(3|T|) (x - x_i), is the affine sigma = a x - b of
``geometry.rt0_affine``; lambda is ``geometry.barycentric_coords``.
"""

import numpy as np

from .geometry import (LOCAL_FACES, affine_field, barycentric_coords, dot,
                       face_geometry, per_block, rt0_affine)
from .quadrature import mean, tet_rule_degree5, tri_rule_midpoint3

_TRI_RULE = tri_rule_midpoint3()
_TET_RULE5 = tet_rule_degree5()


def cr_shape(bary):
    """Crouzeix-Raviart basis theta_i = 1 - 3 lambda_i at barycentric
    coordinates (..., 4).  theta_i is identically 1 on face i (the face
    opposite vertex i) and has face mean delta_ij over face j."""
    return 1.0 - 3.0 * np.asarray(bary)


def cr_gradients(bary_gradients):
    """Gradients of the CR basis from the barycentric gradients (..., 4, 3)."""
    return -3.0 * bary_gradients


def p0_project(vertices, f):
    """Mean value of ``f`` over each tet, by the degree-5 rule; a stack of
    tets is sampled in blocks along its first axis (``geometry.per_block``),
    so ``f`` is called once per block."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim == 2:
        return mean(_TET_RULE5, vertices, f)
    return per_block(len(vertices), lambda s: mean(_TET_RULE5, vertices[s], f))


def cr_interpolate(vertices, f):
    """Face-mean Crouzeix-Raviart coefficients of a scalar field, (..., 4).

    Coefficient i is the mean of f over face i, computed with the midpoint
    triangle rule (exact for quadratics).  P1 functions are reproduced.  A
    vector-valued f gives one mean vector per face.  ``f`` sees the points of
    all faces of all tets in one call, as in ``quadrature.integrate``.
    """
    return mean(_TRI_RULE, np.asarray(vertices, dtype=float)[..., LOCAL_FACES, :], f)


def cr_interpolate_pointwise(vertices, f):
    """Crouzeix-Raviart coefficients sampled at the four face barycentres."""
    centres = face_geometry(np.asarray(vertices, dtype=float))[2]
    return np.asarray(f(*np.moveaxis(centres, -1, 0)), dtype=float)


def rt_interpolate(vertices, v):
    """Raviart-Thomas coefficients (..., 4): the face means of ``v`` (as in
    ``cr_interpolate``) dotted with the outward face normals."""
    vertices = np.asarray(vertices, dtype=float)
    return dot(cr_interpolate(vertices, v), face_geometry(vertices)[1])


def cr_eval(vertices, coeffs, points):
    """Local CR functions with face coefficients (..., 4) at points
    (..., n, 3), shape (..., n)."""
    shape = cr_shape(barycentric_coords(vertices, points))
    return np.einsum("...ni,...i->...n", shape, np.asarray(coeffs))


def rt_eval(vertices, coeffs, points):
    """Local RT0 fields with flux coefficients (..., 4) at points (..., n, 3),
    shape (..., n, 3)."""
    a, b = rt0_affine(vertices, coeffs)
    return affine_field(a, b, np.atleast_2d(points))


def local_commuting_check(vertices, v, div_v):
    """Both sides of the commuting identity div(I^RT v) = P0(div v) on each tet
    of a stack (..., 4, 3); one tet (4, 3) gives two scalars.

    ``div_v`` supplies the divergence of ``v`` so the right side comes from an
    honest volume quadrature rather than from the flux integrals that define
    the left side, the divergence 3a of the interpolant.  Exact agreement
    requires div v polynomial of degree <= 5.
    """
    rhs = p0_project(vertices, div_v)
    return 3.0 * rt0_affine(vertices, rt_interpolate(vertices, v))[0], rhs
