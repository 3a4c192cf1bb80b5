"""Local shape functions and the four local interpolation operators: the
piecewise-constant projection, the two Crouzeix-Raviart interpolants (face
mean and face barycentre flavours) and the lowest-order Raviart-Thomas
interpolant.
"""

import numpy as np

from .geometry import (LOCAL_FACES, barycentric_coefficients, face_geometry,
                       rt0_scales)
from .quadrature import (integrate, simplex_measure, tet_rule_degree2,
                         tet_rule_degree5, tri_rule_midpoint3)

_TRI_RULE = tri_rule_midpoint3()
_TET_RULE5 = tet_rule_degree5()
_TET_RULE2 = tet_rule_degree2()


class BarycentricMap:
    """Affine map from points to barycentric coordinates of one tet."""

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        self._coef = barycentric_coefficients(self.vertices[None])[0]

    def coords(self, points):
        """Barycentric coordinates, (n, 4) for points of shape (n, 3)."""
        points = np.atleast_2d(points)
        return points @ self._coef[:3] + self._coef[3]

    @property
    def gradients(self):
        """Constant gradients of the barycentric coordinates, (4, 3)."""
        return self._coef[:3].T


class CRBasis:
    """Crouzeix-Raviart basis theta_i = 1 - 3 lambda_i on one tet.

    theta_i is identically 1 on face i (the face opposite vertex i) and has
    face mean delta_ij over face j.
    """

    def __init__(self, vertices):
        self.map = BarycentricMap(vertices)

    def values(self, points):
        return 1.0 - 3.0 * self.map.coords(points)

    @property
    def gradients(self):
        return -3.0 * self.map.gradients


class RT0Basis:
    """Lowest-order Raviart-Thomas basis psi_i = |F_i|/(3|T|) (x - x_i).

    The normal-mean functionals chi_j(v) = (1/|F_j|) int_{F_j} v . n_j with
    outward normals n_j satisfy chi_j(psi_i) = delta_ij, and div psi_i is the
    constant |F_i|/|T|.
    """

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        self.volume = simplex_measure(self.vertices)
        areas, normals, _ = face_geometry(self.vertices[None])
        self.face_areas, self.normals = areas[0], normals[0]
        self._scales = rt0_scales(areas, self.volume)[0]

    def values(self, points):
        """(n, 4, 3) array of the four basis fields at each point."""
        points = np.atleast_2d(points)
        d = points[:, None, :] - self.vertices[None, :, :]
        return d * self._scales[None, :, None]

    @property
    def divergences(self):
        return self.face_areas / self.volume

    def dof(self, v):
        """chi functionals of a vector field ``v(x, y, z) -> (n, 3)``: the
        normal components of its face means."""
        return np.einsum("id,id->i", cr_interpolate(self.vertices, v),
                         self.normals)


def p0_project(vertices, f):
    """Mean value of ``f`` over the tet, by the degree-5 rule."""
    return integrate(_TET_RULE5, vertices, f) / simplex_measure(vertices)


def cr_interpolate(vertices, f):
    """Face-mean Crouzeix-Raviart coefficients of a scalar field.

    Coefficient i is the mean of f over face i, computed with the midpoint
    triangle rule (exact for quadratics).  P1 functions are reproduced.  A
    vector-valued f gives one mean vector per face.
    """
    vertices = np.asarray(vertices, dtype=float)
    return np.stack([integrate(_TRI_RULE, vertices[face], f)
                     / simplex_measure(vertices[face]) for face in LOCAL_FACES])


def cr_interpolate_pointwise(vertices, f):
    """Crouzeix-Raviart coefficients sampled at the four face barycentres."""
    centres = face_geometry(np.asarray(vertices, dtype=float)[None])[2][0]
    return np.asarray(f(centres[:, 0], centres[:, 1], centres[:, 2]), dtype=float)


def rt_interpolate(vertices, v):
    """Raviart-Thomas coefficients: face-mean normal fluxes of ``v``."""
    return RT0Basis(vertices).dof(v)


def cr_eval(vertices, coeffs, points):
    """Evaluate a local CR function with the given face coefficients."""
    return CRBasis(vertices).values(points) @ np.asarray(coeffs)


def rt_eval(vertices, coeffs, points):
    """Evaluate a local RT0 field with the given flux coefficients, (n, 3)."""
    return np.einsum("i,nid->nd", np.asarray(coeffs), RT0Basis(vertices).values(points))


def local_commuting_check(vertices, v, div_v):
    """Both sides of the commuting identity div(I^RT v) = P0(div v) on one tet.

    ``div_v`` supplies the divergence of ``v`` so the right side comes from an
    honest volume quadrature rather than from the flux integrals that define
    the left side.  Exact agreement requires div v polynomial of degree <= 5.
    """
    basis = RT0Basis(vertices)
    coeffs = basis.dof(v)
    lhs = float(coeffs @ basis.divergences)
    rhs = float(p0_project(vertices, div_v))
    return lhs, rhs
