"""Local shape functions and the four local interpolation operators: the
piecewise-constant projection, the two Crouzeix-Raviart interpolants (face
mean and face barycentre flavours) and the lowest-order Raviart-Thomas
interpolant.
"""

import numpy as np

from .geometry import (LOCAL_FACES, barycentric_coefficients, face_geometry,
                       rt0_scales)
from .quadrature import mean, simplex_measure, tet_rule_degree5, tri_rule_midpoint3

_TRI_RULE = tri_rule_midpoint3()
_TET_RULE5 = tet_rule_degree5()


class BarycentricMap:
    """Affine map from points to barycentric coordinates of one tet (4, 3) or
    of a stack of tets (..., 4, 3)."""

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        self._coef = barycentric_coefficients(self.vertices)

    def coords(self, points):
        """Barycentric coordinates, (..., n, 4) for points of shape (..., n, 3)."""
        points = np.atleast_2d(points)
        return points @ self._coef[..., :3, :] + self._coef[..., 3, None, :]

    @property
    def gradients(self):
        """Constant gradients of the barycentric coordinates, (..., 4, 3)."""
        return np.swapaxes(self._coef[..., :3, :], -1, -2)


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
    constant |F_i|/|T|.  Built on one tet (4, 3) or a stack (..., 4, 3).
    """

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        self.volume = simplex_measure(self.vertices)
        if np.any(self.volume <= 1e-300):
            raise ValueError("degenerate tet: RT0 basis needs a positive volume")
        self.face_areas, self.normals, _ = face_geometry(self.vertices)
        self._scales = rt0_scales(self.face_areas, self.volume)

    def values(self, points):
        """(..., n, 4, 3) array of the four basis fields at each point."""
        d = np.atleast_2d(points)[..., None, :] - self.vertices[..., None, :, :]
        return d * self._scales[..., None, :, None]

    @property
    def divergences(self):
        return 3.0 * self._scales

    def dof(self, v):
        """chi functionals of a vector field ``v(x, y, z) -> (n, 3)``: the
        normal components of its face means."""
        return np.einsum("...id,...id->...i", cr_interpolate(self.vertices, v),
                         self.normals)


def p0_project(vertices, f):
    """Mean value of ``f`` over each tet, by the degree-5 rule."""
    return mean(_TET_RULE5, vertices, f)


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
    """Both sides of the commuting identity div(I^RT v) = P0(div v) on each tet
    of a stack (..., 4, 3); one tet (4, 3) gives two scalars.

    ``div_v`` supplies the divergence of ``v`` so the right side comes from an
    honest volume quadrature rather than from the flux integrals that define
    the left side.  Exact agreement requires div v polynomial of degree <= 5.
    """
    rhs = p0_project(vertices, div_v)
    basis = RT0Basis(vertices)
    return (basis.dof(v) * basis.divergences).sum(axis=-1), rhs
