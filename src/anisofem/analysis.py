"""Error norms against manufactured solutions, the convergence indicator and
assorted diagnostics.

All error integrals use the 15-point degree-5 tet rule.  For the polynomial
benchmark solution the squared-error integrands reach degree 10, so the rule
is slightly inexact there; the reference tables this harness reproduces were
generated with the same rule, and matching that procedure is worth more than
squeezing out the last digits.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .elements import cr_gradients, cr_interpolate_pointwise
from .geometry import (barycentric_gradients, element_volumes, per_block,
                       tet_geometry)
from .mesh import Mesh
from .quadrature import (mean, sample, tet_rule_degree2, tet_rule_degree5,
                         tri_rule_midpoint3)
from .system import Field

_RULE5 = tet_rule_degree5()


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution u, its gradient, the right-hand side f = -Laplace(u),
    and the constant the reported errors are divided by."""

    u: callable
    grad_u: callable
    f: callable
    hess_diag_l2: float   # || (u_xx, u_yy, u_zz) ||_L2, the table normaliser


def _p(t):
    return t * (1.0 - t)


def cube_polynomial_case():
    """u = x(1-x) y(1-y) z(1-z) on the unit cube with homogeneous data.

    The benchmark tables normalise errors by the L2 norm of the vector of
    pure second derivatives (u_xx, u_yy, u_zz), which is sqrt(1/75).
    """
    u = lambda x, y, z: _p(x) * _p(y) * _p(z)
    grad_u = lambda x, y, z: np.stack([
        (1.0 - 2.0 * x) * _p(y) * _p(z),
        _p(x) * (1.0 - 2.0 * y) * _p(z),
        _p(x) * _p(y) * (1.0 - 2.0 * z),
    ], axis=-1)
    f = lambda x, y, z: 2.0 * (_p(y) * _p(z) + _p(x) * _p(z) + _p(x) * _p(y))
    return ManufacturedCase(u=u, grad_u=grad_u, f=f,
                            hess_diag_l2=math.sqrt(Fraction(1, 75)))


def l2_error(mesh, field, u_exact, rule=None):
    """Elementwise L2 distance between a field and an exact scalar solution.

    For rt0 fields the piecewise-constant cell part is compared.
    """
    rule = rule or _RULE5

    def block(s):
        exact, vols = sample(rule, mesh.tet_vertices(s), u_exact)
        values = (field.cell_coeffs[s, None] if field.space == "rt0"
                  else field.element_values(rule.points, s))
        return vols, np.einsum("q,tq->t", rule.weights, (exact - values) ** 2)

    vols, per_element = per_block(mesh.n_tets, block)
    return math.sqrt(float(vols @ per_element))


def broken_h1_error(mesh, field, grad_exact):
    """Broken H1 seminorm of the error: elementwise || grad u - grad u_h ||.

    For rt0 fields the flux sigma plays the role of the discrete gradient.
    """
    def block(s):
        exact, vols = sample(_RULE5, mesh.tet_vertices(s), grad_exact)
        diff = exact - (field.flux_values(_RULE5.points, s) if field.space == "rt0"
                        else field.element_gradients(s)[:, None, :])
        return vols, np.einsum("q,tqd,tqd->t", _RULE5.weights, diff, diff)

    vols, per_element = per_block(mesh.n_tets, block)
    return math.sqrt(float(vols @ per_element))


def field_l2_norm(mesh, field):
    """L2 norm of a piecewise-linear field itself (exact, degree-2 rule)."""
    return l2_error(mesh, field, lambda x, y, z: np.zeros_like(x),
                    tet_rule_degree2())


def broken_h1_norm(mesh, field):
    """Broken H1 seminorm of a piecewise-linear field (exact)."""
    g = field.element_gradients()
    return math.sqrt(float(element_volumes(mesh) @ np.einsum("td,td->t", g, g)))


def discrete_poincare_ratio(mesh, field):
    """||phi|| / |phi|_H1 for a nonzero CR field; a bounded-constant probe."""
    if field.space != "cr":
        raise ValueError("the ratio diagnostic expects a CR field")
    seminorm = broken_h1_norm(mesh, field)
    if seminorm == 0.0:
        raise ValueError("zero field has no Poincare ratio")
    return field_l2_norm(mesh, field) / seminorm


def convergence_indicator(errors):
    """Observed orders r_k = log2(e_{k-1} / e_k) for errors under halving."""
    errors = [float(e) for e in errors]
    if any(e <= 0.0 for e in errors):
        raise ValueError("convergence indicator needs positive errors")
    return [math.log2(errors[k - 1] / errors[k]) for k in range(1, len(errors))]


def global_cr_interpolant(mesh, u_exact):
    """Face-mean CR interpolant of a continuous function as a global Field."""
    coeffs = mean(tri_rule_midpoint3(), mesh.vertices[mesh.faces.vertices], u_exact)
    return Field("cr", mesh, coeffs)


# ---------------------------------------------------------------------------
# the flat-tet interpolation counterexample


def sliver_tet(n, gamma=1.5):
    """The reference sliver: (0,0,0), (h,0,0), (h/2, h^gamma, 0),
    (h/2, 0, h/2) with h = 1/n.  Its anisotropy measure decays like
    h^(2-gamma) while its diameter is h."""
    h = 1.0 / n
    return np.array([
        [0.0, 0.0, 0.0],
        [h, 0.0, 0.0],
        [h / 2.0, h ** gamma, 0.0],
        [h / 2.0, 0.0, h / 2.0],
    ])


def sliver_interp_row(n, gamma=1.5):
    """One row of the interpolation-error demo: (h, H_T, err).

    err is the H1 seminorm of phi - I(phi) for phi = x^2 + y^2 + z^2 and the
    face-barycentre CR interpolant, normalised by the H2 seminorm of phi.
    Both integrals are sampled at the four tet vertices with weights |T|/4;
    the benchmark table was generated with that sampling, and on coarse
    slivers it sits up to 25% above the exact integral.  H_T is the
    opposite-edge-pair anisotropy measure, matching the same table.
    """
    verts = sliver_tet(n, gamma)
    mesh = Mesh(verts.copy(), np.array([[0, 1, 2, 3]]))
    aniso = tet_geometry(mesh, 0).aniso_opposite
    coeffs = cr_interpolate_pointwise(verts, lambda x, y, z: x ** 2 + y ** 2 + z ** 2)
    grad_interp = coeffs @ cr_gradients(barycentric_gradients(mesh)[0])

    grad_err_sq = ((2.0 * verts - grad_interp) ** 2).sum(axis=1).mean()
    hess_sq = 12.0  # phi has pure second derivatives (2, 2, 2)
    return 1.0 / n, aniso, math.sqrt(grad_err_sq / hess_sq)
