"""Error norms against manufactured solutions, one row of a convergence
study, the convergence indicator and assorted diagnostics.

All error integrals use the 15-point degree-5 tet rule.  For the polynomial
benchmark solution the squared-error integrands reach degree 10, so the rule
is slightly inexact there; the reference tables this harness reproduces were
generated with the same rule, and matching that procedure is worth more than
squeezing out the last digits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elements import cr_gradients, cr_interpolate_pointwise, p0_project
from .equivalence import enriched_cr_solve, marini_reconstruct
from .geometry import (affine_field, dot, element_volumes, per_block,
                       tet_geometry, tet_gradients)
from .quadrature import (map_points, mean, tet_rule_degree2, tet_rule_degree5,
                         tri_rule_midpoint3)
from .system import Field, assemble_cr, assemble_p1, solve_spd

_RULE5 = tet_rule_degree5()


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution u alone and with its gradient, the right-hand side
    f = -Laplace(u), and the constant the reported errors are divided by."""

    u: callable           # (x, y, z) -> u, the bits of solution's first part
    solution: callable    # (x, y, z) -> (u, grad u), grad along a last axis of 3
    f: callable
    hess_diag_l2: float   # || (u_xx, u_yy, u_zz) ||_L2, the table normaliser

    def grad_u(self, x, y, z):
        return self.solution(x, y, z)[1]


def _p(t):
    return t * (1.0 - t)


def cube_polynomial_case():
    """u = x(1-x) y(1-y) z(1-z) on the unit cube with homogeneous data.

    The benchmark tables normalise errors by the L2 norm of the vector of
    pure second derivatives (u_xx, u_yy, u_zz), which is sqrt(1/75).
    """
    def u(x, y, z):
        return _p(x) * _p(y) * _p(z)  # (px py) pz, as in solution

    def solution(x, y, z):
        px, py, pz = _p(x), _p(y), _p(z)
        pxy = px * py
        grad = np.empty(np.shape(pxy) + (3,), order="F")  # planes, as the points
        np.multiply((1.0 - 2.0 * x) * py, pz, out=grad[..., 0])
        np.multiply(px * (1.0 - 2.0 * y), pz, out=grad[..., 1])
        np.multiply(pxy, 1.0 - 2.0 * z, out=grad[..., 2])
        return pxy * pz, grad

    def f(x, y, z):
        px, py, pz = _p(x), _p(y), _p(z)
        return 2.0 * (py * pz + px * pz + px * py)
    return ManufacturedCase(u, solution, f, hess_diag_l2=math.sqrt(1 / 75))


def error_norms(mesh, field, solution, rule=None):
    """(broken H1, L2) distance between a field and an exact solution, from
    one pass over the elements: per block, one vertex gather, one map of the
    rule's points, one measure check and one call ``solution(x, y, z)`` ->
    (u, grad u).  Either part may be None, which skips its norm (None too).

    The broken H1 part is the elementwise || grad u - grad u_h ||.  For rt0
    fields the flux sigma plays the role of the discrete gradient, and the
    piecewise-constant cell part is compared in L2.
    """
    rule = rule or _RULE5

    def block(s):
        v = mesh.tet_vertices(s)
        points, vols = map_points(rule, v)
        u, grad = solution(*np.moveaxis(points, -1, 0))
        h1 = l2 = None
        if u is not None:
            values = (field.cell_coeffs[s, None] if field.space == "rt0"
                      else field.element_values(rule.points, s))
            l2 = np.einsum("q,tq->t", rule.weights, (u - values) ** 2)
            del u, values  # not held through the larger H1 temporaries
        if grad is not None:
            diff = grad - (
                affine_field(*field.flux_affine(s, v), points) if field.space == "rt0"
                else field.element_gradients(s, v)[:, None, :])
            h1 = np.einsum("q,tqd,tqd->t", rule.weights, diff, diff)
        return vols, h1, l2

    vols, *squares = per_block(mesh.n_tets, block)
    return tuple(None if e is None else math.sqrt(float(vols @ e)) for e in squares)


def converge_row(element, mesh, case, rhs="exact-f", tol=1e-10):
    """One row of a convergence study: (field, dofs, err_h1, err_l2) of the
    ``element`` ('p1', 'cr' or 'rt') solution of ``case`` on ``mesh``, the
    errors from one ``error_norms`` sweep divided by ``case.hess_diag_l2``.
    ``rhs`` is the p1/cr load, 'exact-f' or the cell means 'projected-f';
    rt always takes the cell means.
    """
    if element == "rt":
        # the mixed solution is rebuilt from the enriched CR one
        cr, gamma = enriched_cr_solve(mesh, case.f, tol=tol)
        field, _ = marini_reconstruct(mesh, cr, gamma)
        dofs = len(cr.coeffs) + mesh.n_tets  # faces + cells
    else:
        data = (p0_project(mesh.tet_vertices(), case.f)
                if rhs == "projected-f" else case.f)
        assemble = {"p1": assemble_p1, "cr": assemble_cr}[element]
        field = solve_spd(assemble(mesh, data), tol=tol)
        dofs = len(field.coeffs)  # vertices (p1), faces (cr)
    err_h1, err_l2 = (e / case.hess_diag_l2
                      for e in error_norms(mesh, field, case.solution))
    return field, dofs, err_h1, err_l2


def l2_error(mesh, field, u_exact, rule=None):
    """Elementwise L2 distance between a field and an exact scalar solution.

    For rt0 fields the piecewise-constant cell part is compared.
    """
    return error_norms(mesh, field, lambda x, y, z: (u_exact(x, y, z), None),
                       rule)[1]


def broken_h1_error(mesh, field, grad_exact):
    """Broken H1 seminorm of the error: elementwise || grad u - grad u_h ||.

    For rt0 fields the flux sigma plays the role of the discrete gradient.
    """
    return error_norms(mesh, field, lambda x, y, z: (None, grad_exact(x, y, z)))[0]


def field_l2_norm(mesh, field):
    """L2 norm of a piecewise-linear field itself (exact, degree-2 rule)."""
    return l2_error(mesh, field, lambda x, y, z: np.zeros_like(x),
                    tet_rule_degree2())


def broken_h1_norm(mesh, field):
    """Broken H1 seminorm of a piecewise-linear field (exact)."""
    g = field.element_gradients()
    return math.sqrt(float(element_volumes(mesh) @ dot(g, g)))


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
    coeffs = mean(tri_rule_midpoint3(), mesh.vertices[mesh.face_vertices()], u_exact)
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
    aniso = tet_geometry(verts).aniso_opposite
    coeffs = cr_interpolate_pointwise(verts, lambda x, y, z: x ** 2 + y ** 2 + z ** 2)
    grad_interp = coeffs @ cr_gradients(tet_gradients(verts))

    grad_err_sq = ((2.0 * verts - grad_interp) ** 2).sum(axis=1).mean()
    hess_sq = 12.0  # phi has pure second derivatives (2, 2, 2)
    return 1.0 / n, aniso, math.sqrt(grad_err_sq / hess_sq)
