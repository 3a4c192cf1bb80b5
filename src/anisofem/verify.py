"""The identity suite behind ``anisofem verify``.  Library functions are
called as module attributes, not imported names, so that wrappers installed
on the modules (the benchmark's tracer) see these calls too."""

import itertools
import math

import numpy as np

from . import analysis, elements, equivalence, geometry, quadrature, system
from . import mesh as meshgen


def identity_checks(flip_rt_signs=False, bubble_stiffness=72.0):
    """Run every identity check; yields (name, max deviation, tolerance)."""
    rng = np.random.default_rng(0)  # fixed: reruns print the same rows

    def random_tet():
        while True:
            v = rng.uniform(-1.0, 1.0, (4, 3))
            if quadrature.simplex_measure(v) > 1e-3:
                return v

    # quadrature exactness against the closed-form simplex monomial integrals
    def bary_moment(exponents, dim):
        num = 1
        for e in exponents:
            num *= math.factorial(e)
        return num * math.factorial(dim) / math.factorial(sum(exponents) + dim)

    for rule, name in [(quadrature.tet_rule_degree2(), "quad_tet_degree2"),
                       (quadrature.tet_rule_degree5(), "quad_tet_degree5")]:
        exponents = list(_monomial_exponents(4, rule.degree))
        dev = 0.0
        for _ in range(100):
            v = random_tet()
            vol = quadrature.simplex_measure(v)
            bmap = elements.BarycentricMap(v)
            for e in exponents:
                got = quadrature.integrate(
                    rule, v,
                    lambda x, y, z: np.prod(
                        bmap.coords(np.stack([x, y, z], axis=-1))
                        ** np.asarray(e), axis=-1))
                exact = bary_moment(e, 3) * vol
                dev = max(dev, abs(got - exact) / max(abs(exact), 1e-300))
        yield name, dev, 1e-12

    rule = quadrature.tri_rule_midpoint3()
    dev = 0.0
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, (3, 3))
        area = quadrature.simplex_measure(v)
        if area < 1e-3:
            continue
        for e in _monomial_exponents(3, 2):
            vals = rule.points ** np.asarray(e)
            got = area * rule.weights @ np.prod(vals, axis=1)
            exact = bary_moment(e, 2) * area
            dev = max(dev, abs(got - exact) / max(abs(exact), 1e-300))
    yield "quad_tri_degree2", dev, 1e-12

    # bubble identities over a generated mesh plus random tets
    mesh = meshgen.generate_aniso_cube(4, 8)
    dev_face = dev_mean = dev_grad = 0.0
    tet_list = list(mesh.tet_vertices()) + [random_tet() for _ in range(20)]
    for v in tet_list:
        spread = equivalence.bubble_spread(v)
        face_means = elements.cr_interpolate(
            v, lambda x, y, z: equivalence.bubble_eval(
                v, np.stack([x, y, z], axis=-1)))
        dev_face = max(dev_face, float(np.abs(face_means).max()) / spread)
        mean, grad_sq = equivalence.bubble_identities(v)
        dev_mean = max(dev_mean, abs(mean - 0.4 * spread) / spread)
        dev_grad = max(dev_grad, abs(grad_sq - 28.8 * spread) / (28.8 * spread))
    yield "bubble_face_means", dev_face, 1e-12
    yield "bubble_volume_mean", dev_mean, 1e-12
    yield "bubble_gradient_mean", dev_grad, 1e-12

    # commuting identity on random quadratic vector fields
    dev = 0.0
    for _ in range(100):
        v = random_tet()
        c = rng.uniform(-1.0, 1.0, (3, 10))
        field, div_field = _random_quadratic_field(c)
        lhs, rhs = elements.local_commuting_check(v, field, div_field)
        dev = max(dev, abs(lhs - rhs) / max(abs(rhs), 1.0))
    yield "commuting_rt_projection", dev, 1e-12

    # duality identity on the small mesh
    mesh22 = meshgen.generate_aniso_cube(2, 2)
    dev = _duality_deviation(mesh22, rng, flip_rt_signs=flip_rt_signs)
    yield "flux_gradient_duality", dev, 1e-11

    yield from equivalence_checks(flip_rt_signs, bubble_stiffness)


def equivalence_checks(flip_rt_signs, bubble_stiffness):
    """Reconstructed against directly solved mixed problem on the 2:2 and 4:8
    meshes, with f-bar computed apart from the reconstruction; yields 5 rows."""
    case = analysis.cube_polynomial_case()
    rule = quadrature.tet_rule_degree5()
    dev_sig = dev_u = dev_div = dev_jump = dev_trace = 0.0
    for m, n in [(2, 2), (4, 8)]:
        msh = meshgen.generate_aniso_cube(m, n)
        cr, _ = equivalence.enriched_cr_solve(msh, case.f, tol=1e-12)
        rt, jump = equivalence.marini_reconstruct(
            msh, cr, case.f, bubble_stiffness=bubble_stiffness)
        direct = system.solve_saddle(
            system.assemble_rt0_mixed(msh, case.f), tol=1e-12)
        mass = system.rt0_mass_matrix(msh)
        vols = geometry.element_volumes(msh)
        dsig = rt.coeffs - direct.coeffs
        dev_sig = max(dev_sig, math.sqrt((dsig @ mass @ dsig)
                                         / (direct.coeffs @ mass @ direct.coeffs)))
        du = rt.cell_coeffs - direct.cell_coeffs
        dev_u = max(dev_u, math.sqrt(float(vols @ du ** 2)
                                     / float(vols @ direct.cell_coeffs ** 2)))
        fbar = system.sample_elements(msh, case.f, rule) @ rule.weights
        dev_div = max(dev_div, float(np.abs(rt.flux_divergence() + fbar).max()))
        dev_jump = max(dev_jump, jump)
        dev_trace = max(dev_trace, _flux_jump_deviation(
            msh, direct, flip_rt_signs=flip_rt_signs))
    yield "marini_sigma_equivalence", dev_sig, 1e-7
    yield "marini_u_equivalence", dev_u, 1e-7
    yield "reconstruction_divergence", dev_div, 1e-11
    yield "reconstruction_normal_jumps", dev_jump, 1e-9
    yield "flux_normal_jumps", dev_trace, 1e-9


def _monomial_exponents(k, degree):
    return (e for e in itertools.product(range(degree + 1), repeat=k)
            if sum(e) <= degree)


def _random_quadratic_field(c):
    def basis(x, y, z):
        return np.stack([np.ones_like(x), x, y, z, x * x, y * y, z * z,
                         x * y, x * z, y * z], axis=-1)

    def field(x, y, z):
        return basis(x, y, z) @ c.T

    def div_field(x, y, z):
        # d/dx of component 0 plus d/dy of 1 plus d/dz of 2
        return (c[0, 1] + 2 * c[0, 4] * x + c[0, 7] * y + c[0, 8] * z
                + c[1, 2] + 2 * c[1, 5] * y + c[1, 7] * x + c[1, 9] * z
                + c[2, 3] + 2 * c[2, 6] * z + c[2, 8] * x + c[2, 9] * y)

    return field, div_field


def _flux_jump_deviation(mesh, field, flip_rt_signs=False):
    """max over interior faces of the two-sided normal-trace disagreement.

    The normal trace of a local RT0 representation on its own face equals the
    signed flux coefficient exactly, so the jump vanishes to rounding when the
    orientation table is intact and blows up to 2|coeff| when it is not.
    """
    faces = mesh.faces
    signs = np.abs(faces.tet_face_signs) if flip_rt_signs else faces.tet_face_signs
    a, b = geometry.rt0_affine(mesh.tet_vertices(),
                               field.coeffs[faces.tet_faces] * signs)
    _, worst = meshgen.face_traces(mesh, a, b)
    return worst / max(float(np.abs(field.coeffs).max()), 1e-300)


def _duality_deviation(mesh, rng, samples=50, flip_rt_signs=False):
    """max |(v, grad_h psi) + (div v, psi)| over random discrete field pairs.

    Each inner product is evaluated elementwise in closed form (the RT0 field
    is affine, the CR gradient constant), so the identity holds to rounding
    for any coefficients respecting the sign convention.  ``flip_rt_signs``
    breaks that convention on purpose.
    """
    faces = mesh.faces
    vols = geometry.element_volumes(mesh)
    grads = -3.0 * geometry.barycentric_gradients(mesh)
    v4 = mesh.tet_vertices()
    centres = v4.mean(axis=1)
    signs = np.abs(faces.tet_face_signs) if flip_rt_signs else faces.tet_face_signs

    worst = 0.0
    for _ in range(samples):
        flux = rng.uniform(-1.0, 1.0, faces.n_faces)
        psi = rng.uniform(-1.0, 1.0, faces.n_faces)
        psi[faces.boundary] = 0.0
        a, b = geometry.rt0_affine(v4, flux[faces.tet_faces] * signs)
        # v at the barycentre, one affine evaluation per element
        v_mid = a[:, None] * centres - b
        div = 3.0 * a
        grad_psi = np.einsum("ti,tid->td", psi[faces.tet_faces], grads)
        psi_mid = psi[faces.tet_faces].sum(axis=1) / 4.0
        total = float(vols @ (np.einsum("td,td->t", v_mid, grad_psi)
                              + div * psi_mid))
        worst = max(worst, abs(total))
    return worst
