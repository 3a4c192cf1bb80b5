"""The identity suite behind ``anisofem verify``.  Library functions are
called as module attributes, not imported names, so that wrappers installed
on the modules (the benchmark's tracer) see these calls too."""

import itertools
import math

import numpy as np

from . import analysis, elements, equivalence, geometry, quadrature, system
from . import mesh as meshgen


def identity_checks(flip_rt_signs=False, bubble_stiffness=72.0):
    """Run every identity check, each once over a stack of simplices; yields
    (name, max deviation, tolerance)."""
    rng = np.random.default_rng(0)  # fixed: reruns print the same rows

    def random_tets(count):
        # rejection sampling in batches that draw exactly the candidates
        # one-at-a-time sampling would draw, so the stream stays in step
        tets = np.empty((0, 4, 3))
        while len(tets) < count:
            v = rng.uniform(-1.0, 1.0, (count - len(tets), 4, 3))
            tets = np.concatenate([tets, v[geometry.simplex_measure(v) > 1e-3]])
        return tets

    # quadrature exactness against the closed-form simplex monomial integrals
    for rule, name in [(quadrature.tet_rule_degree2(), "quad_tet_degree2"),
                       (quadrature.tet_rule_degree5(), "quad_tet_degree5")]:
        yield name, _exactness_deviation(rule, random_tets(100)), 1e-12
    tris = rng.uniform(-1.0, 1.0, (100, 3, 3))
    tris = tris[geometry.simplex_measure(tris) >= 1e-3]
    yield ("quad_tri_degree2",
           _exactness_deviation(quadrature.tri_rule_midpoint3(), tris), 1e-12)

    # bubble identities over a generated mesh plus random tets
    tets = np.concatenate([meshgen.generate_aniso_cube(4, 8).tet_vertices(),
                           random_tets(20)])
    spread = equivalence.bubble_spread(tets)
    face_means = elements.cr_interpolate(tets, lambda x, y, z: equivalence.bubble_eval(
        tets[:, None], np.stack([x, y, z], axis=-1)))
    mean, grad_sq = equivalence.bubble_identities(tets)
    for name, dev in [
            ("bubble_face_means", np.abs(face_means).max(axis=1) / spread),
            ("bubble_volume_mean", np.abs(mean - 0.4 * spread) / spread),
            ("bubble_gradient_mean", np.abs(grad_sq - 28.8 * spread) / (28.8 * spread))]:
        yield name, float(dev.max()), 1e-12

    # commuting identity on random quadratic vector fields, one per tet
    tets, coeffs = zip(*[(random_tets(1)[0], rng.uniform(-1.0, 1.0, (3, 10)))
                         for _ in range(100)])
    field, div_field = _random_quadratic_field(np.array(coeffs))
    lhs, rhs = elements.local_commuting_check(np.array(tets), field, div_field)
    yield ("commuting_rt_projection",
           float((np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)).max()), 1e-12)

    # duality identity on the small mesh
    mesh22 = meshgen.generate_aniso_cube(2, 2)
    dev = _duality_deviation(mesh22, rng, flip_rt_signs=flip_rt_signs)
    yield "flux_gradient_duality", dev, 1e-11

    yield from equivalence_checks(flip_rt_signs, bubble_stiffness)


def equivalence_checks(flip_rt_signs, bubble_stiffness):
    """Reconstructed against directly solved mixed problem on the 2:2 and 4:8
    meshes, with f-bar computed apart from the reconstruction; yields 5 rows."""
    case = analysis.cube_polynomial_case()
    devs = []
    for m, n in [(2, 2), (4, 8)]:
        msh = meshgen.generate_aniso_cube(m, n)
        cr, gamma = equivalence.enriched_cr_solve(msh, case.f, tol=1e-12)
        gamma = gamma * (72.0 / bubble_stiffness)  # 1 unless a fault is planted
        rt, jump = equivalence.marini_reconstruct(msh, cr, gamma)
        mixed = system.assemble_rt0_mixed(msh, case.f)
        direct = system.solve_saddle(mixed, tol=1e-12)
        nf = len(direct.coeffs)  # the flux block is the RT0 mass matrix
        mass = mixed.matrix[:nf, :nf]
        vols = geometry.element_volumes(msh)
        dsig, s_sig = _unit_scaled(rt.coeffs - direct.coeffs)
        du, s_u = _unit_scaled(rt.cell_coeffs - direct.cell_coeffs)
        fbar = elements.p0_project(msh.tet_vertices(), case.f)
        devs.append([
            s_sig * math.sqrt((dsig @ mass @ dsig)
                              / (direct.coeffs @ mass @ direct.coeffs)),
            s_u * math.sqrt(float(vols @ du ** 2)
                            / float(vols @ direct.cell_coeffs ** 2)),
            float(np.abs(rt.flux_divergence() + fbar).max()),
            jump,
            _flux_jump_deviation(msh, direct, flip_rt_signs=flip_rt_signs)])
    # np.max, unlike the builtin max, carries a NaN through to a FAIL row
    worst = np.max(devs, axis=0)
    for name, dev, tol in zip(
            ["marini_sigma_equivalence", "marini_u_equivalence",
             "reconstruction_divergence", "reconstruction_normal_jumps",
             "flux_normal_jumps"], worst, [1e-7, 1e-7, 1e-11, 1e-9, 1e-9]):
        yield name, float(dev), tol


def _unit_scaled(x):
    """(x / s, s) for the power of two s that brings x's largest magnitude
    into [0.5, 1), so that the squares of x / s cannot overflow.  A power of
    two scales exactly: s times a norm of x / s has the bits of the norm of
    x wherever that has no overflow or subnormal term."""
    s = math.ldexp(1.0, int(np.frexp(np.abs(x).max())[1]))
    return x / s, s


def _exactness_deviation(rule, simplices):
    """Largest relative error of ``rule`` on the barycentric monomials up to its
    degree over simplices (n, k, 3), the integrand mapping each physical point
    back to barycentric coordinates."""
    n, k = simplices.shape[:2]
    # a triangle is the face opposite an apex added off its plane
    apex = simplices[:, :1] + geometry.cross(simplices[:, 1] - simplices[:, 0],
                                             simplices[:, 2] - simplices[:, 0])[:, None]
    tets = simplices if k == 4 else np.concatenate([simplices, apex], axis=1)
    exponents = np.array([e for e in itertools.product(range(rule.degree + 1), repeat=k)
                          if sum(e) <= rule.degree])

    def monomials(x, y, z):
        lam = geometry.barycentric_coords(
            tets, np.stack([x, y, z], axis=-1).reshape(n, -1, 3))[..., :k]
        # one factor at a time, with no (n, q, terms, k) stack of powers held;
        # the factors are multiplied in the same order as a product over k
        out = lam[..., :1] ** exponents[:, 0]
        for i in range(1, k):
            out *= lam[..., i:i + 1] ** exponents[:, i]
        return out

    # int over S of prod lambda_i^e_i = (prod e_i!) d! |S| / (sum e_i + d)!
    moments = [math.prod(map(math.factorial, e)) * math.factorial(k - 1)
               / math.factorial(sum(e) + k - 1) for e in exponents]
    exact = np.outer(geometry.simplex_measure(simplices), moments)
    got = quadrature.integrate(rule, simplices, monomials)
    return float((np.abs(got - exact) / np.maximum(np.abs(exact), 1e-300)).max())


def _random_quadratic_field(c):
    """Quadratic vector fields with coefficients c (nt, 3, 10), one per tet of
    a stack, and their divergences, as integrands over that stack; the
    coordinates of each tet are flattened into one row."""
    def field(x, y, z):
        u, v, w = (t.reshape(len(c), -1) for t in (x, y, z))
        basis = np.stack([np.ones_like(u), u, v, w, u * u, v * v, w * w,
                          u * v, u * w, v * w], axis=-1)
        return (basis @ c.transpose(0, 2, 1)).reshape(x.shape + (3,))

    def div_field(x, y, z):
        x, y, z = (t.reshape(len(c), -1) for t in (x, y, z))
        k = c[..., None]  # (nt, 3, 10, 1) against points (nt, n)
        # d/dx of component 0 plus d/dy of 1 plus d/dz of 2
        return (k[:, 0, 1] + 2 * k[:, 0, 4] * x + k[:, 0, 7] * y + k[:, 0, 8] * z
                + k[:, 1, 2] + 2 * k[:, 1, 5] * y + k[:, 1, 7] * x + k[:, 1, 9] * z
                + k[:, 2, 3] + 2 * k[:, 2, 6] * z + k[:, 2, 8] * x + k[:, 2, 9] * y)

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


def _duality_deviation(mesh, rng, flip_rt_signs=False):
    """max |(v, grad_h psi) + (div v, psi)| over 50 random discrete field pairs.

    Each inner product is evaluated elementwise in closed form (the RT0 field
    is affine, the CR gradient constant), so the identity holds to rounding
    for any coefficients respecting the sign convention.  ``flip_rt_signs``
    breaks that convention on purpose.
    """
    faces = mesh.faces
    vols = geometry.element_volumes(mesh)
    grads = elements.cr_gradients(geometry.barycentric_gradients(mesh))
    v4 = mesh.tet_vertices()
    centres = v4.mean(axis=1)
    signs = np.abs(faces.tet_face_signs) if flip_rt_signs else faces.tet_face_signs

    totals = []
    for _ in range(50):
        flux = rng.uniform(-1.0, 1.0, faces.n_faces)
        psi = rng.uniform(-1.0, 1.0, faces.n_faces)
        psi[faces.boundary] = 0.0
        a, b = geometry.rt0_affine(v4, flux[faces.tet_faces] * signs)
        # v at the barycentre, one affine evaluation per element
        v_mid = geometry.affine_field(a, b, centres[:, None, :])[:, 0]
        div = 3.0 * a
        grad_psi = np.einsum("ti,tid->td", psi[faces.tet_faces], grads)
        psi_mid = psi[faces.tet_faces].sum(axis=1) / 4.0
        totals.append(vols @ (geometry.dot(v_mid, grad_psi)
                              + div * psi_mid))
    return float(np.max(np.abs(totals)))
