import numpy as np
import pytest

import anisofem as af
from anisofem.mesh import LOCAL_FACES

from conftest import random_tet

REF_TET = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def duffy_face_integral(tri, g, order=24):
    """Dense face integration oracle: Duffy map to the unit square with
    tensor Gauss-Legendre, machine precision for smooth integrands and
    independent of the midpoint rule used by the DOF functionals."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(w, w)
    a, b, c = np.asarray(tri, dtype=float)
    pts = (a[None, None] * (1 - uu)[..., None]
           + b[None, None] * (uu * (1 - vv))[..., None]
           + c[None, None] * (uu * vv)[..., None])
    area = af.simplex_measure(tri)
    vals = g(pts[..., 0], pts[..., 1], pts[..., 2])
    return float((ww * uu * vals).sum() * 2.0 * area)


def test_barycentric_map_properties():
    rng = np.random.default_rng(21)
    for _ in range(50):
        v = random_tet(rng)
        bmap = af.BarycentricMap(v)
        assert np.abs(af.geometry.tet_gradients(v).sum(axis=0)).max() < 1e-13
        lam = bmap.coords(v)
        assert np.abs(lam - np.eye(4)).max() < 1e-12
        pts = rng.uniform(-1, 1, (10, 3))
        assert np.abs(bmap.coords(pts).sum(axis=1) - 1.0).max() < 1e-12


def test_cr_basis_delta_and_partition():
    # theta_i is cr_eval with the i-th unit coefficient vector
    rng = np.random.default_rng(22)
    tri_rule = af.tri_rule_midpoint3()
    for _ in range(50):
        v = random_tet(rng)
        pts = rng.dirichlet(np.ones(4), 10) @ v
        assert np.abs(af.elements.cr_eval(v, np.ones(4), pts) - 1.0).max() < 1e-13
        for j in range(4):
            face = v[LOCAL_FACES[j]]
            area = af.simplex_measure(face)
            for i in range(4):
                mean = af.integrate(
                    tri_rule, face,
                    lambda x, y, z, i=i: af.elements.cr_eval(
                        v, np.eye(4)[i], np.stack([x, y, z], axis=-1))) / area
                assert abs(mean - (1.0 if i == j else 0.0)) < 1e-13
        # theta_i is identically one on its own face
        face_pts = tri_rule.points @ v[LOCAL_FACES[2]]
        on_face = af.elements.cr_eval(v, np.eye(4)[2], face_pts)
        assert np.abs(on_face - 1.0).max() < 1e-13


def test_rt0_basis_delta_and_divergence():
    # psi_i is rt_eval with the i-th unit coefficient vector: chi_j(psi_i) is
    # delta_ij and div psi_i = |F_i|/|T|, here from differences of the affine
    # field along the axes
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = random_tet(rng)
        areas = af.geometry.face_geometry(v)[0]
        volume = af.simplex_measure(v)
        for i in range(4):
            psi = lambda x, y, z, i=i: af.elements.rt_eval(
                v, np.eye(4)[i], np.stack([x, y, z], axis=-1))
            assert np.abs(af.rt_interpolate(v, psi) - np.eye(4)[i]).max() < 1e-12
            steps = af.elements.rt_eval(v, np.eye(4)[i],
                                        np.vstack([np.zeros(3), np.eye(3)]))
            div = np.trace(steps[1:] - steps[0])
            assert abs(div - areas[i] / volume) <= 1e-12 * areas[i] / volume


def test_p0_project():
    assert abs(af.p0_project(REF_TET, lambda x, y, z: np.full_like(x, 3.25))
               - 3.25) < 1e-14
    mean_x = af.p0_project(REF_TET, lambda x, y, z: x)
    assert abs(mean_x - 0.25) < 1e-14
    twice = af.p0_project(REF_TET, lambda x, y, z: np.full_like(x, mean_x))
    assert abs(twice - mean_x) < 1e-15


def test_cr_interpolate_reproduces_p1():
    rng = np.random.default_rng(24)
    for _ in range(20):
        v = random_tet(rng)
        a = rng.uniform(-2, 2, 4)
        f = lambda x, y, z: a[0] + a[1] * x + a[2] * y + a[3] * z
        coeffs = af.cr_interpolate(v, f)
        pointwise = af.cr_interpolate_pointwise(v, f)
        assert np.abs(coeffs - pointwise).max() < 1e-12
        bary = rng.dirichlet(np.ones(4), 20)
        pts = bary @ v
        vals = af.elements.cr_eval(v, coeffs, pts)
        assert np.abs(vals - f(pts[:, 0], pts[:, 1], pts[:, 2])).max() < 1e-13


def test_cr_interpolate_constant():
    coeffs = af.cr_interpolate(REF_TET, lambda x, y, z: np.ones_like(x))
    assert np.allclose(coeffs, 1.0, atol=1e-15)


def test_cr_face_average_coefficients_vs_dense_oracle():
    # quadratic on the flat sliver: the degree-2 face rule must agree with
    # dense face integration
    v = af.sliver_tet(128)
    phi = lambda x, y, z: x ** 2 + y ** 2 + z ** 2
    coeffs = af.cr_interpolate(v, phi)
    for i in range(4):
        face = v[LOCAL_FACES[i]]
        dense = duffy_face_integral(face, phi) / af.simplex_measure(face)
        assert abs(coeffs[i] - dense) <= 1e-12 * max(abs(dense), 1e-12)


def _face_mean_errors(v, phi, coeffs):
    out = []
    for i in range(4):
        face = v[LOCAL_FACES[i]]
        area = af.simplex_measure(face)
        out.append(duffy_face_integral(
            face,
            lambda x, y, z: af.elements.cr_eval(
                v, coeffs, np.stack([x.ravel(), y.ravel(), z.ravel()], axis=-1)
            ).reshape(x.shape) - phi(x, y, z)) / area)
    return np.abs(out).max()


def test_cr_face_mean_property():
    # the DOF functionals use the degree-2 face rule, so the face-mean
    # property is exact on quadratics and holds for smooth fields at the
    # rule's accuracy, i.e. on small elements
    rng = np.random.default_rng(25)
    for _ in range(10):
        v = random_tet(rng)
        c = rng.uniform(-1, 1, 10)

        def quad(x, y, z):
            basis = np.stack([np.ones_like(x), x, y, z, x * x, y * y, z * z,
                              x * y, x * z, y * z], axis=-1)
            return basis @ c

        assert _face_mean_errors(v, quad, af.cr_interpolate(v, quad)) < 1e-12

    phi = lambda x, y, z: np.sin(1.3 * x) * np.cos(0.7 * y) + np.exp(0.4 * z)
    for _ in range(10):
        v = 1e-3 * random_tet(rng) + 0.2
        assert _face_mean_errors(v, phi, af.cr_interpolate(v, phi)) < 1e-10


def test_rt_interpolate_reproduces_rt0():
    rng = np.random.default_rng(26)
    for _ in range(100):
        v = random_tet(rng)
        p = rng.uniform(-1, 1, 3)
        q = rng.uniform(-1, 1)
        field = lambda x, y, z: p + q * np.stack([x, y, z], axis=-1)
        coeffs = af.rt_interpolate(v, field)
        bary = rng.dirichlet(np.ones(4), 5)
        pts = bary @ v
        vals = af.elements.rt_eval(v, coeffs, pts)
        assert np.abs(vals - field(pts[:, 0], pts[:, 1], pts[:, 2])).max() < 1e-12


def test_rt_interpolate_constant_and_identity():
    c = np.array([0.3, -1.1, 0.7])
    coeffs = af.rt_interpolate(REF_TET, lambda x, y, z: np.broadcast_to(
        c, x.shape + (3,)))
    pts = np.random.default_rng(1).dirichlet(np.ones(4), 8) @ REF_TET
    assert np.abs(af.elements.rt_eval(REF_TET, coeffs, pts) - c).max() < 1e-13
    coeffs = af.rt_interpolate(REF_TET,
                               lambda x, y, z: np.stack([x, y, z], axis=-1))
    assert np.abs(af.elements.rt_eval(REF_TET, coeffs, pts) - pts).max() < 1e-13


def test_rt_interpolate_gradient_field_vs_dense_oracle():
    grad = lambda x, y, z: np.stack([2 * x * y, x ** 2, np.zeros_like(x)], axis=-1)
    coeffs = af.rt_interpolate(REF_TET, grad)
    areas, normals, _ = af.geometry.face_geometry(REF_TET)
    for i in range(4):
        face = REF_TET[LOCAL_FACES[i]]
        n = normals[i]
        dense = duffy_face_integral(
            face, lambda x, y, z: grad(x, y, z) @ n) / areas[i]
        assert abs(coeffs[i] - dense) < 1e-10


def test_commuting_check_linear_field():
    field = lambda x, y, z: np.stack([x + 2 * y, 3 * y, z - x], axis=-1)
    div = lambda x, y, z: np.full_like(x, 5.0)
    lhs, rhs = af.local_commuting_check(REF_TET, field, div)
    assert abs(lhs - 5.0) < 1e-12
    assert abs(rhs - 5.0) < 1e-12


def test_commuting_check_quadratic_component():
    field = lambda x, y, z: np.stack([x ** 2, np.zeros_like(y),
                                      np.zeros_like(z)], axis=-1)
    div = lambda x, y, z: 2 * x
    lhs, rhs = af.local_commuting_check(REF_TET, field, div)
    assert abs(rhs - 0.5) < 1e-13  # mean of 2x over the reference tet
    assert abs(lhs - rhs) < 1e-13


def test_commuting_check_random_quadratics():
    rng = np.random.default_rng(27)
    for _ in range(100):
        v = random_tet(rng)
        c = rng.uniform(-1, 1, (3, 10))

        def field(x, y, z):
            basis = np.stack([np.ones_like(x), x, y, z, x * x, y * y, z * z,
                              x * y, x * z, y * z], axis=-1)
            return basis @ c.T

        def div(x, y, z):
            return (c[0, 1] + 2 * c[0, 4] * x + c[0, 7] * y + c[0, 8] * z
                    + c[1, 2] + 2 * c[1, 5] * y + c[1, 7] * x + c[1, 9] * z
                    + c[2, 3] + 2 * c[2, 6] * z + c[2, 8] * x + c[2, 9] * y)

        lhs, rhs = af.local_commuting_check(v, field, div)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_rt0_field_reproduced_by_commuting_both_sides():
    rng = np.random.default_rng(28)
    v = random_tet(rng)
    p, q = rng.uniform(-1, 1, 3), 0.8
    field = lambda x, y, z: p + q * np.stack([x, y, z], axis=-1)
    div = lambda x, y, z: np.full_like(x, 3 * q)
    lhs, rhs = af.local_commuting_check(v, field, div)
    assert abs(lhs - 3 * q) < 1e-12
    assert abs(rhs - 3 * q) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coplanar_tet_rejected():
    # four vertices in one plane: zero volume, yet every face has area 1/2,
    # so only a volume check catches it, before anything divides by it
    flat = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    field = lambda x, y, z: np.stack([x, y, z], axis=-1)
    for call in (lambda: af.rt_interpolate(flat, field),
                 lambda: af.elements.rt_eval(flat, np.ones(4), flat),
                 lambda: af.elements.cr_eval(flat, np.ones(4), flat),
                 lambda: af.local_commuting_check(
                     flat, field, lambda x, y, z: np.full_like(x, 3.0))):
        with pytest.raises(ValueError, match="degenerate"):
            call()
