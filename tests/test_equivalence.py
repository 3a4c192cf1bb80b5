import math

import numpy as np
import pytest

import anisofem as af
from anisofem.mesh import LOCAL_FACES, Mesh
from anisofem.verify import equivalence_checks

from conftest import CASE, random_tet


def test_bubble_at_barycentre():
    rng = np.random.default_rng(41)
    for _ in range(20):
        v = random_tet(rng)
        centre = v.mean(axis=0)[None, :]
        spread = af.bubble_spread(v)
        assert abs(af.bubble_eval(v, centre)[0] - spread) < 1e-13 * spread
        assert np.abs(af.bubble_grad(v, centre)).max() < 1e-12


def test_bubble_regular_tet():
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / (2 * math.sqrt(2))
    # each vertex sits at squared distance 3/8 from the centre
    assert abs(af.bubble_spread(v) - 1.5) < 1e-14
    assert abs(af.bubble_eval(v, np.zeros((1, 3)))[0] - 1.5) < 1e-14


def test_bubble_face_means_vanish():
    rule = af.tri_rule_midpoint3()
    rng = np.random.default_rng(42)
    tets = [random_tet(rng) for _ in range(20)]
    tets += list(af.generate_aniso_cube(2, 2).tet_vertices())
    for v in tets:
        spread = af.bubble_spread(v)
        for i in range(4):
            face = v[LOCAL_FACES[i]]
            mean = af.integrate(
                rule, face,
                lambda x, y, z: af.bubble_eval(v, np.stack([x, y, z], axis=-1)),
            ) / af.simplex_measure(face)
            assert abs(mean) <= 1e-12 * spread


def test_bubble_volume_identities():
    rng = np.random.default_rng(43)
    for _ in range(100):
        v = random_tet(rng)
        spread = af.bubble_spread(v)
        mean, grad_sq = af.bubble_identities(v)
        assert abs(mean - 0.4 * spread) <= 1e-12 * spread
        assert abs(grad_sq - 28.8 * spread) <= 1e-12 * 28.8 * spread


def test_bubble_identities_scale_together():
    v = random_tet(np.random.default_rng(44))
    mean1, grad1 = af.bubble_identities(v)
    mean2, grad2 = af.bubble_identities(2.0 * v)
    # spread scales by 4; both normalised identities scale with it
    assert abs(mean2 - 4 * mean1) < 1e-12 * abs(mean2)
    assert abs(grad2 - 4 * grad1) < 1e-12 * abs(grad2)


def test_enriched_solve_gamma_values():
    mesh = af.generate_aniso_cube(2, 2)
    _, gamma = af.enriched_cr_solve(mesh, lambda x, y, z: np.full_like(x, 72.0))
    assert np.abs(gamma - 1.0).max() < 1e-12
    field, gamma = af.enriched_cr_solve(mesh, lambda x, y, z: np.zeros_like(x))
    assert np.abs(gamma).max() == 0.0
    assert np.abs(field.coeffs).max() == 0.0


def test_cr_bubble_orthogonality():
    # broken-gradient products of CR fields against bubbles vanish because
    # grad phi_T integrates to zero against constants elementwise
    mesh = af.generate_aniso_cube(2, 2)
    rule = af.tet_rule_degree2()
    vols = af.element_volumes(mesh)
    verts = mesh.tet_vertices()
    grads = -3.0 * af.geometry.barycentric_gradients(mesh)
    faces = mesh.faces
    rng = np.random.default_rng(45)
    x = np.einsum("qi,tid->tqd", rule.points, verts)
    centres = verts.mean(axis=1)
    for _ in range(20):
        psi = rng.uniform(-1, 1, faces.n_faces)
        coeff = rng.uniform(-1, 1, mesh.n_tets)
        grad_psi = np.einsum("ti,tid->td", psi[faces.tet_faces], grads)
        # integral over each tet of grad psi . coeff * grad phi_T
        grad_bubble = -24.0 * (x - centres[:, None, :])
        per_tet = vols * coeff * np.einsum(
            "q,tqd,td->t", rule.weights, grad_bubble, grad_psi)
        assert abs(per_tet.sum()) < 1e-11 * (np.abs(per_tet).max() + 1.0)


def test_marini_zero_data():
    mesh = af.generate_aniso_cube(2, 2)
    cr, gamma = af.enriched_cr_solve(mesh, lambda x, y, z: np.zeros_like(x))
    rt, mismatch = af.marini_reconstruct(mesh, cr, gamma)
    assert np.abs(rt.coeffs).max() == 0.0
    assert np.abs(rt.cell_coeffs).max() == 0.0
    assert mismatch == 0.0


def test_marini_constant_source_single_tet():
    verts = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = Mesh(verts, np.array([[0, 1, 2, 3]]))
    c = 6.0
    zero_cr = af.Field("cr", mesh, np.zeros(4))
    rt, _ = af.marini_reconstruct(mesh, zero_cr, np.full(1, c / 72.0))
    # sigma = -(c/3)(x - x_T): divergence is -c, matching -P0(f)
    assert abs(rt.flux_divergence()[0] + c) < 1e-11
    bary = np.random.default_rng(46).dirichlet(np.ones(4), 6)
    sigma = rt.flux_values(bary)[0]
    expected = -(c / 3.0) * (bary @ verts - verts.mean(axis=0))
    assert np.abs(sigma - expected).max() < 1e-12
    # cell part picks up the bubble mean correction (c/180) * spread
    assert abs(rt.cell_coeffs[0] - c / 180.0 * af.bubble_spread(verts)) < 1e-13


def test_marini_requires_matching_field():
    mesh = af.generate_aniso_cube(2, 2)
    other = af.generate_aniso_cube(2, 2)
    cr, gamma = af.enriched_cr_solve(mesh, CASE.f)
    with pytest.raises(ValueError):
        af.marini_reconstruct(other, cr, gamma)
    p1 = af.Field("p1", mesh, np.zeros(mesh.n_vertices))
    with pytest.raises(ValueError):
        af.marini_reconstruct(mesh, p1, gamma)


@pytest.mark.parametrize("m,n", [(2, 2), (4, 8)])
def test_marini_equivalence_with_direct_solve(m, n):
    mesh = af.generate_aniso_cube(m, n)
    cr, gamma = af.enriched_cr_solve(mesh, CASE.f, tol=1e-12)
    rt, mismatch = af.marini_reconstruct(mesh, cr, gamma)
    direct = af.solve_saddle(af.assemble_rt0_mixed(mesh, CASE.f), tol=1e-12)

    mass = af.rt0_mass_matrix(mesh)
    dsig = rt.coeffs - direct.coeffs
    rel_sigma = math.sqrt((dsig @ mass @ dsig)
                          / (direct.coeffs @ mass @ direct.coeffs))
    vols = af.element_volumes(mesh)
    du = rt.cell_coeffs - direct.cell_coeffs
    rel_u = math.sqrt(float(vols @ du ** 2)
                      / float(vols @ direct.cell_coeffs ** 2))
    assert rel_sigma <= 1e-8
    assert rel_u <= 1e-8
    assert mismatch <= 1e-9

    # div sigma = -P0 f elementwise
    fbar = np.array([af.p0_project(mesh.tet_vertices(t), CASE.f)
                     for t in range(0, mesh.n_tets, max(1, mesh.n_tets // 40))])
    idx = np.arange(0, mesh.n_tets, max(1, mesh.n_tets // 40))
    assert np.abs(rt.flux_divergence()[idx] + fbar).max() <= 1e-11


def test_wrong_bubble_constant_breaks_equivalence():
    mesh = af.generate_aniso_cube(2, 2)
    cr, gamma = af.enriched_cr_solve(mesh, CASE.f, tol=1e-12)
    rt_bad, _ = af.marini_reconstruct(mesh, cr, gamma * (72.0 / 70.0))
    direct = af.solve_saddle(af.assemble_rt0_mixed(mesh, CASE.f), tol=1e-12)
    mass = af.rt0_mass_matrix(mesh)
    dsig = rt_bad.coeffs - direct.coeffs
    rel = math.sqrt((dsig @ mass @ dsig)
                    / (direct.coeffs @ mass @ direct.coeffs))
    assert rel > 1e-4


@pytest.mark.parametrize("m,n", [(2, 2), (4, 8)])
def test_bubble_coefficients_are_the_cell_means_over_72(m, n):
    mesh = af.generate_aniso_cube(m, n)
    _, gamma = af.enriched_cr_solve(mesh, CASE.f)
    assert np.array_equal(gamma, af.p0_project(mesh.tet_vertices(), CASE.f) / 72.0)


def assert_reconstruction_rows_fail(bubble_stiffness):
    rows = {name: (dev, tol) for name, dev, tol
            in equivalence_checks(False, bubble_stiffness)}
    for name in ("marini_sigma_equivalence", "marini_u_equivalence",
                 "reconstruction_divergence", "reconstruction_normal_jumps"):
        dev, tol = rows[name]
        assert not dev <= tol, name
    dev, tol = rows["flux_normal_jumps"]  # the direct solve is untouched
    assert dev <= tol
    return rows


def test_nan_bubble_stiffness_fails_reconstruction_rows():
    assert_reconstruction_rows_fail(float("nan"))


def test_tiny_bubble_stiffness_fails_reconstruction_rows():
    # the bubble coefficients grow by 72 / 1e-160, so the deviations near
    # 1e161 would overflow if squared unscaled: finite FAIL rows instead,
    # under the CLI's floating-point traps
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        rows = assert_reconstruction_rows_fail(1e-160)
    assert all(math.isfinite(dev) for dev, _ in rows.values())
