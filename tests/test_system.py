import numpy as np
import pytest
import scipy.sparse as sp

import anisofem as af
from anisofem.mesh import LOCAL_FACES, Mesh

from conftest import CASE


def two_tet_mesh():
    verts = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [1, 1, 1]])
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    if np.linalg.det(verts[tets[1, 1:]] - verts[tets[1, 0]]) < 0:
        tets[1] = tets[1][[0, 1, 3, 2]]
    return Mesh(verts, tets)


def test_p1_zero_rhs_zero_solution():
    mesh = af.generate_aniso_cube(2, 2)
    system = af.assemble_p1(mesh, lambda x, y, z: np.zeros_like(x))
    field = af.solve_spd(system)
    assert np.abs(field.coeffs).max() == 0.0


def test_p1_dimensions_published_row():
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_p1(mesh, CASE.f)
    assert system.matrix.shape == (225, 225)
    assert int((~system.constrained).sum()) == (4 - 1) ** 2 * (8 - 1)


def test_unconstrained_stiffness_annihilates_constants():
    mesh = af.generate_aniso_cube(2, 2)
    for assemble in (af.assemble_p1, af.assemble_cr):
        system = assemble(mesh, CASE.f, constrain=False)
        ones = np.ones(system.matrix.shape[0])
        assert np.abs(system.matrix @ ones).max() < 1e-13


def test_cr_dimensions_published_row():
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_cr(mesh, CASE.f)
    assert system.matrix.shape == (1440, 1440)
    assert int(system.constrained.sum()) == 320


def test_assembled_matrices_exactly_symmetric():
    mesh = af.generate_aniso_cube(2, 2)
    for system in (af.assemble_p1(mesh, CASE.f), af.assemble_cr(mesh, CASE.f),
                   af.assemble_rt0_mixed(mesh, CASE.f)):
        diff = (system.matrix - system.matrix.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_cell_mean_data():
    # a constant f integrates to the same load as its cell means, and cell
    # means of the wrong shape are rejected
    mesh = af.generate_aniso_cube(2, 2)
    for assemble in (af.assemble_p1, af.assemble_cr):
        exact = assemble(mesh, lambda x, y, z: np.full_like(x, 3.0))
        means = assemble(mesh, np.full(mesh.n_tets, 3.0))
        np.testing.assert_allclose(means.rhs, exact.rhs, rtol=1e-13, atol=1e-16)
        with pytest.raises(ValueError, match="cell means"):
            assemble(mesh, np.ones(mesh.n_tets + 1))


def test_cr_solution_matches_published_error():
    mesh = af.generate_aniso_cube(4, 8)
    field = af.solve_spd(af.assemble_cr(mesh, CASE.f))
    err = af.broken_h1_error(mesh, field, CASE.grad_u) / CASE.hess_diag_l2
    assert abs(err - 8.2569e-02) / 8.2569e-02 < 0.25


def test_solve_spd_small_systems():
    mesh = af.generate_aniso_cube(2, 2)
    base = af.assemble_cr(mesh, CASE.f)
    identity = af.SparseSystem(sp.identity(5, format="csr"),
                               np.arange(5.0), "cr", mesh,
                               np.zeros(5, dtype=bool))
    assert np.allclose(af.solve_spd(identity).coeffs, np.arange(5.0))
    two = af.SparseSystem(sp.csr_matrix(np.array([[2., 1], [1, 2]])),
                          np.ones(2), "p1", mesh, np.zeros(2, dtype=bool))
    assert np.allclose(af.solve_spd(two).coeffs, [1 / 3, 1 / 3], atol=1e-12)
    field = af.solve_spd(base, tol=1e-10, max_iter=5000)
    assert field.solve_info["residual"] <= 1e-10
    assert field.solve_info["iterations"] < 5000


def test_solve_spd_reports_nonconvergence():
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_cr(mesh, CASE.f)
    with pytest.raises(af.SolverError) as err:
        af.solve_spd(system, tol=1e-10, max_iter=3)
    assert err.value.residual > 1e-10


def test_galerkin_consistency():
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_cr(mesh, CASE.f)
    field = af.solve_spd(system, tol=1e-10)
    res = np.linalg.norm(system.rhs - system.matrix @ field.coeffs)
    assert res <= 1e-10 * np.linalg.norm(system.rhs)


def test_rt0_zero_rhs():
    mesh = af.generate_aniso_cube(2, 2)
    system = af.assemble_rt0_mixed(mesh, lambda x, y, z: np.zeros_like(x))
    field = af.solve_saddle(system)
    assert np.abs(field.coeffs).max() == 0.0
    assert np.abs(field.cell_coeffs).max() == 0.0


def dense_rt0_oracle(mesh):
    """Hand assembly of the mixed system on a tiny mesh, built from the
    closed-form element integrals rather than quadrature."""
    faces = mesh.faces
    nf, nt = faces.n_faces, mesh.n_tets
    a = np.zeros((nf, nf))
    b = np.zeros((nt, nf))
    for t in range(nt):
        v = mesh.tet_vertices(t)
        vol = abs(np.linalg.det(v[1:] - v[0])) / 6.0
        centre = v.mean(axis=0)
        spread = ((v - centre) ** 2).sum()
        areas = np.empty(4)
        for i in range(4):
            p, q, r = v[LOCAL_FACES[i]]
            areas[i] = 0.5 * np.linalg.norm(np.cross(q - p, r - p))
        signs = np.where(faces.sides[faces.tet_faces[t], 0] // 4 == t, 1.0, -1.0)
        for i in range(4):
            gi = faces.tet_faces[t, i]
            b[t, gi] += signs[i] * areas[i]
            for j in range(4):
                gj = faces.tet_faces[t, j]
                # int (x - x_i).(x - x_j) = |T| (spread/20 + (xT-x_i).(xT-x_j))
                moment = vol * (spread / 20.0
                                + np.dot(centre - v[i], centre - v[j]))
                scale = areas[i] * areas[j] / (9.0 * vol * vol)
                a[gi, gj] += signs[i] * signs[j] * scale * moment
    return a, b


def test_rt0_assembly_matches_two_tet_oracle():
    mesh = two_tet_mesh()
    system = af.assemble_rt0_mixed(mesh, CASE.f)
    nf = system.n_flux
    a, b = dense_rt0_oracle(mesh)
    dense = np.block([[a, b.T], [b, np.zeros((mesh.n_tets, mesh.n_tets))]])
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, nf + mesh.n_tets)
    lhs = system.matrix @ x
    rhs = dense @ x
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_saddle_solve_matches_dense_lu():
    mesh = two_tet_mesh()
    system = af.assemble_rt0_mixed(mesh, CASE.f)
    field = af.solve_saddle(system, tol=1e-12)
    dense = system.matrix.toarray()
    exact = np.linalg.solve(dense, system.rhs)
    got = np.concatenate([field.coeffs, field.cell_coeffs])
    assert np.abs(got - exact).max() <= 1e-9 * max(np.abs(exact).max(), 1.0)


def test_saddle_solve_published_mesh():
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_rt0_mixed(mesh, CASE.f)
    assert system.n_flux == 1440
    assert system.matrix.shape == (1440 + 640,) * 2
    field = af.solve_saddle(system, tol=1e-10)
    assert field.solve_info["residual"] <= 1e-10


def test_duality_identity_random_fields():
    # (v, grad_h psi) + (div v, psi) = 0 for flux-conforming v and CR psi
    # with vanishing boundary face means; per-element closed forms, so the
    # check is exact up to rounding
    mesh = af.generate_aniso_cube(2, 2)
    faces = mesh.faces
    vols = af.element_volumes(mesh)
    v4 = mesh.tet_vertices()
    centres = v4.mean(axis=1)
    areas, _, _ = af.geometry.local_face_geometry(mesh)
    grads = -3.0 * af.geometry.barycentric_gradients(mesh)
    rng = np.random.default_rng(32)
    for _ in range(50):
        flux = rng.uniform(-1, 1, faces.n_faces)
        psi = rng.uniform(-1, 1, faces.n_faces)
        psi[faces.boundary] = 0.0
        local = flux[faces.tet_faces] * faces.tet_face_signs
        coef = local * areas / (3.0 * vols[:, None])
        v_mid = np.einsum("ti,tid->td", coef, centres[:, None, :] - v4)
        div = (local * areas).sum(axis=1) / vols
        grad_psi = np.einsum("ti,tid->td", psi[faces.tet_faces], grads)
        psi_mid = psi[faces.tet_faces].mean(axis=1)
        total = float(vols @ (np.einsum("td,td->t", v_mid, grad_psi)
                              + div * psi_mid))
        assert abs(total) < 1e-11


def test_mesh_ordering_independence():
    mesh = af.generate_aniso_cube(2, 2)
    rng = np.random.default_rng(33)
    perm = rng.permutation(mesh.n_tets)
    shuffled = Mesh(mesh.vertices.copy(), mesh.tets[perm].copy())
    for assemble in (af.assemble_p1, af.assemble_cr):
        a = af.solve_spd(assemble(mesh, CASE.f), tol=1e-12)
        b = af.solve_spd(assemble(shuffled, CASE.f), tol=1e-12)
        # vertex and face DOF numbering do not depend on tet order
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-9


def test_rt0_field_invariant_under_tet_reordering():
    # flux coefficients are signed by which incident tet owns the face normal,
    # so compare the physical fields rather than the coefficient vectors
    mesh = af.generate_aniso_cube(2, 2)
    perm = np.random.default_rng(34).permutation(mesh.n_tets)
    shuffled = Mesh(mesh.vertices.copy(), mesh.tets[perm].copy())
    a = af.solve_saddle(af.assemble_rt0_mixed(mesh, CASE.f), tol=1e-12)
    b = af.solve_saddle(af.assemble_rt0_mixed(shuffled, CASE.f), tol=1e-12)
    centre = np.full((1, 4), 0.25)
    assert np.abs(b.flux_values(centre) - a.flux_values(centre)[perm]).max() \
        < 1e-9
    assert np.abs(b.cell_coeffs - a.cell_coeffs[perm]).max() < 1e-9


def test_empty_mesh_rejected():
    empty = Mesh(np.zeros((0, 3)), np.zeros((0, 4), dtype=int))
    for assemble in (af.assemble_p1, af.assemble_cr, af.assemble_rt0_mixed):
        with pytest.raises(ValueError):
            assemble(empty, CASE.f)
