import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import anisofem as af
from anisofem.elements import cr_gradients, cr_shape
from anisofem.geometry import signed_volumes, tet_gradients
from anisofem.mesh import LOCAL_FACES, Mesh
from anisofem.quadrature import sample
from anisofem.system import _assemble, _local_kernel

from conftest import CASE, jittered_cube, singular_saddle_system


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
    # the stiffness of a constant is zero, and the elimination leaves the rows
    # whose columns are all unconstrained, those of DOFs with no constrained
    # DOF on any of their tets, as they are
    mesh = af.generate_aniso_cube(4, 8)
    for assemble, dofs in ((af.assemble_p1, mesh.tets),
                           (af.assemble_cr, mesh.faces.tet_faces)):
        system = assemble(mesh, CASE.f)
        if system.faces is not None:  # the CR unknowns run column by column
            dofs = np.argsort(system.faces)[dofs]
        near = np.zeros(system.matrix.shape[0], dtype=bool)
        near[dofs[system.constrained[dofs].any(axis=1)]] = True
        assert (~near).any()
        sums = system.matrix @ np.ones(system.matrix.shape[0])
        assert np.abs(sums[~near]).max() < 1e-13 * np.abs(system.matrix.data).max()


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


def coo_scatter(element, mesh, f):
    """The P1 or CR matrix and load through a COO scatter of all local
    matrices, summed by ``tocsr``, and the mask of the boundary DOFs."""
    faces = mesh.faces
    v = mesh.tet_vertices()
    grads = tet_gradients(v)
    rule = af.tet_rule_degree5()
    basis = rule.points
    if element == "cr":
        grads, basis = cr_gradients(grads), cr_shape(rule.points)
        dofs, constrained = faces.tet_faces, faces.boundary
    else:
        dofs = mesh.tets
        constrained = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
    vols = np.abs(signed_volumes(v))
    local = vols[:, None, None] * np.einsum("tik,tjk->tij", grads, grads)
    if callable(f):
        loads = vols[:, None] * np.einsum("q,qi,tq->ti", rule.weights, basis,
                                          sample(rule, v, f)[0])
    else:
        loads = np.repeat((vols * f / 4.0)[:, None], 4, axis=1)
    n = len(constrained)
    matrix = sp.coo_matrix((local.ravel(), (np.repeat(dofs, 4, axis=1).ravel(),
                                            np.tile(dofs, (1, 4)).ravel())),
                           shape=(n, n)).tocsr()
    rhs = np.bincount(dofs.ravel(), weights=loads.ravel(), minlength=n)
    return matrix, rhs, constrained


def product_form(matrix, rhs, constrained):
    """The symmetric elimination as a sparse product,
    diag(free) A diag(free) + diag(constrained), and the zeroed load."""
    keep = sp.diags((~constrained).astype(float))
    matrix = (keep @ matrix @ keep + sp.diags(constrained.astype(float))).tocsr()
    return matrix, np.where(constrained, 0.0, rhs)


def built(element, mesh, f, constrained):
    """The library's own matrix and load for any mask ``constrained``: its
    block kernel and CSR builder, the slots ordered by a stable argsort."""
    dofs = mesh.tets if element == "p1" else mesh.faces.tet_faces
    return _assemble(dofs, np.argsort(dofs.ravel(), kind="stable"),
                     _local_kernel(element, mesh, f, constrained), constrained)


def renumbered(matrix, rhs, faces):
    """A face-ordered matrix and load in a CR system's numbering, unknown k
    on face faces[k]: a permutation, so every entry keeps its bits."""
    matrix = matrix[faces][:, faces]
    matrix.sort_indices()
    return matrix, rhs[faces]


def unconstrained(element, mesh, f):
    """The library's own matrix and load with no DOF constrained."""
    n = mesh.n_vertices if element == "p1" else mesh.faces.n_faces
    return built(element, mesh, f, np.zeros(n, dtype=bool))


def oracle_case(mesh, data):
    mesh = jittered_cube(4, 4) if mesh == "jittered" else af.generate_aniso_cube(4, 8)
    data = af.p0_project(mesh.tet_vertices(), CASE.f) if data == "means" else CASE.f
    return mesh, data


def assert_same_bits(a, b, name):
    assert a.dtype == b.dtype, name
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("assemble", [af.assemble_p1, af.assemble_cr])
def test_constraints_in_place_match_product_form(assemble):
    # oracle: diag(free) A diag(free) + diag(constrained) on the matrix the
    # same kernel gives with no DOF constrained, the symmetric elimination
    # as a sparse product
    mesh = af.generate_aniso_cube(4, 8)
    system = assemble(mesh, CASE.f)
    matrix, rhs = unconstrained(system.kind, mesh, CASE.f)
    if system.faces is not None:
        matrix, rhs = renumbered(matrix, rhs, system.faces)
    oracle, rhs = product_form(matrix, rhs, system.constrained)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(system.matrix, attr), getattr(oracle, attr)), attr
    assert np.array_equal(system.rhs, rhs)


@pytest.mark.parametrize("data", ["f", "means"])
@pytest.mark.parametrize("mesh", ["4:8", "jittered"])
@pytest.mark.parametrize("element", ["p1", "cr"])
def test_assembly_matches_coo_oracle(element, mesh, data):
    # both assemblers zero the constrained rows and columns of each local
    # matrix, so they must give the CSR arrays of the scatter with the
    # elimination applied afterwards, bit for bit: CR sums only the diagonal
    # from two local entries, and a + b = b + a
    mesh, data = oracle_case(mesh, data)
    assemble = af.assemble_p1 if element == "p1" else af.assemble_cr
    system = assemble(mesh, data)
    matrix, rhs, constrained = coo_scatter(element, mesh, data)
    if system.faces is not None:
        matrix, rhs = renumbered(matrix, rhs, system.faces)
        constrained = constrained[system.faces]
    assert np.array_equal(system.constrained, constrained)
    matrix, rhs = product_form(matrix, rhs, constrained)
    for attr in ("indptr", "indices", "data"):
        assert_same_bits(getattr(system.matrix, attr), getattr(matrix, attr), attr)
    assert_same_bits(system.rhs, rhs, "rhs")


@pytest.mark.parametrize("mesh, data, constrain", [
    ("4:8", "f", True),
    ("4:8", "f", False),
])
def test_cr_assembly_matches_coo_oracle(mesh, data, constrain):
    # the CR builder against the scatter for masks assemble_cr never
    # passes: none at all, and the boundary with every third face added, so
    # that interior faces, with a local row on each side, are eliminated too;
    # the builder drops the exact zeros of the local matrices, as the
    # product form does
    mesh, data = oracle_case(mesh, data)
    matrix, rhs, boundary = coo_scatter("cr", mesh, data)
    mask = np.zeros_like(boundary)
    if constrain:
        mask = boundary | (np.arange(len(boundary)) % 3 == 0)
        assert (mask & ~boundary).any()
        matrix, rhs = product_form(matrix, rhs, mask)
    else:
        matrix.eliminate_zeros()
    table_matrix, table_rhs = built("cr", mesh, data, mask)
    for attr in ("indptr", "indices", "data"):
        assert_same_bits(getattr(table_matrix, attr), getattr(matrix, attr), attr)
    assert_same_bits(table_rhs, rhs, "rhs")


@pytest.mark.parametrize("assemble", [af.assemble_p1, af.assemble_cr,
                                      af.rt0_mass_matrix])
def test_matrix_arrays_hold_no_slack(assemble):
    # the summed and eliminated entries leave no unused room behind the CSR
    # arrays; at 8:16 scipy's pruning would keep the builder's whole table
    # behind them (smaller meshes copy it away)
    mesh = af.generate_aniso_cube(8, 16)
    matrix = (assemble(mesh) if assemble is af.rt0_mass_matrix
              else assemble(mesh, np.ones(mesh.n_tets)).matrix)
    for array in (matrix.indptr, matrix.indices, matrix.data):
        assert array.base is None or array.base.nbytes == array.nbytes


@pytest.mark.parametrize("stage", [af.assemble_p1, af.assemble_cr, af.solve_spd])
def test_assembly_memory_budget(stage):
    # the builder's table needs no (nt, 4, 4) local array, no COO index
    # arrays and no (nt, 4) loads; a COO scatter peaked here at 661 (P1)
    # and 747 (CR) bytes a tet.  The CR solve fills its band a block of rows
    # at a time and permutes nothing per apply; with matrix-wide index
    # arrays for the band it peaked at 272 bytes a tet
    mesh = af.generate_aniso_cube(8, 64)
    mesh.faces
    system = af.assemble_cr(mesh, CASE.f) if stage is af.solve_spd else None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stage(system) if system else stage(mesh, CASE.f)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / mesh.n_tets <= (240 if system else 520)


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
                               np.arange(5.0), "p1", mesh,
                               np.zeros(5, dtype=bool))
    assert np.allclose(af.solve_spd(identity).coeffs, np.arange(5.0))
    two = af.SparseSystem(sp.csr_matrix(np.array([[2., 1], [1, 2]])),
                          np.ones(2), "p1", mesh, np.zeros(2, dtype=bool))
    assert np.allclose(af.solve_spd(two).coeffs, [1 / 3, 1 / 3], atol=1e-12)
    field = af.solve_spd(base, tol=1e-10)
    assert field.solve_info["residual"] <= 1e-10
    assert field.solve_info["iterations"] < 5000


@pytest.mark.parametrize("assemble", [af.assemble_p1, af.assemble_cr])
def test_cg_loop_matches_scipy(assemble):
    # the package's loop runs scipy 1.17's cg operation for operation: with
    # the same preconditioner, on the system's own numbering, both give the
    # same iterates bit for bit, and the same iteration count
    system = assemble(af.generate_aniso_cube(4, 8), CASE.f)
    if system.kind == "cr":
        apply, _ = af.system._column_band(system.matrix, system.columns)
        precond = spla.LinearOperator(system.matrix.shape, matvec=apply, dtype=float)
    else:
        inv = 1.0 / system.matrix.diagonal()
        apply, precond = (lambda r: inv * r), sp.diags(inv)
    rtol = 1e-10 / 4.0
    x, iterations = af.system._pcg(system.matrix, system.rhs, apply, rtol)
    steps = []
    reference, info = spla.cg(system.matrix, system.rhs, rtol=rtol, maxiter=10_000,
                              M=precond, callback=steps.append)
    assert info == 0 and iterations == len(steps) > 0
    assert x.tobytes() == reference.tobytes()


def test_solve_spd_refuses_cr_system_not_sized_to_its_mesh():
    # a CR system numbers its mesh's faces by column, so one of another
    # size, or a hand-built one without the numbering, is refused with both
    # sizes, before the band is built
    mesh = af.generate_aniso_cube(2, 2)
    for n in (3, 104):
        identity = af.SparseSystem(sp.identity(n, format="csr"), np.ones(n), "cr",
                                   mesh, np.zeros(n, dtype=bool))
        with pytest.raises(ValueError, match=rf"size {n} on a mesh with 104 faces"):
            af.solve_spd(identity)


def test_solve_spd_reports_nonconvergence():
    # 1e-14 lies under the 4:16 row's rounding floor of the true residual
    mesh = af.generate_aniso_cube(4, 16)
    system = af.assemble_cr(mesh, CASE.f)
    with pytest.raises(af.SolverError) as err:
        af.solve_spd(system, tol=1e-14)
    assert err.value.residual > 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["p1", "cr", "rt0"])
def test_non_finite_load_is_a_solver_error(kind):
    # a NaN in the load fails the residual check: no all-zero field that
    # reads as converged
    mesh = af.generate_aniso_cube(2, 2)
    assemble = {"p1": af.assemble_p1, "cr": af.assemble_cr,
                "rt0": af.assemble_rt0_mixed}[kind]
    system = assemble(mesh, CASE.f)
    system.rhs[np.flatnonzero(system.rhs)[0]] = np.nan
    solve = af.solve_saddle if kind == "rt0" else af.solve_spd
    with pytest.raises(af.SolverError, match="relative residual nan after 0 "):
        solve(system)


def assert_matches_spsolve(system, field):
    exact = spla.spsolve(system.matrix.tocsc(), system.rhs)
    coeffs = field.coeffs[system.faces]  # in the system's numbering
    assert np.abs(coeffs - exact).max() <= 1e-9 * np.abs(exact).max()


@pytest.mark.parametrize("m, n, jacobi, bound", [(4, 16, 95, 24),
                                                 (8, 64, 371, 42)])
def test_cr_column_preconditioner_iterations(m, n, jacobi, bound):
    # Jacobi-CG takes `jacobi` iterations here, so a silent fall-back fails;
    # the band without its diagonal compensation takes 29 and 51, so losing
    # the compensation fails too
    system = af.assemble_cr(af.generate_aniso_cube(m, n), CASE.f)
    field = af.solve_spd(system)
    assert field.solve_info["iterations"] <= bound < jacobi
    assert field.solve_info["residual"] <= 1e-10
    if m == 4:
        assert_matches_spsolve(system, field)


@pytest.mark.parametrize("mesh", ["4:8", "jittered"])
def test_compensated_column_band_dominates_the_matrix(mesh):
    # A <= B~ with B~ the band plus its diagonal compensation, so the
    # eigenvalues of M A, M = B~^-1, lie in (0, 1]; jittered vertices give
    # narrow bins, so the band drops more couplings there
    mesh = jittered_cube(4, 8) if mesh == "jittered" else af.generate_aniso_cube(4, 8)
    system = af.assemble_cr(mesh, CASE.f)
    apply, _ = af.system._column_band(system.matrix, system.columns)
    n = system.matrix.shape[0]
    precond = apply(np.eye(n))
    # M = L L^T, and L^T A L has the eigenvalues of M A
    lower = np.linalg.cholesky((precond + precond.T) / 2.0)
    dense = system.matrix.toarray()
    eig = np.linalg.eigvalsh(lower.T @ dense @ lower)
    assert eig.min() > 0.0
    assert eig.max() <= 1.0 + 1e-10
    # M inverts B~ formed entry by entry: a_ij inside a column, and
    # d_i = sum over j outside of |a_ij| sqrt(a_jj / a_ii)
    inside = system.columns[:, None] == system.columns[None, :]
    w = np.sqrt(np.diag(dense))
    d = (np.abs(np.where(inside, 0.0, dense)) @ w) / w
    reference = np.where(inside, dense, 0.0) + np.diag(d)
    assert (d > 0).any()
    assert np.abs(precond @ reference - np.eye(n)).max() < 1e-8


def test_face_columns_partition_the_faces():
    m, n = 4, 16
    mesh = af.generate_aniso_cube(m, n)
    order, runs = af.system._face_columns(mesh)
    nf = mesh.faces.n_faces
    # a permutation whose columns are contiguous runs, each bottom to top
    assert np.array_equal(np.sort(order), np.arange(nf))
    assert runs.shape == (nf,)
    assert (np.diff(runs.astype(int)) >= 0).all()
    label = np.empty_like(runs)  # the column of each face
    label[order] = runs
    z = mesh.vertices[mesh.faces.vertices, 2].mean(axis=1)[order]
    assert (np.diff(z)[np.diff(runs) == 0] >= -1e-15).all()
    # the faces strictly inside box column (i, j) make up one column each
    xy = mesh.vertices[mesh.faces.vertices, :2].mean(axis=1) * m
    inside = (np.abs(xy - np.round(xy)) > 1e-9).all(axis=1)
    box = np.floor(xy[inside]).astype(int) @ [m, 1]
    pairs = np.unique(np.stack([box, label[inside]]), axis=1)
    assert pairs.shape[1] == m * m
    assert len(np.unique(pairs[1])) == m * m
    # the CR system numbers its unknowns in this order
    system = af.assemble_cr(mesh, CASE.f)
    assert np.array_equal(system.faces, order)
    assert np.array_equal(system.columns, runs)


def test_face_column_order_is_the_lexsort():
    # the two stable sorts (z, then the narrow-typed labels) give the
    # lexsort order, on bins that are no longer box columns
    mesh = jittered_cube(4, 16)
    order, runs = af.system._face_columns(mesh)
    label = np.empty_like(runs)
    label[order] = runs
    p = mesh.vertices[:, 2][mesh.faces.vertices]
    z = p[:, 0] + ((p[:, 1] - p[:, 0]) + (p[:, 2] - p[:, 0])) / 3.0
    assert np.array_equal(order, np.lexsort((z, label)))


def test_cr_column_preconditioner_off_the_grid():
    # jittered vertices give narrower bins, but the blocks are still exact
    # solves on parts of the matrix, so the contract holds
    mesh = jittered_cube(4, 16)
    assert af.validate_conformity(mesh).ok
    system = af.assemble_cr(mesh, CASE.f)
    assert len(np.unique(system.columns)) > 24  # 24 on the grid
    field = af.solve_spd(system)
    assert field.solve_info["preconditioner"] == "column-band"
    assert field.solve_info["residual"] <= 1e-10
    assert_matches_spsolve(system, field)


def test_solve_info_names_the_preconditioner():
    mesh = af.generate_aniso_cube(2, 4)
    cr = af.solve_spd(af.assemble_cr(mesh, CASE.f)).solve_info
    assert (cr["preconditioner"], cr["bandwidth"]) == ("column-band", 5)
    p1 = af.solve_spd(af.assemble_p1(mesh, CASE.f)).solve_info
    assert (p1["preconditioner"], p1["bandwidth"]) == ("jacobi", 0)
    # the RT0 field reports the CR solve it was rebuilt from
    cr_field, gamma = af.enriched_cr_solve(mesh, CASE.f)
    rt, _ = af.marini_reconstruct(mesh, cr_field, gamma)
    assert rt.solve_info == cr_field.solve_info
    assert rt.solve_info["preconditioner"] == "column-band"


def test_galerkin_consistency():
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_cr(mesh, CASE.f)
    field = af.solve_spd(system, tol=1e-10)
    res = np.linalg.norm(system.rhs - system.matrix @ field.coeffs[system.faces])
    assert res <= 1e-10 * np.linalg.norm(system.rhs)


def test_rt0_zero_rhs():
    mesh = af.generate_aniso_cube(2, 2)
    system = af.assemble_rt0_mixed(mesh, lambda x, y, z: np.zeros_like(x))
    field = af.solve_saddle(system)
    assert np.abs(field.coeffs).max() == 0.0
    assert np.abs(field.cell_coeffs).max() == 0.0
    assert field.solve_info == {"iterations": 0, "residual": 0.0, "tol": 1e-10}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["exact", "overflow"])
def test_singular_saddle_system_is_a_solver_error(kind):
    # a failed factor or a non-finite solution is reported as a solver
    # failure, with no warning and no NaN field
    system = singular_saddle_system(af.generate_aniso_cube(2, 2), kind)
    with pytest.raises(af.SolverError, match="sparse LU failed" if kind == "exact"
                       else "relative residual inf"):
        af.solve_saddle(system)


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
    nf = mesh.faces.n_faces
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
    assert mesh.faces.n_faces == 1440
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
