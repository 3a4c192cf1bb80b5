import cProfile
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import anisofem as af
from anisofem import geometry
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
    # the unknowns are the free vertices; the mask covers all of them
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_p1(mesh, CASE.f)
    assert system.matrix.shape == (63, 63) and system.rhs.shape == (63,)
    assert system.constrained.shape == (225,)
    assert int((~system.constrained).sum()) == (4 - 1) ** 2 * (8 - 1)


def test_unconstrained_stiffness_annihilates_constants():
    # the stiffness of a constant is zero, and dropping the constrained
    # columns leaves the rows of DOFs with no constrained DOF on any of their
    # tets as they are
    mesh = af.generate_aniso_cube(4, 8)
    for assemble, dofs in ((af.assemble_p1, mesh.tets),
                           (af.assemble_cr, mesh.faces.tet_faces)):
        system = assemble(mesh, CASE.f)
        near = system.constrained.copy()
        near[dofs[system.constrained[dofs].any(axis=1)]] = True
        far = ~near[~system.constrained]  # over the unknowns, in order
        assert far.any() and not far.all()
        sums = system.matrix @ np.ones(system.matrix.shape[0])
        assert np.abs(sums[far]).max() < 1e-13 * np.abs(system.matrix.data).max()
        assert np.abs(sums[~far]).max() > 1e-3 * np.abs(system.matrix.data).max()


def test_cr_dimensions_published_row():
    # the unknowns are the interior faces; the mask covers all 1440
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_cr(mesh, CASE.f)
    assert system.matrix.shape == (1120, 1120) and system.rhs.shape == (1120,)
    assert system.constrained.shape == (1440,)
    assert int(system.constrained.sum()) == 320


def test_assembled_matrices_exactly_symmetric():
    mesh = af.generate_aniso_cube(2, 2)
    for system in (af.assemble_p1(mesh, CASE.f), af.assemble_cr(mesh, CASE.f),
                   af.assemble_rt0_mixed(mesh, CASE.f)):
        diff = (system.matrix - system.matrix.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def system_dofs(element, mesh):
    """(dofs (nt, 4), constrained): the DOF numbers of the P1 or CR system
    on each tet, and the mask of the boundary vertices or faces, found from
    the cube's faces and the face table: the boundary faces come after the
    interior ones, and P1 ranks the vertices off the boundary first, in
    vertex order."""
    faces = mesh.faces
    if element == "cr":
        return faces.tet_faces, faces.boundary
    on_cube = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
    rank = np.empty(mesh.n_vertices, dtype=np.int64)
    rank[np.argsort(on_cube, kind="stable")] = np.arange(mesh.n_vertices)
    return rank[mesh.tets], on_cube


def coo_scatter(element, mesh, f):
    """The P1 or CR matrix and load on every DOF, in the system's numbering,
    through a COO scatter of all local matrices, summed by ``tocsr``, and the
    mask of the boundary DOFs."""
    dofs, constrained = system_dofs(element, mesh)
    v = mesh.tet_vertices()
    grads = tet_gradients(v)
    rule = af.tet_rule_degree5()
    basis = rule.points
    if element == "cr":
        grads, basis = cr_gradients(grads), cr_shape(rule.points)
    vols = np.abs(signed_volumes(v))
    local = vols[:, None, None] * np.einsum("tik,tjk->tij", grads, grads)
    if callable(f):
        loads = vols[:, None] * np.einsum("q,qi,tq->ti", rule.weights, basis,
                                          sample(rule, v, f)[0])
    else:
        loads = np.repeat((vols * f / 4.0)[:, None], 4, axis=1)
    size = int(dofs.max()) + 1
    matrix = sp.coo_matrix((local.ravel(), (np.repeat(dofs, 4, axis=1).ravel(),
                                            np.tile(dofs, (1, 4)).ravel())),
                           shape=(size, size)).tocsr()
    rhs = np.bincount(dofs.ravel(), weights=loads.ravel(), minlength=size)
    return matrix, rhs, constrained


def free_block(matrix, rhs, n):
    """The rows and columns of DOFs 0 .. n-1 of the symmetric elimination of
    the DOFs n and above as a sparse product, diag(free) A diag(free) +
    diag(constrained), and of the zeroed load."""
    constrained = np.arange(len(rhs)) >= n
    keep = sp.diags((~constrained).astype(float))
    matrix = (keep @ matrix @ keep + sp.diags(constrained.astype(float))).tocsr()
    return matrix[:n, :n], np.where(constrained, 0.0, rhs)[:n]


def built(element, mesh, f, n):
    """The library's own matrix and load of DOFs 0 .. n-1 for any n: its
    block kernel and CSR builder, the slots ordered by a stable argsort."""
    dofs, _ = system_dofs(element, mesh)
    return _assemble(dofs, np.argsort(dofs.ravel(), kind="stable"),
                     _local_kernel(element, mesh, f), n)


def oracle_case(mesh, data):
    mesh = jittered_cube(4, 4) if mesh == "jittered" else af.generate_aniso_cube(4, 8)
    data = af.p0_project(mesh.tet_vertices(), CASE.f) if data == "means" else CASE.f
    return mesh, data


def assert_same_bits(a, b, name):
    assert a.dtype == b.dtype, name
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("assemble", [af.assemble_p1, af.assemble_cr])
def test_constraints_in_place_match_product_form(assemble):
    # oracle: the free block of diag(free) A diag(free) + diag(constrained)
    # on the matrix the same kernel and builder give with no DOF
    # constrained, the symmetric elimination as a sparse product
    for mesh in ("4:8", "jittered"):
        mesh, _ = oracle_case(mesh, "f")
        system = assemble(mesh, CASE.f)
        matrix, rhs = built(system.kind, mesh, CASE.f, len(system.constrained))
        oracle, rhs = free_block(matrix, rhs, system.matrix.shape[0])
        for attr in ("indptr", "indices", "data"):
            assert_same_bits(getattr(system.matrix, attr), getattr(oracle, attr), attr)
        assert_same_bits(system.rhs, rhs, "rhs")


@pytest.mark.parametrize("data", ["f", "means"])
@pytest.mark.parametrize("mesh", ["4:8", "jittered"])
@pytest.mark.parametrize("element", ["p1", "cr"])
def test_assembly_matches_coo_oracle(element, mesh, data):
    # the builder drops the constrained rows and columns of the local
    # matrices after sorting each row with them, so it must give the free
    # block of the scatter with the elimination applied afterwards, bit for
    # bit: CR sums only the diagonal from two local entries, and a + b = b + a
    mesh, data = oracle_case(mesh, data)
    assemble = af.assemble_p1 if element == "p1" else af.assemble_cr
    system = assemble(mesh, data)
    matrix, rhs, constrained = coo_scatter(element, mesh, data)
    assert np.array_equal(system.constrained, constrained)
    matrix, rhs = free_block(matrix, rhs, int((~constrained).sum()))
    for attr in ("indptr", "indices", "data"):
        assert_same_bits(getattr(system.matrix, attr), getattr(matrix, attr), attr)
    assert_same_bits(system.rhs, rhs, "rhs")


@pytest.mark.parametrize("mesh, data, constrain", [
    ("4:8", "f", True),
    ("4:8", "f", False),
])
def test_cr_assembly_matches_coo_oracle(mesh, data, constrain):
    # the CR builder against the scatter for counts n of free DOFs that
    # assemble_cr never passes: every face, and the interior faces less their
    # last third, so that interior faces, with a local row on each side, are
    # dropped too; the builder drops the exact zeros of the local matrices,
    # as the product form does
    mesh, data = oracle_case(mesh, data)
    matrix, rhs, boundary = coo_scatter("cr", mesh, data)
    interior = int((~boundary).sum())
    n = interior - interior // 3 if constrain else len(rhs)
    matrix, rhs = free_block(matrix, rhs, n)
    table_matrix, table_rhs = built("cr", mesh, data, n)
    for attr in ("indptr", "indices", "data"):
        assert_same_bits(getattr(table_matrix, attr), getattr(matrix, attr), attr)
    assert_same_bits(table_rhs, rhs, "rhs")


@pytest.mark.parametrize("assemble", [af.assemble_p1, af.assemble_cr])
def test_assembly_under_a_profiler(assemble):
    # the builder shrinks the arrays that own the sums in place, which a
    # profiler's extra references to them must not stop
    mesh = af.generate_aniso_cube(2, 2)
    plain = assemble(mesh, CASE.f)
    profiled = cProfile.Profile().runcall(assemble, mesh, CASE.f)
    for attr in ("indptr", "indices", "data"):
        assert_same_bits(getattr(profiled.matrix, attr), getattr(plain.matrix, attr), attr)


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


def system_and_preconditioner(assemble, m, n):
    """A P1 or CR system of the m:n mesh and solve_spd's apply r, z -> z."""
    system = assemble(af.generate_aniso_cube(m, n), CASE.f)
    if system.kind == "cr":
        columns = system.mesh.faces.columns[:system.matrix.shape[0]]
        return system, af.system._column_band(system.matrix, columns)[0]
    inv = 1.0 / system.matrix.diagonal()
    return system, lambda r, z: np.multiply(inv, r, out=z)


@pytest.mark.parametrize("assemble", [af.assemble_p1, af.assemble_cr])
def test_cg_loop_matches_scipy(assemble):
    # the package's loop runs scipy 1.17's cg operation for operation: with
    # the same preconditioner, on the system's own numbering, both give the
    # same iterates bit for bit, and the same iteration count
    system, apply = system_and_preconditioner(assemble, 4, 8)
    precond = spla.LinearOperator(system.matrix.shape, dtype=float,
                                  matvec=lambda r: apply(r, np.empty_like(r)))
    rtol = 1e-10 / 4.0
    x, iterations = af.system._pcg(system.matrix, system.rhs, apply, rtol)
    steps = []
    reference, info = spla.cg(system.matrix, system.rhs, rtol=rtol, maxiter=10_000,
                              M=precond, callback=steps.append)
    assert info == 0 and iterations == len(steps) > 0
    assert x.tobytes() == reference.tobytes()


def allocating_pcg(matrix, rhs, precondition, rtol):
    """``system._pcg`` as it was before its fixed buffers: a new z from each
    apply r -> z, a new p on the first step, and temporaries for alpha p and
    alpha q."""
    x, scale = np.zeros_like(rhs), np.linalg.norm(rhs)
    if not 0.0 < scale < np.inf:
        return x, 0
    atol, r = rtol * scale, rhs.copy()
    for iteration in range(10 * len(rhs)):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = precondition(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matrix @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, 10 * len(rhs)


@pytest.mark.parametrize("assemble", [af.assemble_p1, af.assemble_cr])
def test_buffered_cg_matches_the_allocating_loop(assemble):
    # the same operations in the same order, only into fixed buffers: the
    # same iteration count and the same solution bits (both loops run in one
    # process, so under one BLAS thread count)
    system, apply = system_and_preconditioner(assemble, 4, 16)
    rtol = 1e-10 / 4.0
    x, iterations = af.system._pcg(system.matrix, system.rhs, apply, rtol)
    reference, steps = allocating_pcg(system.matrix, system.rhs,
                                      lambda r: apply(r, np.empty_like(r)), rtol)
    assert iterations == steps > 0
    assert np.array_equal(x, reference)


def test_cg_holds_five_vectors():
    # x, r, p, z and the matvec's q: the allocating loop peaks at 6.0
    # vectors of the unknowns here
    system, apply = system_and_preconditioner(af.assemble_cr, 8, 64)
    n = system.matrix.shape[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        af.system._pcg(system.matrix, system.rhs, apply, 1e-10 / 4.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) <= 5.2


def test_solve_spd_refuses_cr_system_not_sized_to_its_mesh():
    # a CR system's unknowns are its mesh's faces, so one of another size is
    # refused with both sizes, before the band is built; a hand-built one of
    # the right size is solved
    mesh = af.generate_aniso_cube(2, 2)

    def identity(n):
        return af.SparseSystem(sp.identity(n, format="csr"), np.ones(n), "cr",
                               mesh, np.zeros(n, dtype=bool))

    for n in (3, 105):
        with pytest.raises(ValueError, match=rf"size {n} on a mesh with 104 faces$"):
            af.solve_spd(identity(n))
    assert np.array_equal(af.solve_spd(identity(104)).coeffs, np.ones(104))


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
    # the unknowns, then zero on the constrained DOFs
    exact = spla.spsolve(system.matrix.tocsc(), system.rhs)
    coeffs = field.coeffs[~system.constrained]
    assert np.abs(coeffs - exact).max() <= 1e-9 * np.abs(exact).max()
    assert not field.coeffs[system.constrained].any()


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
    n = system.matrix.shape[0]
    columns = mesh.faces.columns[:n]  # the unknowns' columns
    apply, _ = af.system._column_band(system.matrix, columns)
    precond = apply(np.eye(n), np.empty((n, n), order="F"))
    # M = L L^T, and L^T A L has the eigenvalues of M A
    lower = np.linalg.cholesky((precond + precond.T) / 2.0)
    dense = system.matrix.toarray()
    eig = np.linalg.eigvalsh(lower.T @ dense @ lower)
    assert eig.min() > 0.0
    assert eig.max() <= 1.0 + 1e-10
    # M inverts B~ formed entry by entry: a_ij inside a column, and
    # d_i = sum over j outside of |a_ij| sqrt(a_jj / a_ii)
    inside = columns[:, None] == columns[None, :]
    w = np.sqrt(np.diag(dense))
    d = (np.abs(np.where(inside, 0.0, dense)) @ w) / w
    reference = np.where(inside, dense, 0.0) + np.diag(d)
    assert (d > 0).any()
    assert np.abs(precond @ reference - np.eye(n)).max() < 1e-8


@pytest.mark.parametrize("mesh", ["2:2", "4:8", "jittered"])
def test_column_band_width_is_the_farthest_coupling_in_a_column(mesh, monkeypatch):
    # the half-width the band learns in its one pass over the rows is the
    # largest j - i over the nonzero a_ij of the dense matrix with i and j in
    # one column; in blocks of 7 rows the band widens as later blocks reach
    # farther, to the same factor
    mesh = (jittered_cube(4, 8) if mesh == "jittered"
            else af.generate_aniso_cube(*map(int, mesh.split(":"))))
    system = af.assemble_cr(mesh, CASE.f)
    n = system.matrix.shape[0]
    columns = mesh.faces.columns[:n]
    i, j = np.nonzero(system.matrix.toarray())
    inside = columns[i] == columns[j]
    apply, width = af.system._column_band(system.matrix, columns)
    assert width == (j - i)[inside].max() > 0
    monkeypatch.setattr(geometry, "BLOCK", 7)
    small, small_width = af.system._column_band(system.matrix, columns)
    r = np.random.default_rng(8).standard_normal(n)
    assert small_width == width
    assert small(r, np.empty(n)).tobytes() == apply(r, np.empty(n)).tobytes()


def test_cr_column_preconditioner_off_the_grid():
    # jittered vertices give narrower bins, but the blocks are still exact
    # solves on parts of the matrix, so the contract holds
    mesh = jittered_cube(4, 16)
    assert af.validate_conformity(mesh).ok
    system = af.assemble_cr(mesh, CASE.f)
    assert len(np.unique(mesh.faces.columns)) > 24  # 24 on the grid
    field = af.solve_spd(system)
    assert field.solve_info["preconditioner"] == "column-band"
    assert field.solve_info["residual"] <= 1e-10
    assert_matches_spsolve(system, field)


def test_solve_info_names_the_preconditioner():
    # and the unknowns CG ran over: the interior faces (200 less 80 on the
    # boundary) and the free vertices (3 of 45)
    mesh = af.generate_aniso_cube(2, 4)
    keys = ("preconditioner", "bandwidth", "unknowns", "tol")
    cr = af.solve_spd(af.assemble_cr(mesh, CASE.f)).solve_info
    assert cr.keys() == {"iterations", "residual", *keys}
    assert {k: cr[k] for k in keys} == {"preconditioner": "column-band", "bandwidth": 5,
                                        "unknowns": 120, "tol": 1e-10}
    p1 = af.solve_spd(af.assemble_p1(mesh, CASE.f)).solve_info
    assert p1.keys() == {"iterations", "residual", *keys}
    assert {k: p1[k] for k in keys} == {"preconditioner": "jacobi", "bandwidth": 0,
                                        "unknowns": 3, "tol": 1e-10}
    # the RT0 field reports the CR solve it was rebuilt from
    cr_field, gamma = af.enriched_cr_solve(mesh, CASE.f)
    rt, _ = af.marini_reconstruct(mesh, cr_field, gamma)
    assert rt.solve_info == cr_field.solve_info
    assert rt.solve_info["preconditioner"] == "column-band"


def test_galerkin_consistency():
    mesh = af.generate_aniso_cube(4, 8)
    system = af.assemble_cr(mesh, CASE.f)
    field = af.solve_spd(system, tol=1e-10)
    res = np.linalg.norm(system.rhs - system.matrix @ field.coeffs[~system.constrained])
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


def test_mixed_assembly_computes_face_geometry_once(monkeypatch):
    # the B block's areas and the mass matrix's scales share one per-tet pass
    calls = []

    def counted(mesh):
        calls.append(mesh)
        return geometry.local_face_geometry(mesh)

    monkeypatch.setattr(af.system, "local_face_geometry", counted)
    af.assemble_rt0_mixed(af.generate_aniso_cube(2, 2), CASE.f)
    assert len(calls) == 1


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
