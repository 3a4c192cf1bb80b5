import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anisofem as af
from anisofem.mesh import Mesh, face_traces

from conftest import CASE


def brute_force_faces(tets):
    counter = {}
    for tet in tets:
        for tri in itertools.combinations(sorted(tet), 3):
            counter[tri] = counter.get(tri, 0) + 1
    return counter


@pytest.mark.parametrize("m,n,verts,tets,faces", [
    (4, 8, 225, 640, 1440),      # published study rows
    (8, 22, 1863, 7040, 14912),
    (2, 2, 27, 40, 104),
])
def test_generated_counts(m, n, verts, tets, faces):
    mesh = af.generate_aniso_cube(m, n)
    assert mesh.n_vertices == verts
    assert mesh.n_tets == tets
    assert mesh.faces.n_faces == faces


@pytest.mark.parametrize("m,n,boundary", [(2, 2, 48), (4, 8, 320)])
def test_boundary_face_counts(m, n, boundary):
    mesh = af.generate_aniso_cube(m, n)
    assert int(mesh.faces.boundary.sum()) == boundary
    assert boundary == 2 * (2 * m * m + 4 * m * n)


def test_face_table_against_brute_force_enumeration():
    # the slot keys use the narrowest unsigned type of the vertex ids: pad
    # puts that many unused vertices first, so that at 60,000 the uint16
    # vertex sums wrap around and at 70,000 the keys are uint32
    base = af.generate_aniso_cube(2, 2)
    for pad in (0, 60_000, 70_000):
        mesh = Mesh(np.vstack([np.zeros((pad, 3)), base.vertices]), base.tets + pad)
        counter = brute_force_faces(mesh.tets)
        table = mesh.faces
        assert table.vertices.dtype == np.int64
        assert table.n_faces == len(counter)
        assert list(map(tuple, table.vertices)) == sorted(counter)
        for tri, row, bnd in zip(table.vertices, table.sides // 4, table.boundary):
            assert counter[tuple(tri)] == (1 if bnd else 2)
            assert (row >= 0).sum() == counter[tuple(tri)]


@settings(derandomize=True, database=None, deadline=None)
@given(m=st.sampled_from([2, 4]), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       b=st.lists(st.floats(-1, 1), min_size=3, max_size=3))
def test_face_table_properties_under_relabelling(m, n, seed, b):
    # a random tet permutation and vertex relabelling of a generated mesh
    base = af.generate_aniso_cube(m, n)
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(base.n_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[relabel] = base.vertices
    perm = rng.permutation(base.n_tets)
    mesh = Mesh(vertices, relabel[base.tets[perm]])
    table = mesh.faces
    counter = brute_force_faces(mesh.tets)

    def triple(slot):
        # local face i of tet t is opposite its vertex i
        t, i = divmod(int(slot), 4)
        return tuple(sorted(np.delete(mesh.tets[t], i)))

    assert list(map(tuple, table.vertices)) == sorted(counter)
    for f, (tri, (s0, s1)) in enumerate(zip(map(tuple, table.vertices), table.sides)):
        assert table.boundary[f] == (counter[tri] == 1) == (s1 == -1)
        assert triple(s0) == tri
        assert s1 == -1 or (s0 < s1 and triple(s1) == tri)
    for slot, f in enumerate(table.tet_faces.ravel()):
        assert triple(slot) == tuple(table.vertices[f])
    first = np.zeros(4 * mesh.n_tets, dtype=bool)
    first[table.sides[:, 0]] = True
    assert np.array_equal(table.tet_face_signs.ravel() == 1.0, first)
    assert np.abs(table.tet_face_signs).min() == 1.0

    # a globally constant field has the same normal trace from both sides
    _, gap = face_traces(mesh, np.zeros(mesh.n_tets), np.tile(b, (mesh.n_tets, 1)))
    assert gap <= 1e-14

    # assembly does not depend on the ordering: matrices and right-hand sides
    # agree entry for entry through the vertex and face correspondence
    face_map = np.empty(base.faces.n_faces, dtype=np.int64)
    face_map[base.faces.tet_faces[perm]] = table.tet_faces
    for assemble, dof_map in ((af.assemble_p1, relabel), (af.assemble_cr, face_map)):
        (old, old_rhs), (new, new_rhs) = (by_dof(assemble(on, CASE.f))
                                          for on in (base, mesh))
        np.testing.assert_allclose(new[np.ix_(dof_map, dof_map)], old,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(new_rhs[dof_map], old_rhs, rtol=1e-13, atol=0.0)


def by_dof(system):
    """The dense matrix and the load of a P1 or CR system, rows in vertex or
    face order: the CR unknowns run column by column, unknown k on face
    system.faces[k]."""
    rows = (np.arange(len(system.rhs)) if system.faces is None
            else np.argsort(system.faces))
    return system.matrix.toarray()[np.ix_(rows, rows)], system.rhs[rows]


def check_volume_counts_and_orientation(m, n):
    mesh = af.generate_aniso_cube(m, n)
    vols = af.element_volumes(mesh)
    assert abs(vols.sum() - 1.0) < 1e-12
    assert mesh.n_vertices == (m + 1) ** 2 * (n + 1)
    assert mesh.n_tets == 5 * m * m * n
    assert mesh.faces.n_faces == 10 * m * m * n + 2 * m * m + 4 * m * n
    report = af.validate_conformity(mesh)
    assert report.ok and report.orientation_ok


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (4, 8), (6, 5)])
def test_volume_partition_and_orientation(m, n):
    check_volume_counts_and_orientation(m, n)


@settings(derandomize=True, database=None, deadline=None)
@given(m=st.sampled_from([2, 4, 6]), n=st.integers(1, 5))
def test_volume_partition_over_divisions(m, n):
    check_volume_counts_and_orientation(m, n)


def test_incidence_identity():
    for m, n in [(2, 2), (4, 4), (4, 8)]:
        mesh = af.generate_aniso_cube(m, n)
        hist = af.validate_conformity(mesh).incidence_histogram
        assert 2 * hist[2] + hist[1] == 4 * mesh.n_tets


def test_vertex_indexing_convention():
    m, n = 4, 6
    mesh = af.generate_aniso_cube(m, n)
    rng = np.random.default_rng(3)
    for _ in range(30):
        i, j = rng.integers(0, m + 1, 2)
        k = rng.integers(0, n + 1)
        idx = i + (m + 1) * j + (m + 1) ** 2 * k
        assert np.allclose(mesh.vertices[idx], (i / m, j / m, k / n))


@pytest.mark.parametrize("m,n", [(3, 4), (1, 1), (0, 2), (4, 0), (-2, 3)])
def test_rejects_bad_divisions(m, n):
    with pytest.raises(ValueError):
        af.generate_aniso_cube(m, n)


def test_single_tet_face_table():
    mesh = Mesh(np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                np.array([[0, 1, 2, 3]]))
    table = af.build_face_table(mesh)
    assert table.n_faces == 4
    assert table.boundary.all()
    # every face of a lone tet is oriented by its own outward normal
    assert (table.tet_face_signs == 1.0).all()


def test_interior_normals_oppose():
    mesh = af.generate_aniso_cube(2, 2)
    table = mesh.faces
    centroids = mesh.tet_vertices().mean(axis=1)
    # the global normal of a face is each side's outward normal times its sign
    _, outward, _ = af.geometry.local_face_geometry(mesh)
    oriented = outward * table.tet_face_signs[:, :, None]
    for f in np.nonzero(~table.boundary)[0]:
        (t0, i0), (t1, i1) = divmod(table.sides[f, 0], 4), divmod(table.sides[f, 1], 4)
        assert table.tet_faces[t0, i0] == table.tet_faces[t1, i1] == f
        assert table.tet_face_signs[t0, i0] == 1.0
        assert table.tet_face_signs[t1, i1] == -1.0
        n0, n1 = oriented[t0, i0], oriented[t1, i1]
        assert np.abs(n0 - n1).max() < 1e-12
        # outward from t0, inward to t1
        point = mesh.vertices[table.vertices[f][0]]
        assert np.dot(n0, centroids[t0] - point) < 0
        assert np.dot(n0, centroids[t1] - point) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_face_traces_against_direct_evaluation():
    mesh = af.generate_aniso_cube(4, 8)
    faces = mesh.faces
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, mesh.n_tets)
    b = rng.uniform(-1.0, 1.0, (mesh.n_tets, 3))
    flux, gap = face_traces(mesh, a, b)

    # each face's corners, centroid and a unit normal pointing out of its
    # first-side tet, taken from the face triple alone
    p = mesh.vertices[faces.vertices]
    centroid = p.mean(axis=1)
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    n /= np.linalg.norm(n, axis=1)[:, None]
    t0, i0 = np.divmod(faces.sides[:, 0], 4)
    apex = mesh.vertices[mesh.tets[t0, i0]]
    n[np.einsum("fd,fd->f", n, apex - p[:, 0]) > 0] *= -1.0

    def trace(t, f=slice(None)):
        return np.einsum("fd,fd->f", a[t, None] * centroid[f] - b[t], n[f])

    expected = trace(t0)
    np.testing.assert_allclose(flux, expected, rtol=1e-13,
                               atol=1e-13 * np.abs(expected).max())
    inner = ~faces.boundary
    worst = np.abs(expected[inner] - trace(faces.sides[inner, 1] // 4, inner)).max()
    assert worst > 0.1 and abs(gap - worst) <= 1e-13 * worst


def test_deterministic_rebuild():
    a = af.generate_aniso_cube(4, 8)
    b = af.generate_aniso_cube(4, 8)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.tets, b.tets)
    assert np.array_equal(a.faces.vertices, b.faces.vertices)
    # lexicographic face order
    keys = [tuple(t) for t in a.faces.vertices]
    assert keys == sorted(keys)


def test_validate_flags_missing_tet():
    mesh = af.generate_aniso_cube(2, 2)
    # drop an interior-touching tet: some face now has one incident tet but
    # does not lie on the cube boundary
    broken = Mesh(mesh.vertices.copy(), mesh.tets[1:].copy())
    report = af.validate_conformity(broken)
    assert not report.ok
    assert any("volume" in msg or "singly-incident" in msg
               for msg in report.messages)
    assert any("singly-incident" in msg for msg in report.messages)


def test_validate_flags_flipped_tet():
    mesh = af.generate_aniso_cube(2, 2)
    tets = mesh.tets.copy()
    tets[0] = tets[0][[0, 1, 3, 2]]
    report = af.validate_conformity(Mesh(mesh.vertices.copy(), tets))
    assert not report.orientation_ok
    assert not report.ok


def test_nonmanifold_raises():
    verts = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0],
                      [0, 0, 1], [0, 0, -1], [1, 1, 1]])
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(ValueError, match="non-manifold"):
        af.build_face_table(Mesh(verts, tets))


def test_vtk_export(tmp_path):
    mesh = af.generate_aniso_cube(2, 2)
    path = tmp_path / "mesh.vtk"
    af.write_vtk(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in lines
    pts_at = lines.index(f"POINTS {mesh.n_vertices} double")
    first = np.array(lines[pts_at + 1].split(), dtype=float)
    assert np.allclose(first, mesh.vertices[0])
    assert lines.count("10") == mesh.n_tets
