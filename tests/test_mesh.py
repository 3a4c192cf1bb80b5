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
    mesh = af.generate_aniso_cube(2, 2)
    counter = brute_force_faces(mesh.tets)
    table = mesh.faces
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
        old, new = assemble(base, CASE.f), assemble(mesh, CASE.f)
        np.testing.assert_allclose(new.matrix.toarray()[np.ix_(dof_map, dof_map)],
                                   old.matrix.toarray(), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(new.rhs[dof_map], old.rhs, rtol=1e-13, atol=0.0)


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
    assert np.allclose(np.linalg.norm(table.normals, axis=1), 1.0, atol=1e-14)


def test_interior_normals_oppose():
    mesh = af.generate_aniso_cube(2, 2)
    table = mesh.faces
    centroids = mesh.tet_vertices().mean(axis=1)
    # outward normals recomputed independently per tet and local face
    _, outward, _ = af.geometry.local_face_geometry(mesh)
    for f in np.nonzero(~table.boundary)[0]:
        t0, t1 = table.sides[f] // 4
        point = mesh.vertices[table.vertices[f][0]]
        n = table.normals[f]
        # outward from t0, inward to t1
        assert np.dot(n, centroids[t0] - point) < 0
        assert np.dot(n, centroids[t1] - point) > 0
        assert table.tet_face_signs[t0][table.tet_faces[t0] == f] == 1.0
        assert table.tet_face_signs[t1][table.tet_faces[t1] == f] == -1.0
        n0 = outward[t0, table.tet_faces[t0] == f][0]
        n1 = outward[t1, table.tet_faces[t1] == f][0]
        assert abs(np.dot(n0, n1) + 1.0) < 1e-12


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
