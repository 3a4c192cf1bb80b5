import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anisofem as af
from anisofem.geometry import signed_volumes
from anisofem.mesh import _SPLIT_EVEN, _SPLIT_ODD, Mesh, _index_type, face_traces

from conftest import CASE, assert_conforming, jittered_cube

# the 5-tet splits as first written, before their rows were oriented
UNORIENTED_EVEN = [[0, 3, 5, 6], [1, 0, 3, 5], [2, 0, 3, 6], [4, 0, 5, 6], [7, 3, 5, 6]]
UNORIENTED_ODD = [[1, 2, 4, 7], [0, 1, 2, 4], [3, 1, 2, 7], [5, 1, 4, 7], [6, 2, 4, 7]]
# corner b = di + 2 dj + 4 dk of the unit box
UNIT_BOX = np.array([[b & 1, (b >> 1) & 1, b >> 2] for b in range(8)], dtype=float)


def brute_force_faces(tets):
    counter = {}
    for tet in tets:
        for tri in itertools.combinations(sorted(tet), 3):
            counter[tri] = counter.get(tri, 0) + 1
    return counter


def centroid(mesh, d):
    """Coordinate d of each face centroid, as the face table computes it."""
    p = mesh.vertices[:, d][mesh.face_vertices()]
    return p[:, 0] + ((p[:, 1] - p[:, 0]) + (p[:, 2] - p[:, 0])) / 3.0


def assert_column_order(mesh, counter):
    """The faces are the brute-force face set, interior faces first, each
    part in column order: columns nondecreasing, centroid z nondecreasing
    within a column, and ties in sorted-triple order."""
    table = mesh.faces
    assert sorted(map(tuple, mesh.face_vertices())) == sorted(counter)
    assert (np.diff(table.boundary.astype(np.int64)) >= 0).all()
    for part in (~table.boundary, table.boundary):
        assert (np.diff(table.columns[part].astype(np.int64)) >= 0).all()
    keys = (*mesh.face_vertices().T[::-1], centroid(mesh, 2), table.columns,
            table.boundary)
    assert np.array_equal(np.lexsort(keys), np.arange(table.n_faces))


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
    # puts that many unused vertices first, so that at 60,000 the keys are
    # uint16 and at 70,000 uint32; the triples come back as signed int32
    base = af.generate_aniso_cube(2, 2)
    for pad in (0, 60_000, 70_000):
        mesh = Mesh(np.vstack([np.zeros((pad, 3)), base.vertices]), base.tets + pad)
        counter = brute_force_faces(mesh.tets)
        table = mesh.faces
        assert mesh.face_vertices().dtype == np.int32
        assert table.n_faces == len(counter)
        assert_column_order(mesh, counter)
        for tri, row, bnd in zip(mesh.face_vertices(), table.sides // 4, table.boundary):
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

    assert_column_order(mesh, counter)
    triples = list(map(tuple, mesh.face_vertices()))
    for f, (tri, (s0, s1)) in enumerate(zip(triples, table.sides)):
        assert table.boundary[f] == (counter[tri] == 1) == (s1 == -1)
        assert triple(s0) == tri
        assert s1 == -1 or (s0 < s1 and triple(s1) == tri)
    for slot, f in enumerate(table.tet_faces.ravel()):
        assert triple(slot) == triples[f]
    first = np.zeros(4 * mesh.n_tets, dtype=bool)
    first[table.sides[:, 0]] = True
    assert np.array_equal(table.tet_face_signs.ravel() == 1.0, first)
    assert np.abs(table.tet_face_signs).min() == 1.0

    # a globally constant field has the same normal trace from both sides
    _, gap = face_traces(mesh, np.zeros(mesh.n_tets), np.tile(b, (mesh.n_tets, 1)))
    assert gap <= 1e-14

    # assembly does not depend on the ordering: matrices and right-hand sides,
    # put on every DOF, agree entry for entry through the vertex and face
    # correspondence
    face_map = np.empty(base.faces.n_faces, dtype=np.int64)
    face_map[base.faces.tet_faces[perm]] = table.tet_faces
    for assemble, dof_map in ((af.assemble_p1, relabel), (af.assemble_cr, face_map)):
        old, new = (on_every_dof(assemble(on, CASE.f)) for on in (base, mesh))
        np.testing.assert_allclose(new[0][np.ix_(dof_map, dof_map)], old[0],
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(new[1][dof_map], old[1], rtol=1e-13, atol=0.0)


def on_every_dof(system):
    """The dense matrix and load of a P1 or CR system on all its DOFs, the
    free ones in order, zero on the constrained ones."""
    free = np.flatnonzero(~system.constrained)
    matrix = np.zeros((len(system.constrained),) * 2)
    matrix[np.ix_(free, free)] = system.matrix.toarray()
    rhs = np.zeros(len(system.constrained))
    rhs[free] = system.rhs
    return matrix, rhs


def check_volume_counts_and_orientation(m, n):
    mesh = af.generate_aniso_cube(m, n)
    vols = af.element_volumes(mesh)
    assert abs(vols.sum() - 1.0) < 1e-12
    assert mesh.n_vertices == (m + 1) ** 2 * (n + 1)
    assert mesh.n_tets == 5 * m * m * n
    assert mesh.faces.n_faces == 10 * m * m * n + 2 * m * m + 4 * m * n
    assert_conforming(mesh)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (4, 8), (6, 5)])
def test_volume_partition_and_orientation(m, n):
    check_volume_counts_and_orientation(m, n)


@settings(derandomize=True, database=None, deadline=None)
@given(m=st.sampled_from([2, 4, 6]), n=st.integers(1, 5))
def test_volume_partition_over_divisions(m, n):
    check_volume_counts_and_orientation(m, n)


def test_incidence_identity():
    for m, n in [(2, 2), (4, 4), (4, 8)]:
        assert_conforming(af.generate_aniso_cube(m, n))


def test_vertex_indexing_convention():
    m, n = 4, 6
    mesh = af.generate_aniso_cube(m, n)
    rng = np.random.default_rng(3)
    for _ in range(30):
        i, j = rng.integers(0, m + 1, 2)
        k = rng.integers(0, n + 1)
        idx = i + (m + 1) * j + (m + 1) ** 2 * k
        assert np.allclose(mesh.vertices[idx], (i / m, j / m, k / n))


def reference_cube(m, n):
    """(vertices, tets) of the cube mesh built box by box from the unoriented
    splits, every tet of negative volume flipped by swapping its last two
    vertices."""
    mp = m + 1
    vertices = np.array([(i / m, j / m, k / n) for k in range(n + 1)
                         for j in range(mp) for i in range(mp)])
    tets = []
    for k, j, i in itertools.product(range(n), range(m), range(m)):
        corner = [i + (b & 1) + mp * (j + ((b >> 1) & 1)) + mp * mp * (k + (b >> 2))
                  for b in range(8)]
        split = UNORIENTED_ODD if (i + j + k) % 2 else UNORIENTED_EVEN
        tets += [[corner[c] for c in row] for row in split]
    tets = np.array(tets, dtype=np.int32)  # Mesh's id type below 2^31 vertices
    flip = signed_volumes(vertices[tets]) < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return vertices, tets


@pytest.mark.parametrize("m,n", [(2, 2), (4, 8), (6, 3)])
def test_generator_matches_box_by_box_reference(m, n):
    mesh = af.generate_aniso_cube(m, n)
    for got, want in zip((mesh.vertices, mesh.tets), reference_cube(m, n)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_split_tables_are_positively_oriented():
    for split in (_SPLIT_EVEN, _SPLIT_ODD):
        assert (signed_volumes(UNIT_BOX[split]) > 0).all()


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


def test_face_table_storage():
    # each field at the narrowest type its values need, and no vertex
    # triples: the live table is 41 bytes a tet at 8:64, 66 with the triples
    # stored at int32, 152 with those at int64 and float64 signs
    mesh = af.generate_aniso_cube(8, 64)
    tracemalloc.start()
    try:
        table = af.build_face_table(mesh)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.sides.dtype == table.tet_faces.dtype == np.int32
    assert mesh.face_vertices().dtype == mesh.tets.dtype == np.int32
    assert table.tet_face_signs.dtype == np.int8
    assert live / mesh.n_tets <= 43
    # ids from 2^31 on fall back to int64
    assert _index_type(2**31 - 1) is np.int32 and _index_type(2**31) is np.int64


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
        point = mesh.vertices[mesh.face_vertices(f)[0]]
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
    p = mesh.vertices[mesh.face_vertices()]
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
    assert np.array_equal(a.face_vertices(), b.face_vertices())
    assert np.array_equal(a.faces.columns, b.faces.columns)
    assert_column_order(a, brute_force_faces(a.tets))


def test_face_columns_partition_the_faces():
    m, n = 4, 16
    mesh = af.generate_aniso_cube(m, n)
    table = mesh.faces
    nf, interior = table.n_faces, int((~table.boundary).sum())
    # the interior faces are a prefix and the boundary faces the suffix; in
    # each part the columns are contiguous runs of faces, each bottom to top
    assert table.columns.shape == (nf,)
    assert not table.boundary[:interior].any() and table.boundary[interior:].all()
    z = mesh.vertices[mesh.face_vertices(), 2].mean(axis=1)
    for part in (slice(None, interior), slice(interior, None)):
        columns = table.columns[part].astype(int)
        assert (np.diff(columns) >= 0).all()
        assert (np.diff(z[part])[np.diff(columns) == 0] >= -1e-15).all()
    # the faces strictly inside box column (i, j) make up one column each
    xy = mesh.vertices[mesh.face_vertices(), :2].mean(axis=1) * m
    inside = (np.abs(xy - np.round(xy)) > 1e-9).all(axis=1)
    box = np.floor(xy[inside]).astype(int) @ [m, 1]
    pairs = np.unique(np.stack([box, table.columns[inside]]), axis=1)
    assert pairs.shape[1] == m * m
    assert len(np.unique(pairs[1])) == m * m
    # the CR system's unknowns are the interior faces in this order
    system = af.assemble_cr(mesh, CASE.f)
    assert system.matrix.shape == (interior, interior)
    assert np.array_equal(system.constrained, table.boundary)


def test_face_column_order_is_the_lexsort():
    # the faces come in lexsort order by boundary flag, label, z and sorted
    # triple, on bins that are no longer box columns: the bin of the
    # centroid's (x, y) among the distinct vertex coordinates
    mesh = jittered_cube(4, 16)
    table = mesh.faces
    xs, ys = (np.unique(mesh.vertices[:, d]) for d in range(2))
    label = (np.searchsorted(xs, centroid(mesh, 0), side="right") * (len(ys) + 1)
             + np.searchsorted(ys, centroid(mesh, 1), side="right"))
    assert table.columns.dtype == np.min_scalar_type(label.max())
    assert np.array_equal(table.columns, label)
    keys = (*mesh.face_vertices().T[::-1], centroid(mesh, 2), label, table.boundary)
    assert np.array_equal(np.lexsort(keys), np.arange(table.n_faces))
    assert table.boundary[-1] and not table.boundary[0]


def test_mesh_rejects_malformed_input():
    corner = np.eye(4, 3)
    for vertices, tets in [(np.zeros((4, 2)), [[0, 1, 2, 3]]),  # not (nv, 3)
                           (corner, [[0, 1, 2]]),                # not (nt, 4)
                           (corner, [[0, 1, 2, 259]]),  # read as vertex 3 at uint8
                           (corner, [[0, 1, 2, 2**32 + 3]]),  # wraps to 3 at int32
                           (corner, [[-1, 1, 2, 3]]),
                           (corner, [[0, 1, 2, -1]]),
                           (corner, [[0, 1, 2, 2.7]]),  # truncated to 2 by the cast
                           (corner, [[False, True, True, True]]),  # read as 0 and 1
                           (corner, [["0", "1", "2", "3"]])]:  # a numpy type error
        with pytest.raises(ValueError):
            Mesh(vertices, tets)
    # the empty mesh stays valid; the face table still refuses it
    empty = Mesh(np.zeros((0, 3)), np.zeros((0, 4), dtype=int))
    with pytest.raises(ValueError, match="empty mesh"):
        empty.faces


def test_nonmanifold_raises():
    verts = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0],
                      [0, 0, 1], [0, 0, -1], [1, 1, 1]])
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(ValueError, match="non-manifold"):
        af.build_face_table(Mesh(verts, tets))


def test_mesh_copies_its_inputs():
    # no cast is needed for either array, yet the mesh keeps its own
    vertices, tets = np.eye(4, 3), np.array([[0, 1, 2, 3]], dtype=np.int32)
    mesh = Mesh(vertices, tets)
    assert vertices.flags.writeable and tets.flags.writeable
    vertices[0, 0], tets[0, 0] = 5.0, 3
    assert np.array_equal(mesh.vertices, np.eye(4, 3))
    assert np.array_equal(mesh.tets, [[0, 1, 2, 3]])
    assert not (mesh.vertices.flags.writeable or mesh.tets.flags.writeable)
