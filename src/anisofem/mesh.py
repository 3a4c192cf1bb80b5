"""Tetrahedral meshes of the unit cube with independent horizontal and vertical
resolution, plus face connectivity and conformity checks.

The generator tiles [0,1]^3 with M x M x N boxes of size (1/M, 1/M, 1/N) and
splits every box into five tetrahedra: one central tet spanning a diagonal
4-subset of the box corners and four congruent corner tets.  Two mirrored
split patterns are used in a checkerboard (parity of the box index sum), so
neighbouring boxes cut their shared quadrilateral face along the same diagonal
and the mesh is conforming.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import (LOCAL_FACES, affine_field, dot, face_geometry, gather,
                       per_block, signed_volumes)

# Box corners are indexed b = di + 2*dj + 4*dk.  Each row below is one tet of
# the 5-tet split (central tet first); _SPLIT_ODD is the mirror image used on
# odd-parity boxes.
_SPLIT_EVEN = np.array([
    [0, 3, 5, 6],
    [1, 0, 3, 5],
    [2, 0, 3, 6],
    [4, 0, 5, 6],
    [7, 3, 5, 6],
])
_SPLIT_ODD = np.array([
    [1, 2, 4, 7],
    [0, 1, 2, 4],
    [3, 1, 2, 7],
    [5, 1, 4, 7],
    [6, 2, 4, 7],
])


@dataclass(frozen=True)
class FaceTable:
    """Unique triangular faces of a tet mesh.

    Faces are ordered lexicographically by their sorted vertex triple, which
    makes the table reproducible for a given vertex numbering regardless of
    tet order.  The two sides of a face are named by flat slots ``4 t + i``
    (local face i of tet t): ``sides[f, 0]`` is the lower slot and
    ``sides[f, 1]`` is -1 on the boundary, so ``sides // 4`` gives the
    incident tets.  The table is pure topology: a face's global orientation,
    used for the Raviart-Thomas flux degrees of freedom, is the outward
    normal of its first side, which ``tet_face_signs`` marks with +1.
    """

    vertices: np.ndarray   # (nf, 3) sorted vertex triples
    sides: np.ndarray      # (nf, 2) flat slots 4 t + i, second entry -1 on the boundary
    boundary: np.ndarray   # (nf,) bool
    tet_faces: np.ndarray  # (nt, 4) global face index of local face i (opposite vertex i)
    tet_face_signs: np.ndarray  # (nt, 4) +1 on the first side of each face, else -1

    @property
    def n_faces(self):
        return len(self.vertices)


class Mesh:
    """Immutable tetrahedral mesh: vertex coordinates plus vertex 4-tuples.

    Tets are stored positively oriented (signed volume > 0).  The face table
    is built on first access and cached.
    """

    def __init__(self, vertices, tets):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.tets = np.ascontiguousarray(tets, dtype=np.int64)
        self.vertices.setflags(write=False)
        self.tets.setflags(write=False)
        self._faces = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def faces(self):
        if self._faces is None:
            self._faces = build_face_table(self)
        return self._faces

    def tet_vertices(self, index=slice(None)):
        """Vertex coordinates of one tet (4, 3) or of the tets ``index`` (nb,
        4, 3), all by default: a view of planes (3, 4, nb), tet index innermost."""
        return gather(self.vertices, self.tets[index])


def generate_aniso_cube(M, N):
    """Mesh of the unit cube from M x M x N boxes split into 5 tets each.

    M is the division count of the two horizontal directions and must be a
    positive even integer (the mirrored split needs an even checkerboard along
    the domain edges); N >= 1 divides the vertical direction.  Vertex v(i,j,k)
    sits at (i/M, j/M, k/N) and gets index i + (M+1)*j + (M+1)^2*k, so meshes
    are reproducible byte for byte.

    Resulting counts: (M+1)^2 (N+1) vertices, 5 M^2 N tets and
    10 M^2 N + 2 M^2 + 4 M N faces.
    """
    if M <= 0 or N <= 0:
        raise ValueError(f"need positive divisions, got M={M}, N={N}")
    if M % 2 != 0:
        raise ValueError(f"M must be even for a conforming mirrored split, got M={M}")

    mp = M + 1
    ii, jj, kk = np.meshgrid(np.arange(mp), np.arange(mp), np.arange(N + 1),
                             indexing="ij")
    vid = (ii + mp * jj + mp * mp * kk).ravel()
    vertices = np.empty((mp * mp * (N + 1), 3))
    vertices[vid, 0] = (ii / M).ravel()
    vertices[vid, 1] = (jj / M).ravel()
    vertices[vid, 2] = (kk / N).ravel()

    # boxes in k-major order, i fastest, matching the vertex numbering
    bk, bj, bi = np.meshgrid(np.arange(N), np.arange(M), np.arange(M),
                             indexing="ij")
    bi, bj, bk = bi.ravel(), bj.ravel(), bk.ravel()
    corners = np.stack(
        [(bi + (b & 1)) + mp * (bj + ((b >> 1) & 1)) + mp * mp * (bk + ((b >> 2) & 1))
         for b in range(8)],
        axis=1,
    )
    odd = ((bi + bj + bk) % 2).astype(bool)
    pattern = np.where(odd[:, None, None], _SPLIT_ODD[None], _SPLIT_EVEN[None])
    tets = np.take_along_axis(
        np.repeat(corners[:, None, :], 5, axis=1), pattern, axis=2
    ).reshape(-1, 4)

    flip = signed_volumes(gather(vertices, tets)) < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return Mesh(vertices, tets)


def build_face_table(mesh):
    """Enumerate the unique faces of ``mesh`` with incidence and orientation.

    Raises ValueError if the mesh is empty or some face has more than two
    incident tets.
    """
    nt = mesh.n_tets
    if nt == 0:
        raise ValueError("empty mesh")
    # each of the 4 nt slots' sorted vertex triple (min, sum - min - max, max)
    # of narrowed vertex ids: the sum may wrap around, mid is exact mod 2^bits
    ids = mesh.tets.astype(np.min_scalar_type(mesh.n_vertices - 1))
    a, b, c = (ids[:, LOCAL_FACES[:, j]].ravel() for j in range(3))
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    mid = a + b + c - lo - hi
    del a, b, c, ids
    # one stable sort of the slots: equal triples end up adjacent, lower
    # slot first, and the groups come out in lexicographic order
    order = np.lexsort((hi, mid, lo))
    tris = np.stack([lo, mid, hi], axis=1)
    del lo, mid, hi
    ranked = tris[order]
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    start = np.flatnonzero(first)
    counts = np.diff(np.append(start, len(order)))
    if counts.max() > 2:
        bad = ranked[start[np.argmax(counts)]]
        raise ValueError(f"non-manifold input: face {tuple(bad.tolist())} has "
                         f"{counts.max()} incident tets")

    tet_faces = np.empty(4 * nt, dtype=np.int64)
    tet_faces[order] = np.cumsum(first) - 1
    interior = counts == 2
    sides = np.full((len(start), 2), -1, dtype=np.int64)
    sides[:, 0] = order[start]
    sides[interior, 1] = order[start[interior] + 1]

    signs = np.full(4 * nt, -1.0)
    signs[sides[:, 0]] = 1.0
    table = FaceTable(
        vertices=ranked[start].astype(np.int64),
        sides=sides,
        boundary=~interior,
        tet_faces=tet_faces.reshape(nt, 4),
        tet_face_signs=signs.reshape(nt, 4),
    )
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


def face_traces(mesh, a, b):
    """Face means of sigma . n for the per-tet affine fields sigma = a x - b
    (a (nt,), b (nt, 3)), taken at the face centroids, with n the global
    normal: each tet's outward normal times its ``tet_face_signs``.  Returns
    the value seen from the first side of each face, shape (nf,), and the
    largest disagreement between the two sides of an interior face."""
    faces = mesh.faces

    def block(s):
        _, normals, centroids = face_geometry(mesh.tet_vertices(s))
        sigma = affine_field(a[s], b[s], centroids)
        return dot(sigma, normals) * faces.tet_face_signs[s]

    trace = per_block(mesh.n_tets, block).ravel()
    inner = faces.sides[~faces.boundary]
    gaps = np.abs(trace[inner[:, 0]] - trace[inner[:, 1]])
    return trace[faces.sides[:, 0]], float(gaps.max(initial=0.0))


@dataclass
class ConformityReport:
    ok: bool
    volume_sum: float
    incidence_histogram: dict
    orientation_ok: bool
    messages: list = field(default_factory=list)


def validate_conformity(mesh):
    """Diagnostic pass over mesh invariants; never raises.

    Checks that signed volumes are positive, that tet volumes sum to the
    volume 1 of the unit cube within 1e-12, and that every face is shared by
    two tets or lies on the boundary of the cube.
    """
    messages = []
    signed = signed_volumes(mesh.tet_vertices())
    orientation_ok = bool((signed > 0).all())
    if not orientation_ok:
        messages.append(f"{(signed <= 0).sum()} tets with non-positive volume")

    volume_sum = float(np.abs(signed).sum())
    if abs(volume_sum - 1.0) > 1e-12:
        messages.append(f"volume sum {volume_sum!r} differs from 1.0")

    try:
        faces = mesh.faces
    except ValueError as exc:
        return ConformityReport(False, volume_sum, {}, orientation_ok,
                                messages + [str(exc)])

    histogram = {1: int(faces.boundary.sum()), 2: int((~faces.boundary).sum())}
    single = faces.vertices[faces.boundary]
    if len(single):
        pts = mesh.vertices[single]
        # a face lies on the cube boundary iff all three vertices share one
        # coordinate plane x_a = 0 or x_a = 1
        on_cube = np.zeros(len(single), dtype=bool)
        for axis in range(3):
            for value in (0.0, 1.0):
                on_cube |= np.isclose(pts[:, :, axis], value,
                                      atol=1e-12).all(axis=1)
        stray = int((~on_cube).sum())
        if stray:
            messages.append(f"{stray} singly-incident faces not on the cube boundary")

    return ConformityReport(not messages, volume_sum, histogram, orientation_ok,
                            messages)


def write_vtk(mesh, path):
    """Dump the mesh as legacy ASCII VTK (unstructured grid, cell type 10)."""
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write("anisofem mesh\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y, z in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        f.write(f"\nCELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        for tet in mesh.tets:
            f.write("4 " + " ".join(str(v) for v in tet) + "\n")
        f.write(f"\nCELL_TYPES {mesh.n_tets}\n")
        f.write("\n".join(["10"] * mesh.n_tets) + "\n")
