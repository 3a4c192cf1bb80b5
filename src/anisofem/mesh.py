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
from functools import cached_property

import numpy as np

from .geometry import (LOCAL_FACES, affine_field, dot, face_geometry, gather,
                       per_block, signed_volumes)

# Box corners are indexed b = di + 2*dj + 4*dk.  Each row is one positively
# oriented tet of the 5-tet split (central tet first) of the unit box, so of
# every box, its positive scaling; _SPLIT_ODD mirrors it on odd-parity boxes.
_SPLIT_EVEN = np.array([
    [0, 3, 6, 5],
    [1, 0, 5, 3],
    [2, 0, 3, 6],
    [4, 0, 6, 5],
    [7, 3, 5, 6],
])
_SPLIT_ODD = np.array([
    [1, 2, 4, 7],
    [0, 1, 2, 4],
    [3, 1, 7, 2],
    [5, 1, 4, 7],
    [6, 2, 7, 4],
])


@dataclass(frozen=True)
class FaceTable:
    """Unique triangular faces of a tet mesh, numbered column by column.

    Interior faces first, then boundary faces, each part by column label
    (``_face_columns``), centroid z and sorted vertex triple, which makes the
    table reproducible for a given vertex numbering regardless of tet order;
    CR face means and RT0 fluxes share this one numbering.  The two sides of
    a face are named by flat slots ``4 t + i`` (local face i of tet t):
    ``sides[f, 0]`` is the lower slot and ``sides[f, 1]`` is -1 on the
    boundary, so ``sides // 4`` gives the incident tets.  A face's global
    orientation, used for the Raviart-Thomas flux degrees of freedom, is the
    outward normal of its first side, which ``tet_face_signs`` marks with +1.

    Each field is stored at the narrowest type its values need: ``sides``
    and ``tet_faces`` are int32, or int64 once 4 nt reaches 2^31;
    ``tet_face_signs`` is int8; ``boundary`` is bool and ``columns`` the
    narrowest unsigned type of its labels.  Readers index with these arrays
    or multiply them into float64, so every value keeps its bits.  The
    faces' vertex triples are not stored: ``Mesh.face_vertices`` derives
    them from the first sides.
    """

    sides: np.ndarray      # (nf, 2) flat slots 4 t + i, second entry -1 on the boundary
    boundary: np.ndarray   # (nf,) bool
    tet_faces: np.ndarray  # (nt, 4) global face index of local face i (opposite vertex i)
    tet_face_signs: np.ndarray  # (nt, 4) +1 on the first side of each face, else -1
    columns: np.ndarray    # (nf,) column labels, narrowest unsigned type

    @property
    def n_faces(self):
        return len(self.sides)


class Mesh:
    """Immutable tetrahedral mesh: vertex coordinates plus vertex 4-tuples.

    Tets are stored positively oriented (signed volume > 0), as int32, or
    int64 once the vertex count reaches 2^31.  The face table is built on
    first access and cached.  Raises ValueError unless the vertices are
    (nv, 3), the tets (nt, 4) and every vertex id in 0 .. nv - 1.
    """

    def __init__(self, vertices, tets):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        tets = np.asarray(tets)
        if self.vertices.shape[1:] != (3,) or tets.shape[1:] != (4,):
            raise ValueError(f"need (nv, 3) vertices and (nt, 4) tets, got "
                             f"{self.vertices.shape} and {tets.shape}")
        # the caller's ids, before the cast could wrap one into range
        if tets.size and (tets.min() < 0 or tets.max() >= len(self.vertices)):
            raise ValueError(f"vertex ids outside 0 .. {len(self.vertices) - 1}")
        self.tets = np.ascontiguousarray(tets, dtype=_index_type(len(self.vertices)))
        self.vertices.setflags(write=False)
        self.tets.setflags(write=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @cached_property
    def faces(self):
        return build_face_table(self)

    def tet_vertices(self, index=slice(None)):
        """Vertex coordinates of one tet (4, 3) or of the tets ``index`` (nb,
        4, 3), all by default: a view of planes (3, 4, nb), tet index innermost."""
        return gather(self.vertices, self.tets[index])

    def face_vertices(self, index=slice(None)):
        """Sorted vertex triples of the faces ``index``, (nf, 3) at the tets'
        type, all faces by default: the vertices of each face's first-side
        tet but the one its local face is opposite."""
        t, i = np.divmod(self.faces.sides[index, 0], 4)
        return np.sort(self.tets[t[..., None], LOCAL_FACES[i]], axis=-1)


def generate_aniso_cube(M, N):
    """Mesh of the unit cube from M x M x N boxes split into 5 tets each.

    M is the division count of the two horizontal directions and must be a
    positive even integer (the mirrored split needs an even checkerboard along
    the domain edges); N >= 1 divides the vertical direction.  Vertex v(i,j,k)
    sits at (i/M, j/M, k/N) and gets index i + (M+1)*j + (M+1)^2*k, so meshes
    are reproducible byte for byte.  A box's tets are its lowest vertex id plus
    the corner offsets of a split stored positively oriented: no flip pass.

    Resulting counts: (M+1)^2 (N+1) vertices, 5 M^2 N tets and
    10 M^2 N + 2 M^2 + 4 M N faces.
    """
    if M <= 0 or N <= 0:
        raise ValueError(f"need positive divisions, got M={M}, N={N}")
    if M % 2 != 0:
        raise ValueError(f"M must be even for a conforming mirrored split, got M={M}")

    mp = M + 1
    k, j, i = np.indices((N + 1, mp, mp)).reshape(3, -1)
    vertices = np.stack([i / M, j / M, k / N], axis=1)

    # boxes k-major, i fastest, named by their lowest vertex id, whose parity is
    # the box's i + j + k as mp is odd; and the id offsets of corners b
    ids = np.arange(len(vertices), dtype=_index_type(len(vertices)))  # as Mesh stores
    base = ids.reshape(N + 1, mp, mp)[:N, :M, :M].ravel()
    corner = (np.array([0, 1, mp, mp + 1]) + [[0], [mp * mp]]).ravel().astype(ids.dtype)
    tets = np.where((base & 1).astype(bool)[:, None, None],
                    corner[_SPLIT_ODD], corner[_SPLIT_EVEN])
    tets += base[:, None, None]
    return Mesh(vertices, tets.reshape(-1, 4))


def build_face_table(mesh):
    """Enumerate the unique faces of ``mesh`` with incidence and orientation.

    Raises ValueError if the mesh is empty or some face has more than two
    incident tets.
    """
    nt = mesh.n_tets
    if nt == 0:
        raise ValueError("empty mesh")
    # each of the 4 nt slots' sorted triple of narrowed vertex ids
    ids = mesh.tets.astype(np.min_scalar_type(mesh.n_vertices - 1))
    a, b, c = (ids[:, LOCAL_FACES[:, j]].ravel() for j in range(3))
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    mid = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    del a, b, c, ids
    # one stable sort of the slots: equal triples end up adjacent, lower
    # slot first, and the groups come out in lexicographic order
    order = np.lexsort((hi, mid, lo))
    ranked = np.stack([lo, mid, hi], axis=1)[order]
    del lo, mid, hi
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    start = np.flatnonzero(first)
    counts = np.diff(np.append(start, len(order)))
    if counts.max() > 2:
        bad = ranked[start[np.argmax(counts)]]
        raise ValueError(f"non-manifold input: face {tuple(bad.tolist())} has "
                         f"{counts.max()} incident tets")

    interior = counts == 2
    itype = _index_type(4 * nt)  # slots, and faces, of which there are fewer
    sides = np.full((len(start), 2), -1, dtype=itype)
    sides[:, 0] = order[start]
    sides[interior, 1] = order[start[interior] + 1]
    corners = ranked[start]
    del order, ranked, first  # the slot arrays, off the column sort's peak
    columns, by_column = _face_columns(mesh.vertices, corners, ~interior)
    sides, interior = sides[by_column], interior[by_column]
    tet_faces = np.empty(4 * nt, dtype=itype)  # each slot is one face's side
    tet_faces[sides[:, 0]] = np.arange(len(start), dtype=itype)
    tet_faces[sides[interior, 1]] = np.flatnonzero(interior)

    signs = np.full(4 * nt, -1, dtype=np.int8)
    signs[sides[:, 0]] = 1
    table = FaceTable(
        sides=sides,
        boundary=~interior,
        tet_faces=tet_faces.reshape(nt, 4),
        tet_face_signs=signs.reshape(nt, 4),
        columns=columns,
    )
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


def _index_type(count):
    """int32 for the ids 0 .. count - 1 where they fit, else int64."""
    return np.int32 if count < 2**31 else np.int64


def _face_columns(vertices, corners, boundary):
    """(columns, order): the stable order of the faces ``corners`` (sorted
    vertex triples, lexicographic) by ``boundary``, column and centroid z,
    and the column label of each face in that order, narrowest unsigned type.

    A face's column is the bin of its centroid's (x, y) among the sorted
    distinct vertex x and y coordinates: the box column on the generated
    meshes, a narrower bin on any other.
    """
    def centroid(d):  # exact for a face in a plane x_d = const
        p = vertices[:, d][corners]
        return p[:, 0] + ((p[:, 1] - p[:, 0]) + (p[:, 2] - p[:, 0])) / 3.0

    x, y, z = (centroid(d) for d in range(3))
    xs, ys = np.unique(vertices[:, 0]), np.unique(vertices[:, 1])
    label = (np.searchsorted(xs, x, side="right") * (len(ys) + 1)
             + np.searchsorted(ys, y, side="right"))
    label = label.astype(np.min_scalar_type(label.max()))  # also a faster sort key
    order = np.lexsort((z, label, boundary))
    return label[order], order


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
    # a face lies on the cube boundary iff all three vertices share one
    # coordinate plane x_a = 0 or x_a = 1
    on_plane = np.isclose(mesh.vertices[mesh.face_vertices(faces.boundary)][..., None],
                          [0.0, 1.0], atol=1e-12)
    stray = int((~on_plane.all(axis=1).any(axis=(1, 2))).sum())
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
        np.savetxt(f, mesh.vertices, fmt="%.17g")
        f.write(f"\nCELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        np.savetxt(f, mesh.tets, fmt="4 %d %d %d %d")
        f.write(f"\nCELL_TYPES {mesh.n_tets}\n")
        f.write("\n".join(["10"] * mesh.n_tets) + "\n")
