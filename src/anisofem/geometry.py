"""Per-element geometry: volumes, edge data, barycentric gradients, face
geometry, the RT0 local field and the edge-pair anisotropy measure.

Each per-element formula is written once, over stacks of vertex arrays of
shape (..., 4, 3); the mesh-level functions apply it to
``mesh.tet_vertices()`` and per-tet code passes a single (4, 3) array.

The anisotropy measure of a tet is h^2/|T| times a minimum of products of two
edge lengths.  Two variants are provided: ``aniso`` minimises over all 15
pairs of distinct edges, ``aniso_opposite`` only over the three pairs of
opposite (vertex-disjoint) edges.  They agree on the flattest elements of the
generated mesh family; the opposite-pair variant is the one the reference
benchmark tables for the interpolation demo were computed with.
"""

from dataclasses import dataclass

import numpy as np

# local face i of a tet is opposite local vertex i
LOCAL_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

# edge e connects vertices EDGE_VERTICES[e]; edges (0,5), (1,4), (2,3) are the
# three opposite (vertex-disjoint) pairs
EDGE_VERTICES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
_OPPOSITE_EDGE_PAIRS = ((0, 5), (1, 4), (2, 3))
_ALL_EDGE_PAIRS = tuple(
    (i, j) for i in range(6) for j in range(i + 1, 6)
)


@dataclass(frozen=True)
class TetGeometry:
    """Geometric quantities of a single tetrahedron."""

    volume: float
    diameter: float                # longest edge
    edge_lengths: np.ndarray       # (6,) ordered as EDGE_VERTICES
    barycentre: np.ndarray         # (3,)
    spread: float                  # sum_i |x_i - barycentre|^2
    face_distances: np.ndarray     # (4,) vertex i to the plane of the opposite face
    face_areas: np.ndarray         # (4,)
    aniso: float                   # h^2/|T| * min over all distinct edge pairs
    aniso_opposite: float          # h^2/|T| * min over opposite edge pairs


@dataclass(frozen=True)
class MeshMetrics:
    h: float                 # max tet diameter
    aniso_max: float         # max over tets of the all-pairs anisotropy measure
    consistency_ratio: float  # max over tets of diameter^2 / min face distance


def signed_volumes(verts):
    """Signed volumes of tets given by their vertices (..., 4, 3), shape (...)."""
    d = verts[..., 1:, :] - verts[..., :1, :]
    return np.einsum("...j,...j->...", np.cross(d[..., 0, :], d[..., 1, :]),
                     d[..., 2, :]) / 6.0


def barycentric_coefficients(verts):
    """Affine coefficients of the barycentric coordinates, shape (..., 4, 4).

    Column i holds (gx, gy, gz, c) of lambda_i(x) = g . x + c.
    """
    vm = np.concatenate([verts, np.ones(verts.shape[:-1] + (1,))], axis=-1)
    return np.linalg.inv(vm)


def face_geometry(verts):
    """Areas, outward unit normals and centroids of the 4 faces of each tet.

    Returns (areas, normals, centroids) with shapes (..., 4), (..., 4, 3) and
    (..., 4, 3); face i is opposite vertex i.  A face whose area is not
    positive (a flat face, or one whose cross product underflows on an
    extreme sliver) raises ValueError before anything divides by it.
    """
    a, b, c = (verts[..., LOCAL_FACES[:, j], :] for j in range(3))
    cross = np.cross(b - a, c - a)
    areas = 0.5 * np.linalg.norm(cross, axis=-1)
    if not areas.min(initial=np.inf) > 0:
        raise ValueError("degenerate face: zero area")
    normals = cross / (2.0 * areas[..., None])
    inward = np.einsum("...j,...j->...", normals,
                       verts.mean(axis=-2, keepdims=True) - a) > 0
    normals[inward] *= -1.0
    return areas, normals, (a + b + c) / 3.0


def tet_volumes(verts):
    """|T| of each tet of a stack (..., 4, 3); a degenerate tet (volume at
    most 1e-300) raises ValueError before anything divides by its volume."""
    volumes = np.abs(signed_volumes(verts))
    if np.any(volumes <= 1e-300):
        raise ValueError("degenerate tet: zero volume")
    return volumes


def rt0_scales(areas, volumes):
    """|F_i| / (3|T|) from face areas (..., 4) and volumes (...): the RT0 basis
    is psi_i = scale_i (x - x_i)."""
    return areas / (3.0 * np.asarray(volumes)[..., None])


def rt0_affine(verts, coeffs):
    """Affine form sigma(x) = a x - b of the local RT0 fields sum_i coeffs_i psi_i.

    ``coeffs`` (..., 4) are the fluxes through the outward local faces of the
    tets ``verts`` (..., 4, 3).  With c_i = coeffs_i |F_i| / (3|T|),
    a = sum_i c_i (so div sigma = 3a) and b = sum_i c_i x_i; returns a (...)
    and b (..., 3).  A degenerate tet raises ValueError.
    """
    verts = np.asarray(verts, dtype=float)
    volumes = tet_volumes(verts)
    c = coeffs * rt0_scales(face_geometry(verts)[0], volumes)
    return c.sum(axis=-1), np.einsum("...i,...id->...d", c, verts)


def affine_field(a, b, points):
    """sigma = a x - b at points (..., n, 3) for a (...) and b (..., 3), shape
    (..., n, 3)."""
    return a[..., None, None] * points - b[..., None, :]


def element_volumes(mesh):
    """Volumes of all tets, shape (nt,)."""
    return np.abs(signed_volumes(mesh.tet_vertices()))


def barycentric_gradients(mesh):
    """Constant gradients of the barycentric coordinates, shape (nt, 4, 3)."""
    return barycentric_coefficients(mesh.tet_vertices())[:, :3, :].transpose(0, 2, 1)


def local_face_geometry(mesh):
    """``face_geometry`` of every tet of ``mesh``."""
    return face_geometry(mesh.tet_vertices())


def _tet_metrics(verts):
    """The one per-tet pass behind ``tet_geometry`` and ``global_metrics``,
    over a stack (..., 4, 3): volumes, edge lengths, diameters, face areas,
    vertex to opposite face distances and the (all-pairs, opposite-pairs)
    anisotropy measures h^2/|T| * min of edge products.

    Rejects degenerate tets before any division: flat-but-valid anisotropic
    elements are the object of study, and clamping would hide generator bugs.
    """
    volumes = tet_volumes(verts)
    lengths = np.linalg.norm(verts[..., EDGE_VERTICES[:, 0], :]
                             - verts[..., EDGE_VERTICES[:, 1], :], axis=-1)
    diameters = lengths.max(axis=-1)
    areas = face_geometry(verts)[0]
    scale = diameters ** 2 / volumes
    aniso = [scale * np.min(np.stack([lengths[..., i] * lengths[..., j]
                                      for i, j in pairs], axis=-1), axis=-1)
             for pairs in (_ALL_EDGE_PAIRS, _OPPOSITE_EDGE_PAIRS)]
    return (volumes, lengths, diameters, areas, 3.0 * volumes[..., None] / areas,
            *aniso)


def tet_geometry(mesh, tet_index):
    """All geometric quantities of tet ``tet_index``; a degenerate one raises."""
    verts = mesh.tet_vertices(tet_index)
    volume, lengths, diameter, areas, distances, aniso, aniso_opp = _tet_metrics(verts)
    barycentre = verts.mean(axis=0)
    return TetGeometry(
        volume=float(volume), diameter=float(diameter), edge_lengths=lengths,
        barycentre=barycentre, spread=float(((verts - barycentre) ** 2).sum()),
        face_distances=distances, face_areas=areas, aniso=float(aniso),
        aniso_opposite=float(aniso_opp))


def global_metrics(mesh):
    """Mesh-wide size and anisotropy metrics.

    ``consistency_ratio`` is the largest per-element value of
    diameter^2 / (smallest vertex-to-opposite-face distance), the quantity
    that controls the classical nonconformity bound and blows up on the
    anisotropic family even while the solver keeps converging.
    """
    if mesh.n_tets == 0:
        raise ValueError("empty mesh")
    _, _, diameters, _, distances, aniso, _ = _tet_metrics(mesh.tet_vertices())
    return MeshMetrics(
        h=float(diameters.max()),
        aniso_max=float(aniso.max()),
        consistency_ratio=float((diameters ** 2 / distances.min(axis=1)).max()),
    )
