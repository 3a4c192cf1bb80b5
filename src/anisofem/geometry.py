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
    (..., 4, 3); face i is opposite vertex i.
    """
    a, b, c = (verts[..., LOCAL_FACES[:, j], :] for j in range(3))
    cross = np.cross(b - a, c - a)
    areas = 0.5 * np.linalg.norm(cross, axis=-1)
    normals = cross / (2.0 * areas[..., None])
    inward = np.einsum("...j,...j->...", normals,
                       verts.mean(axis=-2, keepdims=True) - a) > 0
    normals[inward] *= -1.0
    return areas, normals, (a + b + c) / 3.0


def rt0_scales(areas, volumes):
    """|F_i| / (3|T|) from face areas (..., 4) and volumes (...): the RT0 basis
    is psi_i = scale_i (x - x_i)."""
    return areas / (3.0 * np.asarray(volumes)[..., None])


def rt0_affine(verts, coeffs):
    """Affine form sigma(x) = a x - b of the local RT0 fields sum_i coeffs_i psi_i.

    ``coeffs`` (nt, 4) are the fluxes through the outward local faces.  With
    c_i = coeffs_i |F_i| / (3|T|), a = sum_i c_i (so div sigma = 3a) and
    b = sum_i c_i x_i; returns a (nt,) and b (nt, 3).
    """
    c = coeffs * rt0_scales(face_geometry(verts)[0], np.abs(signed_volumes(verts)))
    return c.sum(axis=1), np.einsum("ti,tid->td", c, verts)


def element_volumes(mesh):
    """Volumes of all tets, shape (nt,)."""
    return np.abs(signed_volumes(mesh.tet_vertices()))


def barycentric_gradients(mesh):
    """Constant gradients of the barycentric coordinates, shape (nt, 4, 3)."""
    return barycentric_coefficients(mesh.tet_vertices())[:, :3, :].transpose(0, 2, 1)


def local_face_geometry(mesh):
    """``face_geometry`` of every tet of ``mesh``."""
    return face_geometry(mesh.tet_vertices())


def _edge_length_table(verts):
    d = verts[..., EDGE_VERTICES[:, 0], :] - verts[..., EDGE_VERTICES[:, 1], :]
    return np.linalg.norm(d, axis=-1)


def _aniso_measures(lengths, diameters, volumes):
    """(all-pairs, opposite-pairs) measures: h^2/|T| * min of edge products."""
    scale = diameters ** 2 / volumes
    return tuple(
        scale * np.min(np.stack([lengths[..., i] * lengths[..., j]
                                 for i, j in pairs], axis=-1), axis=-1)
        for pairs in (_ALL_EDGE_PAIRS, _OPPOSITE_EDGE_PAIRS))


def tet_geometry(mesh, tet_index):
    """All geometric quantities of tet ``tet_index``.

    Rejects degenerate tets (volume below 1e-300): flat-but-valid anisotropic
    elements are the object of study, and clamping would hide generator bugs.
    """
    verts = mesh.tet_vertices(tet_index)
    volume = abs(float(signed_volumes(verts)))
    if volume <= 1e-300:
        raise ValueError(f"degenerate tet {tet_index}: volume {volume!r}")

    lengths = _edge_length_table(verts)
    diameter = float(lengths.max())
    barycentre = verts.mean(axis=0)
    spread = float(((verts - barycentre) ** 2).sum())

    areas = face_geometry(verts)[0]
    distances = 3.0 * volume / areas

    aniso, aniso_opp = _aniso_measures(lengths, diameter, volume)
    return TetGeometry(
        volume=volume,
        diameter=diameter,
        edge_lengths=lengths,
        barycentre=barycentre,
        spread=spread,
        face_distances=distances,
        face_areas=areas,
        aniso=float(aniso),
        aniso_opposite=float(aniso_opp),
    )


def global_metrics(mesh):
    """Mesh-wide size and anisotropy metrics.

    ``consistency_ratio`` is the largest per-element value of
    diameter^2 / (smallest vertex-to-opposite-face distance), the quantity
    that controls the classical nonconformity bound and blows up on the
    anisotropic family even while the solver keeps converging.
    """
    if mesh.n_tets == 0:
        raise ValueError("empty mesh")
    verts = mesh.tet_vertices()
    volumes = np.abs(signed_volumes(verts))
    lengths = _edge_length_table(verts)
    diameters = lengths.max(axis=1)
    areas, _, _ = face_geometry(verts)
    min_distance = (3.0 * volumes[:, None] / areas).min(axis=1)
    aniso, _ = _aniso_measures(lengths, diameters, volumes)
    return MeshMetrics(
        h=float(diameters.max()),
        aniso_max=float(aniso.max()),
        consistency_ratio=float((diameters ** 2 / min_distance).max()),
    )
