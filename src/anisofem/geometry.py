"""Per-element geometry: volumes, edge data, barycentric gradients, face
geometry, the RT0 local field and the edge-pair anisotropy measure.

Each per-element formula is written once, over stacks of vertex arrays of
shape (..., 4, 3); per-tet code passes a single (4, 3) array, and the
mesh-level functions apply it to ``mesh.tet_vertices(block)`` for one block of
tets at a time through ``per_block``.

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
    aniso: float                   # h^2/|T| * min over all distinct edge pairs
    aniso_opposite: float          # h^2/|T| * min over opposite edge pairs


@dataclass(frozen=True)
class MeshMetrics:
    h: float                 # max tet diameter
    aniso_max: float         # max over tets of the all-pairs anisotropy measure


# tets per block of the mesh-level per-element passes: a block's temporaries
# (up to 15 quadrature points x 3 doubles per tet and value) stay in cache,
# where whole-mesh ones stream through memory; chosen by measurement
BLOCK = 2048


def per_block(n, kernel):
    """``kernel(s)`` on the slices s of range(n), BLOCK elements each (one
    empty slice when n = 0), its output arrays (one or a tuple) joined along
    the first axis.  Per-element kernels give the same bits at any block
    size; sums across elements are left to the caller, to run once over the
    joined arrays, so no result depends on BLOCK."""
    parts = [kernel(slice(i, i + BLOCK)) for i in range(0, max(n, 1), BLOCK)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def cross(a, b):
    """a x b over the last axis, component by component."""
    (a0, a1, a2), (b0, b1, b2) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                    axis=-1)


def signed_volumes(verts):
    """Signed volumes of tets given by their vertices (..., 4, 3), shape (...)."""
    d = verts[..., 1:, :] - verts[..., :1, :]
    return np.einsum("...j,...j->...", cross(d[..., 0, :], d[..., 1, :]),
                     d[..., 2, :]) / 6.0


def _reject_degenerate(volumes):
    if np.any(volumes <= 1e-300):
        raise ValueError("degenerate tet: zero volume")
    return volumes


def tet_gradients(verts):
    """Constant gradients of the barycentric coordinates (..., 4, 3), by
    cofactors: with d_j = x_j - x_0, grad lambda_1..3 = (d2 x d3, d3 x d1,
    d1 x d2) / det and grad lambda_0 = -their sum.  A degenerate tet raises
    ValueError before the division."""
    d1, d2, d3 = (verts[..., j, :] - verts[..., 0, :] for j in (1, 2, 3))
    g = np.stack([cross(d2, d3), cross(d3, d1), cross(d1, d2)], axis=-2)
    det = np.einsum("...j,...j->...", g[..., 2, :], d3)
    _reject_degenerate(np.abs(det) / 6.0)
    g /= det[..., None, None]
    return np.concatenate([-g.sum(axis=-2, keepdims=True), g], axis=-2)


def barycentric_coefficients(verts):
    """Affine coefficients of the barycentric coordinates, shape (..., 4, 4).

    Column i holds (gx, gy, gz, c) of lambda_i(x) = g . x + c: g from
    ``tet_gradients``, c from lambda_i(x_0) = delta_i0.  A degenerate tet
    raises ValueError.
    """
    g = tet_gradients(verts)
    c = -np.einsum("...id,...d->...i", g, verts[..., 0, :])
    c[..., 0] += 1.0
    return np.concatenate([np.swapaxes(g, -1, -2), c[..., None, :]], axis=-2)


def face_geometry(verts):
    """Areas, outward unit normals and centroids of the 4 faces of each tet.

    Returns (areas, normals, centroids) with shapes (..., 4), (..., 4, 3) and
    (..., 4, 3); face i is opposite vertex i.  A face whose area is not
    positive (a flat face, or one whose cross product underflows on an
    extreme sliver) raises ValueError before anything divides by it.
    """
    a, b, c = (verts[..., LOCAL_FACES[:, j], :] for j in range(3))
    n = cross(b - a, c - a)
    areas = 0.5 * np.linalg.norm(n, axis=-1)
    if not areas.min(initial=np.inf) > 0:
        raise ValueError("degenerate face: zero area")
    normals = n / (2.0 * areas[..., None])
    inward = np.einsum("...j,...j->...", normals,
                       verts.mean(axis=-2, keepdims=True) - a) > 0
    normals[inward] *= -1.0
    return areas, normals, (a + b + c) / 3.0


def tet_volumes(verts):
    """|T| of each tet of a stack (..., 4, 3); a degenerate tet (volume at
    most 1e-300) raises ValueError before anything divides by its volume."""
    return _reject_degenerate(np.abs(signed_volumes(verts)))


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
    return per_block(mesh.n_tets,
                     lambda s: np.abs(signed_volumes(mesh.tet_vertices(s))))


def barycentric_gradients(mesh):
    """Constant gradients of the barycentric coordinates, shape (nt, 4, 3)."""
    return per_block(mesh.n_tets, lambda s: tet_gradients(mesh.tet_vertices(s)))


def local_face_geometry(mesh):
    """``face_geometry`` of every tet of ``mesh``."""
    return per_block(mesh.n_tets, lambda s: face_geometry(mesh.tet_vertices(s)))


def _tet_metrics(verts):
    """The one per-tet pass behind ``tet_geometry`` and ``global_metrics``,
    over a stack (..., 4, 3): volumes, diameters and the (all-pairs,
    opposite-pairs) anisotropy measures h^2/|T| * min of edge products.

    Rejects degenerate tets before any division: flat-but-valid anisotropic
    elements are the object of study, and clamping would hide generator bugs.
    """
    volumes = tet_volumes(verts)
    lengths = np.linalg.norm(verts[..., EDGE_VERTICES[:, 0], :]
                             - verts[..., EDGE_VERTICES[:, 1], :], axis=-1)
    diameters = lengths.max(axis=-1)
    scale = diameters ** 2 / volumes
    aniso = [scale * np.min(np.stack([lengths[..., i] * lengths[..., j]
                                      for i, j in pairs], axis=-1), axis=-1)
             for pairs in (_ALL_EDGE_PAIRS, _OPPOSITE_EDGE_PAIRS)]
    return (volumes, diameters, *aniso)


def tet_geometry(mesh, tet_index):
    """Volume, diameter and both anisotropy measures of tet ``tet_index``;
    a degenerate one raises."""
    volume, diameter, aniso, aniso_opp = _tet_metrics(mesh.tet_vertices(tet_index))
    return TetGeometry(volume=float(volume), diameter=float(diameter),
                       aniso=float(aniso), aniso_opposite=float(aniso_opp))


def global_metrics(mesh):
    """Mesh size h and the largest all-pairs anisotropy measure, the two
    mesh quantities a ``converge`` row reports; a degenerate tet raises."""
    if mesh.n_tets == 0:
        raise ValueError("empty mesh")

    def block(s):
        _, diameters, aniso, _ = _tet_metrics(mesh.tet_vertices(s))
        return diameters, aniso

    diameters, aniso = per_block(mesh.n_tets, block)
    return MeshMetrics(h=float(diameters.max()), aniso_max=float(aniso.max()))
