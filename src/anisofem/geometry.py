"""Per-element geometry: measures, barycentric gradients and coordinates,
face geometry, the RT0 local field and the edge-pair anisotropy measure.

Each per-element formula is written once, over stacks of vertex arrays of
shape (..., 4, 3); per-tet code passes a single (4, 3) array, and the
mesh-level functions apply it to ``mesh.tet_vertices(block)`` for one block of
tets at a time through ``per_block``.  That gather has the tet index
innermost (coordinate planes (3, 4, nb)), the kernels keep it in their
outputs, and sums run in a fixed order, so a C-ordered stack gives the same bits.

Every per-simplex decision is made here: ``simplex_measure`` is the one
formula for |T| and |F|, and one private check refuses a simplex whose
measure is (nearly) zero or NaN, before anything divides by it.  Flat but
valid tets are the object of study; clamping would hide generator bugs.

The anisotropy measure of a tet is h^2/|T| times a minimum of products of two
edge lengths.  Two variants are provided: ``aniso`` minimises over all 15
pairs of distinct edges, ``aniso_opposite`` only over the three pairs of
opposite (vertex-disjoint) edges.  They agree on the flattest elements of the
generated mesh family; the opposite-pair variant is the one the reference
benchmark tables for the interpolation demo were computed with.
"""

import functools
from dataclasses import dataclass

import numpy as np

# local face i of a tet is opposite local vertex i
LOCAL_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

# edge e connects vertices EDGE_VERTICES[e]; edges (0,5), (1,4), (2,3) are the
# three opposite (vertex-disjoint) pairs
EDGE_VERTICES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
_OPPOSITE_EDGE_PAIRS = ((0, 5), (1, 4), (2, 3))
_ADJACENT_EDGE_PAIRS = tuple((i, j) for i in range(6) for j in range(i + 1, 6)
                             if (i, j) not in _OPPOSITE_EDGE_PAIRS)


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
    empty slice when n = 0), its output arrays (one or a tuple, where None
    stays None) joined along the first axis.  Per-element kernels give the
    same bits at any block size; sums across elements are left to the
    caller, to run once over the joined arrays, so no result depends on
    BLOCK."""
    parts = [kernel(slice(i, i + BLOCK)) for i in range(0, max(n, 1), BLOCK)]
    if isinstance(parts[0], tuple):
        return tuple(None if p[0] is None else np.concatenate(p)
                     for p in zip(*parts))
    return np.concatenate(parts)


def cross(a, b, out=None):
    """a x b over the last axis, component by component, into ``out`` (a new
    array in the layout of ``a`` by default)."""
    if out is None:
        out = np.empty_like(a, shape=np.broadcast_shapes(np.shape(a), np.shape(b)),
                            dtype=np.result_type(a, b))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def dot(a, b):
    """a . b over the last axis of 3 as (a0 b0 + a2 b2) + a1 b1 in any layout:
    the order of numpy's einsum on contiguous rows, so the bits held."""
    return (a[..., 0] * b[..., 0] + a[..., 2] * b[..., 2]) + a[..., 1] * b[..., 1]


def signed_volumes(verts):
    """Signed volumes of tets given by their vertices (..., 4, 3), shape (...)."""
    d = verts[..., 1:, :] - verts[..., :1, :]
    return dot(cross(d[..., 0, :], d[..., 1, :]), d[..., 2, :]) / 6.0


def simplex_measure(vertices):
    """Volumes of tets (..., 4, 3) or areas of triangles (..., 3, 3) embedded
    in R^3, with the stack shape (a scalar for one simplex)."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[-2:] == (4, 3):
        return np.abs(signed_volumes(vertices))
    if vertices.shape[-2:] == (3, 3):
        d = vertices[..., 1:, :] - vertices[..., :1, :]
        return 0.5 * np.linalg.norm(cross(d[..., 0, :], d[..., 1, :]), axis=-1)
    raise ValueError(f"expected (..., 4, 3) or (..., 3, 3) vertex array, "
                     f"got {vertices.shape}")


def _refuse_degenerate(measures, what):
    # the one rule for which simplices are degenerate; NaN compares False
    if not np.min(measures, initial=np.inf) > 1e-300:
        raise ValueError(f"degenerate {what}: zero or NaN measure")
    return measures


def checked_measure(vertices):
    """``simplex_measure``, refusing a degenerate simplex."""
    what = "tet" if np.shape(vertices)[-2:] == (4, 3) else "triangle"
    return _refuse_degenerate(simplex_measure(vertices), what)


def tet_gradients(verts):
    """Constant gradients of the barycentric coordinates (..., 4, 3), by
    cofactors: with d_j = x_j - x_0, grad lambda_1..3 = (d2 x d3, d3 x d1,
    d1 x d2) / det and grad lambda_0 = -their sum.  A degenerate tet raises
    ValueError before the division."""
    d1, d2, d3 = (verts[..., j, :] - verts[..., 0, :] for j in (1, 2, 3))
    g = np.empty_like(verts, dtype=float)
    for row, (a, b) in enumerate(((d2, d3), (d3, d1), (d1, d2)), start=1):
        cross(a, b, out=g[..., row, :])
    det = dot(g[..., 3, :], d3)
    _refuse_degenerate(np.abs(det) / 6.0, "tet")
    g[..., 1:, :] /= det[..., None, None]
    np.negative(g[..., 1, :] + g[..., 2, :] + g[..., 3, :], out=g[..., 0, :])
    return g


def barycentric_coords(verts, points):
    """Barycentric coordinates (..., n, 4) of points (..., n, 3) in the tets
    ``verts`` (..., 4, 3): lambda_i(x) = g_i . x + c_i, with g_i from
    ``tet_gradients`` and c_i from lambda_i(x_0) = delta_i0.  A degenerate
    tet raises ValueError."""
    verts = np.asarray(verts, dtype=float)
    g = tet_gradients(verts)
    c = -np.einsum("...id,...d->...i", g, verts[..., 0, :])
    c[..., 0] += 1.0
    return np.atleast_2d(points) @ np.swapaxes(g, -1, -2) + c[..., None, :]


def from_barycentric(bary, verts):
    """Points (..., n, 3) at barycentric coordinates ``bary`` (n, k) in ``verts``
    (..., k, 3): a product per coordinate plane, the bits of ``bary @ verts``."""
    planes = bary @ np.reshape(verts.T, (3, verts.shape[-2], -1))
    return planes.reshape(planes.shape[:2] + verts.shape[-3::-1]).T


def face_geometry(verts):
    """Areas, outward unit normals and centroids of the 4 faces of each tet.

    Returns (areas, normals, centroids) with shapes (..., 4), (..., 4, 3) and
    (..., 4, 3); face i is opposite vertex i.  A degenerate face (flat, or
    one whose cross product underflows on an extreme sliver) or a tet with no
    volume to point out of raises ValueError before anything divides by it.
    """
    tris = gather(verts, LOCAL_FACES)
    areas = _refuse_degenerate(simplex_measure(tris), "face")
    checked_measure(verts)
    a, b, c = (tris[..., j, :] for j in range(3))
    normals = cross(b - a, c - a) / (2.0 * areas[..., None])
    normals[dot(normals, verts.mean(axis=-2, keepdims=True) - a) > 0] *= -1.0
    return areas, normals, (a + b + c) / 3.0


def gather(points, index):
    """``points[..., index, :]`` for points (..., m, 3), taken plane by plane:
    its memory order is the reverse of its axes, the leading axis innermost."""
    return np.take(points.T, index.T, axis=1).T


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
    areas = _refuse_degenerate(simplex_measure(gather(verts, LOCAL_FACES)), "face")
    c = coeffs * rt0_scales(areas, checked_measure(verts))
    return c.sum(axis=-1), np.einsum("...i,...id->...d", c, verts)


def affine_field(a, b, points):
    """sigma = a x - b at points (..., n, 3) for a (...) and b (..., 3), shape
    (..., n, 3)."""
    return a[..., None, None] * points - b[..., None, :]


def element_volumes(mesh):
    """Volumes of all tets, shape (nt,)."""
    return per_block(mesh.n_tets, lambda s: simplex_measure(mesh.tet_vertices(s)))


def barycentric_gradients(mesh):
    """Constant gradients of the barycentric coordinates, shape (nt, 4, 3)."""
    return per_block(mesh.n_tets, lambda s: tet_gradients(mesh.tet_vertices(s)))


def local_face_geometry(mesh):
    """``face_geometry`` of every tet of ``mesh``."""
    return per_block(mesh.n_tets, lambda s: face_geometry(mesh.tet_vertices(s)))


def _tet_metrics(verts):
    """The one per-tet pass behind ``tet_geometry`` and ``global_metrics``,
    over a stack (..., 4, 3): volumes, diameters and the (all-pairs,
    opposite-pairs) anisotropy measures h^2/|T| * min of edge products; a
    degenerate tet raises."""
    volumes = checked_measure(verts)
    x, y, z = (verts[..., k] for k in range(3))
    edge = [np.sqrt((x[..., i] - x[..., j]) ** 2 + (y[..., i] - y[..., j]) ** 2
                    + (z[..., i] - z[..., j]) ** 2) for i, j in EDGE_VERTICES]
    diameters = functools.reduce(np.maximum, edge)
    scale = diameters ** 2 / volumes
    opposite = functools.reduce(np.minimum, (edge[i] * edge[j]
                                             for i, j in _OPPOSITE_EDGE_PAIRS))
    adjacent = functools.reduce(np.minimum, (edge[i] * edge[j]
                                             for i, j in _ADJACENT_EDGE_PAIRS))
    return volumes, diameters, scale * np.minimum(adjacent, opposite), scale * opposite


def tet_geometry(verts):
    """Volume, diameter and both anisotropy measures of one tet (4, 3); a
    degenerate one raises."""
    volume, diameter, aniso, aniso_opp = _tet_metrics(np.asarray(verts, dtype=float))
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
