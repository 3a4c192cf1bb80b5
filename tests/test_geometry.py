import math

import numpy as np
import pytest

import anisofem as af
from anisofem.cli import DEFAULT_DEMO_N
from anisofem.mesh import Mesh

from conftest import random_tet


def tet_mesh(verts):
    return Mesh(np.asarray(verts, dtype=float), np.array([[0, 1, 2, 3]]))


REFERENCE = [[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_reference_tet():
    g = af.tet_geometry(tet_mesh(REFERENCE), 0)
    assert abs(g.volume - 1 / 6) < 1e-15
    assert abs(g.diameter - math.sqrt(2)) < 1e-15
    # min product over all pairs is 1*1 from two unit legs, so h^2/|T| * 1 = 12
    assert abs(g.aniso - 12.0) < 1e-12
    # opposite pairs always mix a unit leg with a sqrt(2) edge
    assert abs(g.aniso_opposite - 12.0 * math.sqrt(2)) < 1e-12


def test_flat_tet_aniso_is_12h():
    h = 0.1
    g = af.tet_geometry(tet_mesh([[0, 0, 0], [h, 0, 0], [0, h, 0],
                                  [0, 0, h ** 1.5]]), 0)
    assert abs(g.aniso - 12 * h) < 1e-12 * 12 * h


def test_regular_tet():
    # edge length 1, volume sqrt(2)/12
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / (2 * math.sqrt(2))
    g = af.tet_geometry(tet_mesh(v), 0)
    assert np.allclose(g.edge_lengths, 1.0, atol=1e-14)
    assert abs(g.volume - math.sqrt(2) / 12) < 1e-15
    assert abs(g.aniso - 6 * math.sqrt(2)) < 1e-12
    assert abs(g.spread - 1.5) < 1e-13  # 4 * (3/8)


def test_spread_equals_opposite_midpoint_distances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = random_tet(rng)
        g = af.tet_geometry(tet_mesh(v), 0)
        mids = {(i, j): (v[i] + v[j]) / 2 for i in range(4) for j in range(4) if i < j}
        alt = (np.sum((mids[(0, 3)] - mids[(1, 2)]) ** 2)
               + np.sum((mids[(0, 2)] - mids[(1, 3)]) ** 2)
               + np.sum((mids[(0, 1)] - mids[(2, 3)]) ** 2))
        assert abs(g.spread - alt) < 1e-13 * g.spread


def test_face_distance_volume_identity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = af.tet_geometry(tet_mesh(random_tet(rng)), 0)
        for dist, area in zip(g.face_distances, g.face_areas):
            assert abs(dist * area - 3 * g.volume) < 1e-13 * 3 * g.volume


def test_aniso_rigid_motion_invariance_and_scaling():
    rng = np.random.default_rng(9)
    for _ in range(25):
        v = random_tet(rng)
        base = af.tet_geometry(tet_mesh(v), 0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        moved = af.tet_geometry(tet_mesh(v @ q.T + rng.normal(size=3)), 0)
        assert abs(moved.aniso - base.aniso) < 1e-12 * base.aniso
        assert abs(moved.aniso_opposite - base.aniso_opposite) \
            < 1e-12 * base.aniso_opposite
        scaled = af.tet_geometry(tet_mesh(3.0 * v), 0)
        assert abs(scaled.aniso - 3.0 * base.aniso) < 1e-12 * base.aniso


def test_family_aniso_tracks_nominal_rate():
    # for N ~ M^1.5 the mesh-wide measure should stay a bounded multiple of
    # the nominal (1/M)^(2-1.5)
    ratios = []
    for m in (4, 8, 16):
        n = round(m ** 1.5)
        metrics = af.global_metrics(af.generate_aniso_cube(m, n))
        ratios.append(metrics.aniso_max / (1 / m) ** 0.5)
    for r in ratios[1:]:
        assert 0.8 * ratios[0] <= r <= 1.2 * ratios[0]


def test_global_metrics_published_mesh():
    mesh = af.generate_aniso_cube(4, 8)
    metrics = af.global_metrics(mesh)
    assert abs(metrics.h - math.sqrt(2) / 4) < 1e-14
    # the central tets dominate: 6 (a^2 + b^2) / b with a = 1/4, b = 1/8
    assert abs(metrics.aniso_max - 3.75) < 1e-12
    per_tet = max(af.tet_geometry(mesh, t).aniso for t in range(0, mesh.n_tets, 7))
    assert metrics.aniso_max >= per_tet - 1e-12


def test_two_identical_tets_share_max():
    mesh = af.generate_aniso_cube(2, 2)
    best = max(af.tet_geometry(mesh, t).aniso for t in range(mesh.n_tets))
    assert abs(af.global_metrics(mesh).aniso_max - best) < 1e-12 * best


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_tet_rejected():
    # face 0 has zero area too: the volume check comes before any division,
    # in both views of the per-tet pass
    flat = tet_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [ .5, .5, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        af.tet_geometry(flat, 0)
    with pytest.raises(ValueError, match="degenerate"):
        af.global_metrics(flat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_face_area_rejected():
    # h^400 at h = 1/4: the volume is positive, one face area underflows to 0
    sliver = af.sliver_tet(4, 400.0)
    assert af.geometry.tet_volumes(sliver) > 0
    with pytest.raises(ValueError, match="degenerate face"):
        af.geometry.face_geometry(sliver)


def test_empty_mesh_rejected():
    with pytest.raises(ValueError):
        af.global_metrics(Mesh(np.zeros((0, 3)), np.zeros((0, 4), dtype=int)))


def test_per_tet_and_mesh_geometry_agree():
    # M=2, N=3 has boxes of both split patterns
    mesh = af.generate_aniso_cube(2, 3)
    vols = af.element_volumes(mesh)
    areas, normals, _ = af.geometry.local_face_geometry(mesh)
    grads = af.geometry.barycentric_gradients(mesh)
    for t in range(mesh.n_tets):
        v = mesh.tet_vertices(t)
        g = af.tet_geometry(mesh, t)
        assert np.allclose(g.volume, vols[t], rtol=1e-13, atol=0)
        assert np.allclose(g.face_areas, areas[t], rtol=1e-13, atol=0)
        own_areas, own_normals, _ = af.geometry.face_geometry(v)
        assert np.allclose(own_areas, areas[t], rtol=1e-13, atol=0)
        assert np.allclose(own_normals, normals[t], rtol=1e-13, atol=1e-15)
        assert np.allclose(af.BarycentricMap(v).gradients, grads[t],
                           rtol=1e-13, atol=1e-13 * np.abs(grads[t]).max())


def _inverse_oracle(verts):
    """Barycentric coefficients as the inverse of [x_j 1] (rows j)."""
    return np.linalg.inv(np.concatenate([verts, np.ones(verts.shape[:-1] + (1,))],
                                        axis=-1))


_rng = np.random.default_rng(11)
TET_FAMILIES = {
    "random": np.stack([random_tet(_rng) for _ in range(200)]),
    "gamma2": af.generate_aniso_cube(8, 64).tet_vertices(),
    "interp_demo_slivers": np.stack([af.sliver_tet(n) for n in DEFAULT_DEMO_N]),
}


@pytest.mark.parametrize("family", TET_FAMILIES)
def test_closed_form_barycentric_coefficients(family):
    verts = TET_FAMILIES[family]
    coef = af.geometry.barycentric_coefficients(verts)
    oracle = _inverse_oracle(verts)
    scale = np.abs(oracle).max(axis=(-2, -1))
    assert (np.abs(coef - oracle).max(axis=(-2, -1)) <= 1e-13 * scale).all()
    # lambda_i(x_j) = delta_ij, to rounding relative to |g| |x|
    bary = verts @ coef[..., :3, :] + coef[..., 3, None, :]
    size = np.abs(coef[..., :3, :]).max(axis=(-2, -1)) * np.abs(verts).max(axis=(-2, -1))
    assert (np.abs(bary - np.eye(4)).max(axis=(-2, -1))
            <= 1e-14 * np.maximum(size, 1.0)).all()
    assert np.array_equal(af.geometry.tet_gradients(verts),
                          np.swapaxes(coef[..., :3, :], -1, -2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_rejects_coplanar_tet():
    coplanar = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    stack = np.stack([REFERENCE, coplanar, REFERENCE]).astype(float)
    for verts in (coplanar, stack):
        with pytest.raises(ValueError, match="degenerate"):
            af.geometry.barycentric_coefficients(verts)
        with pytest.raises(ValueError, match="degenerate"):
            af.geometry.tet_gradients(verts)
