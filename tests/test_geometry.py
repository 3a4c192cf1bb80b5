import math

import numpy as np
import pytest

import anisofem as af
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
    assert metrics.consistency_ratio > 0


def test_two_identical_tets_share_max():
    mesh = af.generate_aniso_cube(2, 2)
    best = max(af.tet_geometry(mesh, t).aniso for t in range(mesh.n_tets))
    assert abs(af.global_metrics(mesh).aniso_max - best) < 1e-12 * best


def test_degenerate_tet_rejected():
    flat = tet_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [ .5, .5, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        af.tet_geometry(flat, 0)


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
        basis = af.RT0Basis(v)
        assert np.allclose(basis.face_areas, areas[t], rtol=1e-13, atol=0)
        assert np.allclose(basis.normals, normals[t], rtol=1e-13, atol=1e-15)
        assert np.allclose(af.BarycentricMap(v).gradients, grads[t],
                           rtol=1e-13, atol=1e-13 * np.abs(grads[t]).max())
