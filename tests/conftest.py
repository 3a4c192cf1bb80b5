import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import anisofem as af
from anisofem.geometry import signed_volumes
from anisofem.mesh import Mesh

CASE = af.cube_polynomial_case()


def exact_u(x, y, z):
    """The benchmark solution u alone: the first part of ``CASE.solution``."""
    return CASE.solution(x, y, z)[0]


def exact_grad(x, y, z):
    """grad u alone: the second part of ``CASE.solution``."""
    return CASE.solution(x, y, z)[1]

# mesh pairs of the published studies at the two grading exponents the
# acceptance checks cover, without the opt-in M=32 rows
PAIRS_GAMMA15 = [(4, 8), (8, 22), (16, 64)]
PAIRS_GAMMA20 = [(4, 16), (8, 64), (16, 256)]


def singular_saddle_system(mesh, kind):
    """A hand-built rt0 system that the direct solve cannot meet: the mixed
    matrix without its divergence block, which is exactly singular, or a
    diagonal so small that the solution overflows."""
    system = af.assemble_rt0_mixed(mesh, CASE.f)
    nf = mesh.faces.n_faces
    if kind == "exact":
        keep = sp.diags((np.arange(system.matrix.shape[0]) < nf).astype(float))
        matrix = (keep @ system.matrix @ keep).tocsr()
    else:
        matrix = sp.diags(np.full(system.matrix.shape[0], 1e-310), format="csr")
    return dataclasses.replace(system, matrix=matrix, rhs=np.ones(len(system.rhs)))


@pytest.fixture(scope="session")
def case():
    return CASE


def solve_family(element, pairs, tol=1e-10):
    """One ``converge_row`` of the benchmark problem per mesh; per-row dicts."""
    rows = []
    for m, n in pairs:
        mesh = af.generate_aniso_cube(m, n)
        field, _, err_h1, err_l2 = af.converge_row(element, mesh, CASE, tol=tol)
        rows.append({"M": m, "N": n, "mesh": mesh, "field": field,
                     "err_h1": err_h1, "err_l2": err_l2})
    return rows


@pytest.fixture(scope="session")
def cr_gamma15():
    return solve_family("cr", PAIRS_GAMMA15)


@pytest.fixture(scope="session")
def cr_gamma20():
    return solve_family("cr", PAIRS_GAMMA20)


@pytest.fixture(scope="session")
def p1_gamma15():
    return solve_family("p1", PAIRS_GAMMA15)


@pytest.fixture(scope="session")
def p1_gamma20():
    return solve_family("p1", PAIRS_GAMMA20)


@pytest.fixture(scope="session")
def rt_gamma15():
    return solve_family("rt", PAIRS_GAMMA15)


@pytest.fixture(scope="session")
def rt_gamma20():
    return solve_family("rt", PAIRS_GAMMA20[:2])


def random_tet(rng, min_volume=1e-3):
    while True:
        v = rng.uniform(-1.0, 1.0, (4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) / 6.0 > min_volume:
            return v


def jittered_cube(m, n, seed=35):
    """generate_aniso_cube(m, n) with every interior vertex moved by up to a
    fifth of the box size along each axis: no longer a tensor grid."""
    mesh = af.generate_aniso_cube(m, n)
    v = mesh.vertices.copy()
    inner = ((v > 0) & (v < 1)).all(axis=1)
    rng = np.random.default_rng(seed)
    v[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 3)) * [1 / m, 1 / m, 1 / n]
    return Mesh(v, mesh.tets)


def assert_conforming(mesh):
    """A conforming, positively oriented mesh of the unit cube: every signed
    volume positive and their sum 1, each slot the side of one face, and
    every singly-incident face on one cube plane x_d = 0 or x_d = 1."""
    signed = signed_volumes(mesh.tet_vertices())
    assert (signed > 0).all()
    assert abs(signed.sum() - 1.0) <= 1e-12
    faces = mesh.faces
    assert 2 * (~faces.boundary).sum() + faces.boundary.sum() == 4 * mesh.n_tets
    corners = mesh.vertices[mesh.face_vertices(faces.boundary)]  # (nb, 3, 3)
    on_plane = np.isclose(corners[..., None], [0.0, 1.0], atol=1e-12)
    assert on_plane.all(axis=1).any(axis=(1, 2)).all()
