"""The mesh-level per-element passes run over blocks of ``geometry.BLOCK``
tets; every result has the same bits at any block size."""

import dataclasses
import math

import numpy as np

import anisofem as af
from anisofem import geometry
from anisofem.mesh import face_traces

from conftest import exact_grad, exact_u

CASE = af.cube_polynomial_case()
M, N = 4, 8  # 640 tets: 92 blocks of 7, the last one partial


def _passes():
    mesh = af.generate_aniso_cube(M, N)  # a fresh face table at this BLOCK
    faces = mesh.faces
    rng = np.random.default_rng(5)
    fbar = af.p0_project(mesh.tet_vertices(), CASE.f)
    out = {
        "volumes": af.element_volumes(mesh),
        "gradients": geometry.barycentric_gradients(mesh),
        "metrics": dataclasses.astuple(af.global_metrics(mesh)),
        "face_geometry": geometry.local_face_geometry(mesh),
        "face_traces": face_traces(mesh, rng.uniform(-1.0, 1.0, mesh.n_tets),
                                   rng.uniform(-1.0, 1.0, (mesh.n_tets, 3))),
        "p0_project": fbar,
        "rt0_mass": af.rt0_mass_matrix(mesh).data,
    }
    for assemble in (af.assemble_p1, af.assemble_cr):
        for data, label in ((CASE.f, "callable"), (fbar, "cell-means")):
            system = assemble(mesh, data)
            out[f"{assemble.__name__}_{label}"] = (
                system.matrix.indptr, system.matrix.indices, system.matrix.data,
                system.rhs)
    cr = af.Field("cr", mesh, rng.uniform(-1.0, 1.0, faces.n_faces))
    rt, mismatch = af.marini_reconstruct(mesh, cr, fbar / 72.0)
    out["marini"] = (rt.coeffs, rt.cell_coeffs, mismatch, rt.flux_divergence())
    fields = [af.Field("p1", mesh, rng.uniform(-1.0, 1.0, mesh.n_vertices)), cr,
              af.Field("rt0", mesh, rng.uniform(-1.0, 1.0, faces.n_faces),
                       cell_coeffs=rng.uniform(-1.0, 1.0, mesh.n_tets))]
    for fld in fields:
        out[f"l2_{fld.space}"] = af.l2_error(mesh, fld, exact_u)
        out[f"h1_{fld.space}"] = af.broken_h1_error(mesh, fld, exact_grad)
        out[f"sweep_{fld.space}"] = af.error_norms(mesh, fld, CASE.solution)
    return out


def _flat(value):
    if isinstance(value, tuple):
        return [x for item in value for x in _flat(item)]
    return [np.asarray(value)]


def test_block_size_does_not_change_bits(monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK", 7)
    calls = []

    def f(x, y, z):
        calls.append(len(x))
        return x

    af.p0_project(af.generate_aniso_cube(M, N).tet_vertices(), f)
    assert len(calls) == math.ceil(5 * M * M * N / 7)  # one call per block
    small = _passes()
    monkeypatch.setattr(geometry, "BLOCK", 5 * M * M * N)
    whole = _passes()
    assert small.keys() == whole.keys()
    for key in whole:
        for a, b in zip(_flat(small[key]), _flat(whole[key]), strict=True):
            assert a.shape == b.shape and np.array_equal(a, b), key
