"""The mesh gather puts the tet index innermost, the element kernels keep
that layout in their outputs, and every per-element formula gives the same
bits on the gather as on a C-ordered copy of it."""

import numpy as np
import pytest

import anisofem as af
from anisofem import geometry, quadrature
from anisofem.system import Field

from conftest import CASE, exact_grad, jittered_cube

RULE = af.tet_rule_degree5()


@pytest.fixture(params=["4:8", "jittered"])
def mesh(request):
    return af.generate_aniso_cube(4, 8) if request.param == "4:8" else jittered_cube(4, 4)


def _parts(result):
    return list(result) if isinstance(result, tuple) else [result]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _tet_innermost(a):
    return a.strides[0] == a.itemsize


def test_gather_has_the_tet_index_innermost(mesh):
    for s in (slice(None), slice(3, 40)):
        v = mesh.tet_vertices(s)
        assert _tet_innermost(v)
        assert np.array_equal(v, mesh.vertices[mesh.tets[s]])
    assert np.array_equal(mesh.tet_vertices(5), mesh.vertices[mesh.tets[5]])


FORMULAS = [
    ("tet_gradients", geometry.tet_gradients),
    ("simplex_measure", geometry.simplex_measure),
    ("map_points", lambda v: quadrature.map_points(RULE, v)),
    ("sample", lambda v: quadrature.sample(RULE, v, CASE.f)),
    ("sample_vector", lambda v: quadrature.sample(RULE, v, exact_grad)),
    ("tet_metrics", geometry._tet_metrics),
    ("face_geometry", geometry.face_geometry),
    ("rt0_affine", lambda v: geometry.rt0_affine(
        v, np.cos(np.arange(v.shape[0] * 4.0)).reshape(-1, 4))),
]


@pytest.mark.parametrize("name,formula", FORMULAS, ids=[f[0] for f in FORMULAS])
def test_formula_bits_do_not_depend_on_the_layout(mesh, name, formula):
    gather = mesh.tet_vertices(slice(None))
    on_gather = _parts(formula(gather))
    on_copy = _parts(formula(np.ascontiguousarray(gather)))
    assert len(on_gather) == len(on_copy)
    for a, b in zip(on_gather, on_copy):
        assert _same_bits(a, b), name
        # outputs with a per-tet axis keep the tet index innermost
        assert np.ndim(a) < 2 or _tet_innermost(a), name


@pytest.mark.parametrize("space", ["p1", "cr"])
def test_field_bits_do_not_depend_on_the_layout(mesh, space, monkeypatch):
    rng = np.random.default_rng(23)
    n = mesh.n_vertices if space == "p1" else mesh.faces.n_faces
    fld = Field(space, mesh, rng.uniform(-1.0, 1.0, n))
    values, grads = fld.element_values(RULE.points), fld.element_gradients()
    assert _tet_innermost(values)
    copy = np.ascontiguousarray(mesh.tet_vertices())
    # the same formulas on C-ordered vertices and element coefficients
    monkeypatch.setattr(fld, "element_coeffs", lambda tets=slice(None): (
        np.ascontiguousarray(Field.element_coeffs(fld, tets))))
    assert _same_bits(values, fld.element_values(RULE.points))
    assert _same_bits(grads, fld.element_gradients(slice(None), copy))
