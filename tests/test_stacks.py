"""The per-simplex helpers take stacks of simplices (..., k, 3): a stacked call
equals the per-simplex calls stacked, one simplex keeps its own shapes, and
one degenerate simplex anywhere in a stack is rejected."""

import numpy as np
import pytest

import anisofem as af

from conftest import random_tet

STACK = (2, 3)
_rng = np.random.default_rng(51)
# tets in the positive octant, so the integrands below stay positive and the
# comparisons are relative to well-scaled values
TETS = np.stack([random_tet(_rng) + 2.0 for _ in range(6)]).reshape(STACK + (4, 3))
POINTS = _rng.uniform(1.0, 3.0, STACK + (5, 3))
RULE5 = af.tet_rule_degree5()
TRI_RULE = af.tri_rule_midpoint3()


def _vector(x, y, z):
    return np.stack([x * y, z * z + x], axis=-1)


def _field(x, y, z):
    return np.stack([x * y, y * z, z * x * x], axis=-1)


def _div_field(x, y, z):
    return y + z + 2.0 * z * x


# name, helper(vertices, points), result shapes for one simplex, whether a
# degenerate simplex is rejected
CASES = [
    ("simplex_measure_tet", lambda v, p: af.simplex_measure(v), [()], False),
    ("simplex_measure_tri", lambda v, p: af.simplex_measure(v[..., 1:, :]), [()], False),
    ("integrate_tet", lambda v, p: af.integrate(RULE5, v, _vector), [(2,)], True),
    ("integrate_tri", lambda v, p: af.integrate(
        TRI_RULE, v[..., 1:, :], lambda x, y, z: x * y + z), [()], True),
    ("p0_project", lambda v, p: af.p0_project(
        v, lambda x, y, z: x * x + y), [()], True),
    ("cr_interpolate", lambda v, p: af.cr_interpolate(v, _vector), [(4, 2)], True),
    ("barycentric_coords", lambda v, p: af.barycentric_coords(v, p), [(5, 4)], True),
    ("barycentric_gradients", lambda v, p: af.geometry.tet_gradients(v),
     [(4, 3)], True),
    # coefficients (..., 4) taken from the vertices' x coordinates
    ("cr_eval", lambda v, p: af.elements.cr_eval(v, v[..., 0], p), [(5,)], True),
    ("rt_eval", lambda v, p: af.elements.rt_eval(v, v[..., 0], p), [(5, 3)], True),
    ("rt_interpolate", lambda v, p: af.rt_interpolate(v, _field), [(4,)], True),
    ("bubble_spread", lambda v, p: af.bubble_spread(v), [()], False),
    ("bubble_eval", lambda v, p: af.bubble_eval(v, p), [(5,)], False),
    ("bubble_grad", lambda v, p: af.bubble_grad(v, p), [(5, 3)], False),
    ("bubble_identities", lambda v, p: af.bubble_identities(v), [(), ()], True),
    ("local_commuting_check", lambda v, p: af.local_commuting_check(
        v, _field, _div_field), [(), ()], True),
]


def _parts(result):
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("name,helper,shapes,rejects", CASES,
                         ids=[case[0] for case in CASES])
def test_stacked_equals_per_simplex(name, helper, shapes, rejects):
    singles = [_parts(helper(TETS[idx], POINTS[idx])) for idx in np.ndindex(STACK)]
    for single in singles:
        assert [np.shape(part) for part in single] == shapes
    stacked = _parts(helper(TETS, POINTS))
    assert len(stacked) == len(shapes)
    for k, (part, shape) in enumerate(zip(stacked, shapes)):
        expected = np.reshape([single[k] for single in singles], STACK + shape)
        assert part.shape == expected.shape
        np.testing.assert_allclose(part, expected, rtol=1e-14, atol=0.0)

    if rejects:
        # one tet with vertex 3 on vertex 2, all four at one height: its volume
        # and the areas of faces 0 and 1 are exactly zero
        flat = TETS.copy()
        flat[1, 2, 3] = flat[1, 2, 2]
        flat[1, 2, :, 2] = flat[1, 2, 0, 2]
        with pytest.raises(ValueError, match="degenerate"), \
                np.errstate(divide="ignore", invalid="ignore"):
            helper(flat, POINTS)


def test_rule_and_vertex_count_mismatch_raises():
    with pytest.raises(ValueError):
        af.integrate(RULE5, TETS[..., 1:, :], lambda x, y, z: x)
    with pytest.raises(ValueError):
        af.integrate(TRI_RULE, TETS, lambda x, y, z: x)
    with pytest.raises(ValueError):
        af.simplex_measure(np.zeros(STACK + (5, 3)))
