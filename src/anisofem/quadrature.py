"""Fixed quadrature rules on tetrahedra and triangles.

Rules store barycentric points and weights relative to the simplex measure
(weights sum to 1), so the same rule applies to any simplex through the affine
map.  Negative weights are allowed; the degree-2 tet rule carries -1/20 at the
vertices.
"""

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .geometry import signed_volumes


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (n, k) barycentric coordinates, k = 3 or 4
    weights: np.ndarray  # (n,) summing to 1
    degree: int          # every polynomial up to this total degree is exact

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _orbit(coords):
    return np.array(sorted(set(permutations(coords))), dtype=float)


def tet_rule_degree2():
    """10-point rule: vertices at weight -1/20, edge midpoints at 1/5."""
    eye = np.eye(4)
    points = np.vstack([eye] + [(eye[i] + eye[j]) / 2.0
                                for i, j in combinations(range(4), 2)])
    weights = np.array([-1.0 / 20] * 4 + [1.0 / 5] * 6)
    return QuadratureRule(points, weights, degree=2)


def tet_rule_degree5():
    """The 15-point fifth-order rule of Keast.

    Orbit weights are the exact rationals recovered by moment matching, so
    the rule is as accurate as double precision allows; the monomial
    exactness tests gate any transcription slip.
    """
    s = math.sqrt(91.0) / 52.0
    groups = [
        (_orbit((0.25, 0.25, 0.25, 0.25)), 6544.0 / 36015.0),
        (_orbit((1 / 3, 1 / 3, 1 / 3, 0.0)), 81.0 / 2240.0),
        (_orbit((1 / 11, 1 / 11, 1 / 11, 8 / 11)), 161051.0 / 2304960.0),
        (_orbit((0.25 - s, 0.25 - s, 0.25 + s, 0.25 + s)), 338.0 / 5145.0),
    ]
    points = np.vstack([g for g, _ in groups])
    weights = np.concatenate([np.full(len(g), w) for g, w in groups])
    return QuadratureRule(points, weights, degree=5)


def tri_rule_midpoint3():
    """3-point edge-midpoint rule on triangles, exact to degree 2."""
    points = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    weights = np.full(3, 1.0 / 3.0)
    return QuadratureRule(points, weights, degree=2)


def simplex_measure(vertices):
    """Volumes of tets (..., 4, 3) or areas of triangles (..., 3, 3) embedded
    in R^3, with the stack shape (a scalar for one simplex)."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[-2:] == (4, 3):
        return np.abs(signed_volumes(vertices))
    if vertices.shape[-2:] == (3, 3):
        d = vertices[..., 1:, :] - vertices[..., :1, :]
        return 0.5 * np.linalg.norm(np.cross(d[..., 0, :], d[..., 1, :]), axis=-1)
    raise ValueError(f"expected (..., 4, 3) or (..., 3, 3) vertex array, "
                     f"got {vertices.shape}")


def sample(rule, vertices, f):
    """``f`` at the rule's points on every simplex of a stack ``vertices``
    (..., k, 3): the stack shape, then one entry per point, then the value
    shape.

    ``f(x, y, z)`` receives flat 1-D coordinate arrays: the rule's points on
    the first simplex, then on the next, in C order over the stack.  Its
    values may be scalar or vector-valued, with the points along their first
    axis.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[-2:] != (rule.points.shape[1], 3):
        raise ValueError(f"rule with {rule.points.shape[1]} barycentric coordinates "
                         f"does not fit vertices of shape {vertices.shape}")
    if np.any(simplex_measure(vertices) <= 1e-300):
        raise ValueError("degenerate simplex")
    x = (rule.points @ vertices).reshape(-1, 3)
    values = np.asarray(f(x[:, 0], x[:, 1], x[:, 2]), dtype=float)
    return values.reshape(vertices.shape[:-2] + rule.weights.shape + values.shape[1:])


def mean(rule, vertices, f):
    """Mean value of ``f`` over each simplex, called as ``sample``: the
    weighted sum of its samples, since the rule's weights sum to 1."""
    values = sample(rule, vertices, f)
    return np.tensordot(values, rule.weights, (np.ndim(vertices) - 2, 0))[()]


def integrate(rule, vertices, f):
    """Integral of ``f`` over each simplex of a stack ``vertices`` (..., k, 3),
    called as ``sample``; the result has the stack shape followed by the value
    shape."""
    means = mean(rule, vertices, f)
    measure = simplex_measure(vertices)
    return np.expand_dims(measure, tuple(range(measure.ndim, means.ndim))) * means
