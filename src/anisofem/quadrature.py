"""Fixed quadrature rules on tetrahedra and triangles.

Rules store barycentric points and weights relative to the simplex measure
(weights sum to 1, the measure from ``geometry.checked_measure``), so the
same rule applies to any simplex through the affine map.  Negative weights
are allowed; the degree-2 tet rule carries -1/20 at the vertices.
"""

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .geometry import checked_measure, from_barycentric, simplex_measure  # noqa: F401


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


def map_points(rule, vertices):
    """The rule's points (..., n, 3) on every simplex of a stack ``vertices``
    (..., k, 3), with the measure of each simplex (the stack shape); a
    degenerate simplex raises ValueError."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[-2:] != (rule.points.shape[1], 3):
        raise ValueError(f"rule with {rule.points.shape[1]} barycentric coordinates "
                         f"does not fit vertices of shape {vertices.shape}")
    return from_barycentric(rule.points, vertices), checked_measure(vertices)


def sample(rule, vertices, f):
    """``f`` at the rule's points on every simplex of a stack ``vertices``
    (..., k, 3): the stack shape, then one entry per point, then the value
    shape; returned with the measure of each simplex (the stack shape), which
    the degeneracy check computes anyway.

    ``f(x, y, z)`` receives three coordinate arrays of the stack shape then
    one entry per point, with the simplex index innermost in memory, and
    returns values of that shape, then the value shape.
    """
    points, measure = map_points(rule, vertices)
    return np.asarray(f(*np.moveaxis(points, -1, 0)), dtype=float), measure


def _weighted_sum(values, weights, axis):
    # einsum on C-ordered values sums each simplex in one order wherever it
    # sits in the stack or memory, so a blocked pass gives the same bits
    axes = list(range(values.ndim))
    return np.einsum(np.ascontiguousarray(values), axes, weights, [axis],
                     axes[:axis] + axes[axis + 1:])[()]


def mean(rule, vertices, f):
    """Mean value of ``f`` over each simplex, called as ``sample``: the
    weighted sum of its samples, since the rule's weights sum to 1."""
    values, measure = sample(rule, vertices, f)
    return _weighted_sum(values, rule.weights, measure.ndim)


def integrate(rule, vertices, f):
    """Integral of ``f`` over each simplex of a stack ``vertices`` (..., k, 3),
    called as ``sample``; the result has the stack shape followed by the value
    shape."""
    values, measure = sample(rule, vertices, f)
    means = _weighted_sum(values, rule.weights, measure.ndim)
    return np.expand_dims(measure, tuple(range(measure.ndim, means.ndim))) * means
