import itertools
import math

import numpy as np
import pytest

import anisofem as af

from conftest import random_tet

REF_TET = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def monomial_exponents(dim, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=dim):
        if sum(exps) <= max_degree:
            yield exps


def simplex_monomial_integral(verts, exps):
    """Exact integral of x^a y^b z^c over a simplex, independent of the
    quadrature path: expand the coordinates in barycentric powers and use
    int prod lambda_i^k_i = (prod k_i!) d! |S| / (sum k_i + d)!."""
    verts = np.asarray(verts, dtype=float)
    nv = len(verts)
    poly = {(0,) * nv: 1.0}
    for axis, power in enumerate(exps):
        for _ in range(power):
            new = {}
            for mono, coeff in poly.items():
                for i in range(nv):
                    key = tuple(m + (1 if j == i else 0)
                                for j, m in enumerate(mono))
                    new[key] = new.get(key, 0.0) + coeff * verts[i, axis]
            poly = new
    d = nv - 1
    measure = af.simplex_measure(verts)
    total = 0.0
    for mono, coeff in poly.items():
        num = math.prod(math.factorial(k) for k in mono) * math.factorial(d)
        total += coeff * num / math.factorial(sum(mono) + d)
    return total * measure


@pytest.mark.parametrize("rule_fn,npoints", [
    (af.tet_rule_degree2, 10),
    (af.tet_rule_degree5, 15),
    (af.tri_rule_midpoint3, 3),
])
def test_rule_structure(rule_fn, npoints):
    rule = rule_fn()
    assert len(rule.weights) == npoints
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.abs(rule.points.sum(axis=1) - 1.0).max() < 1e-14


def test_degree2_reference_values():
    rule = af.tet_rule_degree2()
    assert abs(af.integrate(rule, REF_TET, lambda x, y, z: np.ones_like(x))
               - 1 / 6) < 1e-15
    assert abs(af.integrate(rule, REF_TET, lambda x, y, z: x * x)
               - 1 / 60) < 1e-16
    # degree bound is sharp: x^3 integrates to 1/120 but the rule gives 1/240
    got = af.integrate(rule, REF_TET, lambda x, y, z: x ** 3)
    assert abs(got - 1 / 120) > 1e-4
    assert abs(got - 1 / 240) < 1e-16


def test_degree2_monomials_random_tets():
    rule = af.tet_rule_degree2()
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = random_tet(rng)
        scale = af.simplex_measure(v)
        for exps in monomial_exponents(3, 2):
            exact = simplex_monomial_integral(v, exps)
            got = af.integrate(
                rule, v, lambda x, y, z: x ** exps[0] * y ** exps[1] * z ** exps[2])
            assert abs(got - exact) <= 1e-14 * max(abs(exact), scale)


def test_degree5_all_monomials_reference():
    rule = af.tet_rule_degree5()
    count = 0
    for exps in monomial_exponents(3, 5):
        a, b, c = exps
        exact = (math.factorial(a) * math.factorial(b) * math.factorial(c)
                 / math.factorial(a + b + c + 3))
        got = af.integrate(rule, REF_TET,
                           lambda x, y, z: x ** a * y ** b * z ** c)
        assert abs(got - exact) <= 1e-14 * max(abs(exact), 1e-10)
        count += 1
    assert count == 56


def test_degree5_monomials_random_tets():
    rule = af.tet_rule_degree5()
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = random_tet(rng)
        scale = af.simplex_measure(v)
        for exps in monomial_exponents(3, 5):
            exact = simplex_monomial_integral(v, exps)
            got = af.integrate(
                rule, v, lambda x, y, z: x ** exps[0] * y ** exps[1] * z ** exps[2])
            assert abs(got - exact) <= 1e-12 * max(abs(exact), scale)


def test_degree5_not_exact_at_degree6():
    rule = af.tet_rule_degree5()
    got = af.integrate(rule, REF_TET, lambda x, y, z: x ** 6)
    exact = math.factorial(6) / math.factorial(9)  # 1/504
    assert abs(got - exact) > 1e-7


def test_triangle_rule():
    tri = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0]])
    rule = af.tri_rule_midpoint3()
    area = af.simplex_measure(tri)
    assert abs(area - 0.5) < 1e-15
    assert abs(af.integrate(rule, tri, lambda x, y, z: np.ones_like(x)) - area) < 1e-15
    # lambda_1 lambda_2 = (1-x-y) x on this triangle
    got = af.integrate(rule, tri, lambda x, y, z: (1 - x - y) * x)
    assert abs(got - area / 12) < 1e-15
    cubic = af.integrate(rule, tri, lambda x, y, z: (1 - x - y) ** 3)
    assert abs(cubic - area / 5) > 1e-3 * area  # exact value |F|/10


def test_triangle_rule_random_3d_triangles():
    rule = af.tri_rule_midpoint3()
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = rng.uniform(-1, 1, (3, 3))
        scale = af.simplex_measure(v)
        if scale < 1e-3:
            continue
        for exps in monomial_exponents(3, 2):
            exact = simplex_monomial_integral(v, exps)
            got = af.integrate(
                rule, v, lambda x, y, z: x ** exps[0] * y ** exps[1] * z ** exps[2])
            assert abs(got - exact) <= 1e-13 * max(abs(exact), scale)


def test_affine_invariance():
    rng = np.random.default_rng(14)
    f = lambda x, y, z: np.sin(x) * np.cos(2 * y) + z ** 2
    for rule in (af.tet_rule_degree2(), af.tet_rule_degree5()):
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            if abs(np.linalg.det(a)) < 0.1:
                continue
            shift = rng.normal(size=3)
            v = random_tet(rng)
            image = v @ a.T + shift

            def pulled_back(x, y, z):
                pts = np.stack([x, y, z], axis=-1) @ a.T + shift
                return f(pts[..., 0], pts[..., 1], pts[..., 2])

            lhs = af.integrate(rule, image, f)
            rhs = abs(np.linalg.det(a)) * af.integrate(rule, v, pulled_back)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_scaled_tet_linear_integrand():
    rule = af.tet_rule_degree2()
    big = 2.0 * REF_TET
    assert abs(af.integrate(rule, big, lambda x, y, z: x) - 2 / 3) < 1e-14


def test_integrate_rejects_degenerate_and_mismatched():
    rule = af.tet_rule_degree2()
    flat = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [.5, .5, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        af.integrate(rule, flat, lambda x, y, z: x)
    tri = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        af.integrate(rule, tri, lambda x, y, z: x)


def test_vector_integrand():
    rule = af.tet_rule_degree5()
    got = af.integrate(rule, REF_TET,
                       lambda x, y, z: np.stack([x, y, np.ones_like(z)], axis=-1))
    assert np.allclose(got, [1 / 24, 1 / 24, 1 / 6], atol=1e-15)


def test_rule_copies_its_inputs():
    points, weights = np.full((1, 4), 0.25), np.ones(1)
    rule = af.QuadratureRule(points, weights, 1)
    assert points.flags.writeable and weights.flags.writeable
    points[0, 0], weights[0] = 1.0, 2.0
    assert rule.points[0, 0] == 0.25 and rule.weights[0] == 1.0
    assert not (rule.points.flags.writeable or rule.weights.flags.writeable)
