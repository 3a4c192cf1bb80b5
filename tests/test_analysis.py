import math
from fractions import Fraction

import numpy as np
import pytest

import anisofem as af
from anisofem.analysis import global_cr_interpolant
from anisofem.quadrature import map_points, sample

from conftest import CASE

# published interpolation-error rows for the flat-tet demo at gamma = 1.5
SLIVER_TABLE = [
    (128, 7.8125e-03, 3.8081e-01, 2.8183e-03),
    (256, 3.9062e-03, 2.6723e-01, 1.7641e-03),
    (512, 1.9531e-03, 1.8823e-01, 1.1587e-03),
    (1024, 9.7656e-04, 1.3284e-01, 7.8625e-04),
    (2048, 4.8828e-04, 9.3842e-02, 5.4390e-04),
    (4096, 2.4414e-04, 6.6324e-02, 3.8026e-04),
]


def test_manufactured_case_consistency():
    # -Laplace(u) = f checked by central differences at random points
    rng = np.random.default_rng(51)
    pts = rng.uniform(0.05, 0.95, (100, 3))
    h = 1e-5
    for p in pts:
        lap = 0.0
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            lap += (CASE.u(*(p + e)) - 2 * CASE.u(*p) + CASE.u(*(p - e))) / h ** 2
        assert abs(-lap - CASE.f(*p)) < 1e-6


def test_value_alone_has_the_bits_of_the_solution():
    # u skips the gradient but keeps solution's expression order: the same
    # bits at the degree-5 points of the 4:8 mesh, in their planes layout
    mesh = af.generate_aniso_cube(4, 8)
    points, _ = map_points(af.tet_rule_degree5(), mesh.tet_vertices())
    x, y, z = np.moveaxis(points, -1, 0)
    value = CASE.u(x, y, z)
    assert value.tobytes() == CASE.solution(x, y, z)[0].tobytes()
    assert value.shape == x.shape and value.any()


def test_gradient_consistency():
    rng = np.random.default_rng(52)
    pts = rng.uniform(0.05, 0.95, (50, 3))
    h = 1e-6
    for p in pts:
        grad = CASE.grad_u(*p)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd = (CASE.u(*(p + e)) - CASE.u(*(p - e))) / (2 * h)
            assert abs(grad[d] - fd) < 1e-8


def test_normalization_constants():
    # the same double as the root of the exact rational, which the reference
    # tables were divided by: every error column depends on these bits
    assert CASE.hess_diag_l2 == math.sqrt(Fraction(1, 75))
    # spot values of the source term
    assert abs(CASE.f(0.5, 0.5, 0.5) - 3 / 8) < 1e-15
    assert abs(CASE.f(0.5, 0.5, 0.5) ** 2 - 9 / 64) < 1e-15


def test_normalization_matches_quadrature_on_uniform_mesh():
    # the table normaliser || (u_xx, u_yy, u_zz) || by quadrature of u itself:
    # u is quadratic in each variable, so its second difference with step 1
    # is its pure second derivative
    def hess_sq(x, y, z):
        pts = np.stack([x, y, z])
        total = np.zeros_like(x)
        for e in np.eye(3):
            step = e.reshape((3,) + (1,) * x.ndim)
            total += (CASE.u(*(pts + step)) - 2.0 * CASE.u(*pts)
                      + CASE.u(*(pts - step))) ** 2
        return total

    mesh = af.generate_aniso_cube(16, 16)
    val = math.sqrt(af.integrate(af.tet_rule_degree5(), mesh.tet_vertices(),
                                 hess_sq).sum())
    assert abs(val - CASE.hess_diag_l2) / CASE.hess_diag_l2 < 1e-6


def test_errors_vanish_for_interpolated_linear():
    mesh = af.generate_aniso_cube(2, 2)
    u = lambda x, y, z: x
    grad = lambda x, y, z: np.stack([np.ones_like(x), np.zeros_like(y),
                                     np.zeros_like(z)], axis=-1)
    p1 = af.Field("p1", mesh, mesh.vertices[:, 0].copy())
    assert af.l2_error(mesh, p1, u) < 1e-13
    assert af.broken_h1_error(mesh, p1, grad) < 1e-13
    cr = global_cr_interpolant(mesh, u)
    assert af.l2_error(mesh, cr, u) < 1e-13
    assert af.broken_h1_error(mesh, cr, grad) < 1e-13


def _separate_error_passes(mesh, field):
    # reference: one pass per norm, each sampling its own exact function
    rule = af.tet_rule_degree5()
    v = mesh.tet_vertices()
    exact, vols = sample(rule, v, CASE.grad_u)
    diff = exact - (field.flux_values(rule.points) if field.space == "rt0"
                    else field.element_gradients()[:, None, :])
    h1 = vols @ np.einsum("q,tqd,tqd->t", rule.weights, diff, diff)
    exact, vols = sample(rule, v, CASE.u)
    values = (field.cell_coeffs[:, None] if field.space == "rt0"
              else field.element_values(rule.points))
    l2 = vols @ np.einsum("q,tq->t", rule.weights, (exact - values) ** 2)
    return math.sqrt(float(h1)), math.sqrt(float(l2))


@pytest.mark.parametrize("space", ["p1", "cr", "rt0"])
def test_error_sweep_matches_the_separate_norms(space):
    # the one-sweep (H1, L2) pair has the bits of the single-norm functions
    # and of the two passes it replaces
    mesh = af.generate_aniso_cube(4, 8)
    rng = np.random.default_rng(17)
    n = mesh.n_vertices if space == "p1" else mesh.faces.n_faces
    cells = rng.uniform(-1.0, 1.0, mesh.n_tets) if space == "rt0" else None
    field = af.Field(space, mesh, rng.uniform(-1.0, 1.0, n), cell_coeffs=cells)
    h1, l2 = af.error_norms(mesh, field, CASE.solution)
    assert (h1, l2) == (af.broken_h1_error(mesh, field, CASE.grad_u),
                        af.l2_error(mesh, field, CASE.u))
    assert (h1, l2) == _separate_error_passes(mesh, field)


def test_zero_field_error_is_solution_norm():
    mesh = af.generate_aniso_cube(8, 8)
    zero = af.Field("cr", mesh, np.zeros(mesh.faces.n_faces))
    norm = af.l2_error(mesh, zero, CASE.u)
    exact = math.sqrt(1 / 27000)  # (int p^2)^3 with int p^2 = 1/30
    # the squared integrand has degree 10, so the degree-5 rule is close but
    # deliberately not exact
    assert abs(norm - exact) / exact < 1e-4


def test_published_cr_error_row():
    mesh = af.generate_aniso_cube(8, 22)
    field = af.solve_spd(af.assemble_cr(mesh, CASE.f))
    err = af.broken_h1_error(mesh, field, CASE.grad_u) / CASE.hess_diag_l2
    assert abs(err - 4.0629e-02) / 4.0629e-02 < 0.25


def test_convergence_indicator():
    assert af.convergence_indicator([4.0, 1.0]) == [2.0]
    assert af.convergence_indicator([1.0, 1.0]) == [0.0]
    r = af.convergence_indicator([3.8242e-03, 8.8356e-04])[0]
    assert abs(r - 2.1139) < 1e-3
    with pytest.raises(ValueError):
        af.convergence_indicator([1.0, 0.0])
    with pytest.raises(ValueError):
        af.convergence_indicator([1.0, -2.0])


def test_triangle_inequality_sanity(cr_gamma15):
    row = cr_gamma15[0]
    mesh, field = row["mesh"], row["field"]
    interp = global_cr_interpolant(mesh, CASE.u)
    gap = af.Field("cr", mesh, interp.coeffs - field.coeffs)
    lhs = af.l2_error(mesh, field, CASE.u)
    rhs = af.l2_error(mesh, interp, CASE.u) + af.analysis.field_l2_norm(mesh, gap)
    assert lhs <= rhs + 1e-12


def test_broken_h1_matches_stiffness_energy(cr_gamma15):
    # the solution vanishes on the constrained faces, which the matrix leaves
    # out
    row = cr_gamma15[0]
    mesh, field = row["mesh"], row["field"]
    zero_grad = lambda x, y, z: np.zeros(x.shape + (3,))
    broken = af.broken_h1_error(mesh, field, zero_grad)
    system = af.assemble_cr(mesh, CASE.f)
    assert not field.coeffs[system.constrained].any()
    coeffs = field.coeffs[~system.constrained]
    energy = math.sqrt(coeffs @ system.matrix @ coeffs)
    assert abs(broken - energy) <= 1e-11 * energy


def test_broken_h1_of_continuous_p1_field():
    # a field that vanishes on the cube boundary, whose vertices the matrix
    # leaves out
    mesh = af.generate_aniso_cube(4, 4)
    x, y, z = mesh.vertices.T
    coeffs = CASE.u(x, y, z) * (1.0 + 0.3 * x - 0.2 * y + 1.1 * z)
    field = af.Field("p1", mesh, coeffs)
    zero_grad = lambda x, y, z: np.zeros(x.shape + (3,))
    system = af.assemble_p1(mesh, CASE.f)
    assert not coeffs[system.constrained].any()
    free = coeffs[~system.constrained]  # the unknowns, in vertex order
    energy = math.sqrt(free @ system.matrix @ free)
    assert abs(af.broken_h1_error(mesh, field, zero_grad) - energy) \
        <= 1e-12 * energy


def test_poincare_ratio_properties(cr_gamma15):
    ratios = []
    for row in cr_gamma15:
        ratio = af.discrete_poincare_ratio(row["mesh"], row["field"])
        assert 0.0 < ratio < 1.0
        ratios.append(ratio)
        doubled = af.Field("cr", row["mesh"], 2.0 * row["field"].coeffs)
        assert abs(af.discrete_poincare_ratio(row["mesh"], doubled) - ratio) \
            < 1e-12
    for r in ratios[1:]:
        assert 0.5 * ratios[0] <= r <= 1.5 * ratios[0]


def test_poincare_ratio_rejects_zero_field():
    mesh = af.generate_aniso_cube(2, 2)
    with pytest.raises(ValueError):
        af.discrete_poincare_ratio(mesh, af.Field("cr", mesh,
                                                  np.zeros(mesh.faces.n_faces)))


def test_sliver_rows_reproduce_reference_table():
    errs = []
    for n, h, aniso, err in SLIVER_TABLE:
        got_h, got_aniso, got_err = af.sliver_interp_row(n)
        assert got_h == 1.0 / n
        assert abs(got_h - h) / h < 1e-4  # published to 5 digits
        assert abs(got_aniso - aniso) / aniso < 5e-4
        assert abs(got_err - err) / err < 5e-4
        errs.append(got_err)
    r = af.convergence_indicator(errs)
    # the fourth indicator computed from the published error column is 0.56;
    # see the notes on the one inconsistent published value
    for got, published in zip(r, (0.68, 0.61, 0.56, 0.53, 0.52)):
        assert abs(got - published) <= 0.02


def test_sliver_rate_approaches_half():
    errs = [af.sliver_interp_row(n)[2] for n in (2 ** 14, 2 ** 15)]
    assert abs(af.convergence_indicator(errs)[0] - 0.5) < 0.02
