import numpy as np
import pytest

import anisofem as af

CASE = af.cube_polynomial_case()

# mesh pairs of the published studies at the two grading exponents the
# acceptance checks cover, without the opt-in M=32 rows
PAIRS_GAMMA15 = [(4, 8), (8, 22), (16, 64)]
PAIRS_GAMMA20 = [(4, 16), (8, 64), (16, 256)]


@pytest.fixture(scope="session")
def case():
    return CASE


def solve_family(element, pairs, tol=1e-10):
    """Solve the benchmark problem on each mesh; returns per-row dicts."""
    rows = []
    for m, n in pairs:
        mesh = af.generate_aniso_cube(m, n)
        if element == "p1":
            sys_ = af.assemble_p1(mesh, CASE.f)
        else:
            sys_ = af.assemble_cr(mesh, CASE.f)
        field = af.solve_spd(sys_, tol=tol)
        # one sweep for both norms, the bits of the two separate calls
        err_h1, err_l2 = af.error_norms(mesh, field, CASE.solution)
        rows.append({
            "M": m, "N": n, "mesh": mesh, "field": field,
            "err_h1": err_h1 / CASE.hess_diag_l2,
            "err_l2": err_l2 / CASE.hess_diag_l2,
        })
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


def random_tet(rng, min_volume=1e-3):
    while True:
        v = rng.uniform(-1.0, 1.0, (4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) / 6.0 > min_volume:
            return v
