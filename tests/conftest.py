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
