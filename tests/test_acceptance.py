"""Acceptance checks: one test per criterion, each printing a PASS line with
its measured quantities once its assertions hold.

The reference values come from the published benchmark tables; the handful of
places where a published number is inconsistent with its own table are
documented inline and in the project notes.
"""

import time

import pytest

import anisofem as af
from anisofem.verify import equivalence_checks, identity_checks

# published rows: (M, N) -> (err_h1, err_l2) for the CR and P1 studies
CR_TABLE_15 = {(4, 8): (8.2569e-02, 3.8242e-03),
               (8, 22): (4.0629e-02, 8.8356e-04),
               (16, 64): (2.0042e-02, 2.0485e-04)}
CR_TABLE_20 = {(4, 16): (7.9473e-02, 3.2264e-03),
               (8, 64): (3.9647e-02, 7.6153e-04),
               (16, 256): (1.9803e-02, 1.8680e-04)}

# vertex and face counts for every default mesh pair of the six studies;
# the gamma=1.9 M=4 vertex entry is printed as 345 in the source table,
# which contradicts both the closed form (M+1)^2(N+1) and the same row's
# face count 2496 (achievable only by M=4, N=14), so 375 is asserted
STRUCTURAL = {
    1.5: {(4, 8): (225, 1440), (8, 22): (1863, 14912),
          (16, 64): (18785, 168448), (32, 182): (199287, 1889024)},
    1.9: {(4, 14): (375, 2496), (8, 52): (4293, 35072),
          (16, 194): (56355, 509568), (32, 724): (789525, 7508480)},
    2.0: {(4, 16): (425, 2848), (8, 64): (5265, 43136),
          (16, 256): (74273, 672256), (32, 1024): (1116225, 10618880)},
}


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_interpolation_counterexample():
    start = time.perf_counter()
    rows = [af.sliver_interp_row(n) for n in (128, 256, 512, 1024, 2048, 4096)]
    elapsed = time.perf_counter() - start
    _, aniso, err = rows[0]
    assert abs(aniso - 3.8081e-01) / 3.8081e-01 < 5e-4
    assert abs(err - 2.8183e-03) / 2.8183e-03 < 5e-4
    r = af.convergence_indicator([row[2] for row in rows])
    # the published indicator column reads (0.68, 0.61, 0.60, 0.53, 0.52);
    # its third entry is inconsistent with the published error column of the
    # same table, which forces log2(1.1587e-3/7.8625e-4) = 0.56, reproduced
    # here; the other four are asserted against the published values
    for k, published in [(0, 0.68), (1, 0.61), (3, 0.53), (4, 0.52)]:
        assert abs(r[k] - published) <= 0.02
    assert abs(r[2] - 0.56) <= 0.02
    assert elapsed < 1.0
    report(1, f"H_T and Err within 5e-4, r={['%.2f' % v for v in r]}, "
              f"{elapsed * 1e3:.0f} ms")


@pytest.mark.xfail(strict=True,
                   reason="published r value 0.60 at N=1024 contradicts the "
                          "published errors of the same table (they force "
                          "0.56); reproducing the errors to 5e-4 makes this "
                          "indicator unattainable")
def test_criterion_1_published_indicator_row_1024():
    rows = [af.sliver_interp_row(n) for n in (512, 1024)]
    r = af.convergence_indicator([row[2] for row in rows])[0]
    assert abs(r - 0.60) <= 0.02


def _rates(rows):
    r_h1 = af.convergence_indicator([row["err_h1"] for row in rows])
    r_l2 = af.convergence_indicator([row["err_l2"] for row in rows])
    return r_h1, r_l2


def test_criterion_2_cr_rates_gamma15(cr_gamma15):
    r_h1, r_l2 = _rates(cr_gamma15)
    for r in r_h1:
        assert 0.90 <= r <= 1.12
    for r in r_l2:
        assert 1.95 <= r <= 2.25
    for row in cr_gamma15:
        ref_h1, ref_l2 = CR_TABLE_15[(row["M"], row["N"])]
        assert abs(row["err_h1"] - ref_h1) / ref_h1 < 0.25
        assert abs(row["err_l2"] - ref_l2) / ref_l2 < 0.25
    report(2, f"r_h1={['%.3f' % v for v in r_h1]}, "
              f"r_l2={['%.3f' % v for v in r_l2]}, errors within 25%")


def test_criterion_3_cr_rates_gamma20(cr_gamma20):
    r_h1, r_l2 = _rates(cr_gamma20)
    for r in r_h1:
        assert abs(r - 1.00) <= 0.1
    for r in r_l2:
        assert abs(r - 2.0) <= 0.15
    for row in cr_gamma20:
        ref_h1, ref_l2 = CR_TABLE_20[(row["M"], row["N"])]
        assert abs(row["err_h1"] - ref_h1) / ref_h1 < 0.25
        assert abs(row["err_l2"] - ref_l2) / ref_l2 < 0.25
    report(3, f"r_h1={['%.3f' % v for v in r_h1]}, "
              f"r_l2={['%.3f' % v for v in r_l2]}")


def test_criterion_4_lagrange_degradation(p1_gamma15, p1_gamma20):
    r15, _ = _rates(p1_gamma15)
    assert 0.5 <= r15[-1] <= 0.8
    r20, _ = _rates(p1_gamma20)
    assert r20[-1] <= 0.2
    # the headline contrast: CR keeps first order where P1 stagnates
    assert r20[-1] < 0.3
    report(4, f"gamma=1.5 final r={r15[-1]:.3f}, "
              f"gamma=2.0 final r={r20[-1]:.3f}")


def test_criterion_5_marini_equivalence():
    start = time.perf_counter()
    rows = list(equivalence_checks(flip_rt_signs=False, bubble_stiffness=72.0))
    elapsed = time.perf_counter() - start
    for name, dev, tol in rows:
        assert dev <= tol, f"{name}: deviation {dev:.3e} above {tol:.1e}"
    assert elapsed < 60.0
    report(5, ", ".join(f"{name} {dev:.2e}" for name, dev, _ in rows)
           + f", {elapsed:.1f} s")


def test_criterion_6_identity_suite():
    tolerances = {}
    for name, dev, tol in identity_checks():
        assert dev <= tol, f"{name}: deviation {dev:.3e} above {tol:.1e}"
        tolerances[name] = dev
    for required in ("quad_tet_degree2", "quad_tet_degree5", "quad_tri_degree2",
                     "bubble_face_means", "bubble_volume_mean",
                     "bubble_gradient_mean", "commuting_rt_projection",
                     "flux_gradient_duality"):
        assert required in tolerances
    report(6, f"{len(tolerances)} identities, worst deviation "
              f"{max(tolerances.values()):.2e}")


def test_criterion_7_structural_reproduction():
    checked = 0
    for gamma, rows in STRUCTURAL.items():
        for (m, n), (verts, faces) in rows.items():
            assert verts == (m + 1) ** 2 * (n + 1)
            assert faces == 10 * m * m * n + 2 * m * m + 4 * m * n
            if m <= 16:
                mesh = af.generate_aniso_cube(m, n)
                assert mesh.n_vertices == verts
                assert mesh.faces.n_faces == faces
                checked += 1
    report(7, f"12 table rows, {checked} meshes instantiated")


def test_criterion_8_rt_rates(rt_gamma15, rt_gamma20):
    # first-order flux (err_h1) and cell (err_l2) errors on both families;
    # no published RT0 table exists, so the band comes from the theory
    detail = []
    for gamma, rows in [(1.5, rt_gamma15), (2.0, rt_gamma20)]:
        r_h1, r_l2 = _rates(rows)
        for r in r_h1 + r_l2:
            assert abs(r - 1.0) <= 0.1
        detail.append(f"gamma={gamma} r_h1={['%.3f' % v for v in r_h1]}, "
                      f"r_l2={['%.3f' % v for v in r_l2]}")
    report(8, "; ".join(detail))
