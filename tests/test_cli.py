import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import anisofem as af
from anisofem import analysis, cli
from anisofem.cli import (ConfigError, DEFAULT_PAIRS, main, select_pairs)

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_select_pairs_defaults():
    assert select_pairs(1.5) == [(4, 8), (8, 22), (16, 64)]
    assert select_pairs(1.5, large=True) == DEFAULT_PAIRS[1.5]
    assert select_pairs(2.0) == [(4, 16), (8, 64), (16, 256)]
    assert select_pairs(1.9, large=True)[-1] == (32, 724)
    assert select_pairs(1.7, pairs_text="2:2,4:4") == [(2, 2), (4, 4)]
    with pytest.raises(ConfigError):
        select_pairs(1.7)
    with pytest.raises(ConfigError):
        select_pairs(1.5, pairs_text="2x2")
    with pytest.raises(ConfigError):
        select_pairs(1.5, pairs_text="")


def test_converge_cr_small(capsys):
    code, out, _ = run(capsys, ["converge", "--element", "cr",
                                "--pairs", "2:2,4:4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M,N,h,H_nominal,H_computed,dofs,err_h1,r_h1,err_l2,r_l2"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[5] == "104"
    assert first[7] == ""  # no indicator on the first row
    second = lines[2].split(",")
    assert float(second[7]) > 0.5  # some convergence between the two rows


@pytest.mark.parametrize("argv", [
    ["converge", "--element", "cr", "--pairs", "2:2,4:4"],
    ["interp-demo", "--n-values", "128,256"],
    ["verify"],
])
def test_byte_identical_reruns(capsys, argv):
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_converge_h_columns_match_published(capsys):
    # the published tables report H as the nominal (1/M)^(2-gamma); the
    # measured mesh maximum rides a bounded factor above it
    code, out, _ = run(capsys, ["converge", "--element", "cr",
                                "--gamma", "1.5", "--pairs", "4:8"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[3]) - 5.00e-01) < 1e-12
    assert abs(float(row[4]) - 3.75) < 1e-12
    assert 1.0 < float(row[4]) / float(row[3]) < 20.0


def test_converge_rt_smoke(capsys):
    code, out, _ = run(capsys, ["converge", "--element", "rt",
                                "--pairs", "2:3"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "2" and row[1] == "3"
    assert float(row[6]) > 0  # sigma error column populated
    assert int(row[5]) == 152 + 60  # flux plus cell unknowns


def test_converge_rt_matches_saddle_oracle(capsys, monkeypatch):
    # rt rows come from the CR solve plus the closed-form reconstruction; at
    # full precision they match MINRES on the mixed system, and --rhs has no
    # effect on them
    monkeypatch.setattr(cli, "_fmt", lambda x: "" if x is None else f"{x:.17e}")
    argv = ["converge", "--element", "rt", "--pairs", "2:3,4:8"]
    code, out, _ = run(capsys, argv + ["--rhs", "exact-f"])
    assert code == 0
    assert run(capsys, argv + ["--rhs", "projected-f"])[1] == out
    case = af.cube_polynomial_case()
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2
    for row, (m, n) in zip(rows, [(2, 3), (4, 8)]):
        mesh = af.generate_aniso_cube(m, n)
        direct = af.solve_saddle(af.assemble_rt0_mixed(mesh, case.f), tol=1e-12)
        assert int(row[5]) == len(direct.coeffs) + len(direct.cell_coeffs)
        np.testing.assert_allclose(
            float(row[6]), af.broken_h1_error(mesh, direct, case.grad_u)
            / case.hess_diag_l2, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(
            float(row[8]), af.l2_error(mesh, direct, case.u) / case.hess_diag_l2,
            rtol=1e-8, atol=0.0)


def test_converge_rejects_odd_m(capsys, tmp_path):
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "3:3"])
    assert code == 2 and out == ""
    assert "even" in err
    missing = tmp_path / "missing"
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    conv = ["converge", "--element", "cr"]
    # every bad input is rejected before the header or any solve, and an
    # existing --out file keeps its bytes
    for argv in [conv + extra for extra in (
            ["--pairs", "2:2,3:4"], ["--pairs", "0:2"],
            ["--pairs", "2:0"], ["--pairs", "2:2", "--tol", "-1"],
            ["--pairs", "2:2", "--tol", "0"],
            ["--pairs", "2:2", "--tol", "nan"],
            ["--pairs", "2:2", "--tol", "inf"],
            ["--pairs", "2:2", "--gamma", "nan"],
            ["--pairs", "3:3", "--out", str(existing)],
            ["--pairs", "2:2", "--gamma", "inf", "--out", str(existing)],
            ["--pairs", "2:2", "--out", str(missing / "x.csv")],
            ["--pairs", "2:2", "--vtk", str(missing / "stem")],
            ["--pairs", ""], ["--pairs", "", "--out", str(existing)],
            ["--gamma", "1100", "--pairs", "2:2"])] + [
            ["interp-demo", "--gamma", "nan"],
            ["interp-demo", "--n-values", ""],
            ["interp-demo", "--n-values", "-3", "--out", str(existing)],
            ["interp-demo", "--gamma", "nan", "--out", str(existing)],
            ["verify", "--out", str(missing / "v.csv")],
            ["verify", "--bubble-stiffness", "nan"],
            ["verify", "--bubble-stiffness", "inf"],
            ["verify", "--bubble-stiffness", "0", "--out", str(existing)]]:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:"), argv
        assert existing.read_text() == "kept\n", argv


def test_converge_refuses_a_row_beyond_available_memory(capsys, monkeypatch,
                                                        tmp_path):
    # the estimate is the measured bytes per tet times the tets of the
    # largest row, here 4:4 with 320 tets; availability is patched, so the
    # check is tested without allocating anything
    need = cli.ROW_BYTES_PER_TET["cr"] * 320
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    argv = ["converge", "--element", "cr", "--pairs", "4:4,2:2"]
    monkeypatch.setattr(cli, "_available_memory", lambda: need - 1)
    code, out, err = run(capsys, argv + ["--out", str(existing)])
    assert code == 2 and out == ""
    assert err.startswith("error: row 4:4 needs about")
    assert existing.read_text() == "kept\n"
    for available in (need, None):  # enough, or unknown: no check
        monkeypatch.setattr(cli, "_available_memory", lambda: available)
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(out.splitlines()) == 3


def test_available_memory_reads_meminfo(monkeypatch, tmp_path):
    meminfo = tmp_path / "meminfo"
    monkeypatch.setattr(cli, "MEMINFO", str(meminfo))
    assert cli._available_memory() is None  # unreadable
    meminfo.write_text("MemTotal:        8000 kB\n")
    assert cli._available_memory() is None  # no MemAvailable line
    meminfo.write_text("MemTotal:        8000 kB\nMemAvailable:    1024 kB\n")
    assert cli._available_memory() == 1024 * 1024


@pytest.mark.parametrize("name,argv", [
    ("converge_p1_exact-f.csv", ["--element", "p1", "--pairs", "2:2,4:8"]),
    ("converge_p1_projected-f.csv", ["--element", "p1", "--rhs", "projected-f",
                                     "--pairs", "2:2,4:8"]),
    ("converge_cr_projected-f.csv", ["--element", "cr", "--rhs", "projected-f",
                                     "--pairs", "2:2,4:8"]),
    # 8:64 has 20480 tets, so every per-element pass runs over several blocks
    ("converge_p1_exact-f_gamma2.csv", ["--element", "p1", "--gamma", "2.0",
                                        "--pairs", "4:16,8:64"]),
    # the flattest tets, through the enriched CR solve and the RT0 rebuild
    ("converge_rt_gamma2.csv", ["--element", "rt", "--gamma", "2.0",
                                "--pairs", "4:16,8:64"]),
])
def test_converge_matches_reference_bytes(capsys, name, argv):
    code, out, _ = run(capsys, ["converge", *argv])
    assert code == 0
    assert out.encode() == (DATA / name).read_bytes()


def test_interp_demo_matches_reference_bytes(capsys):
    code, out, _ = run(capsys, ["interp-demo"])
    assert code == 0
    assert out.encode() == (DATA / "interp_demo.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--element", "rt"], ["--element", "p1"], ["--element", "cr"],
    ["--element", "p1", "--rhs", "projected-f"],
    ["--element", "cr", "--rhs", "projected-f"],
])
def test_converge_samples_f_once_per_row(capsys, monkeypatch, argv):
    case = af.cube_polynomial_case()
    calls = []

    def counted_f(x, y, z):
        calls.append(len(x))
        return case.f(x, y, z)

    monkeypatch.setattr(analysis, "cube_polynomial_case",
                        lambda: dataclasses.replace(case, f=counted_f))
    code, out, _ = run(capsys, ["converge", *argv, "--pairs", "2:2,2:3"])
    assert code == 0 and len(out.splitlines()) == 3
    assert len(calls) == 2, calls


def test_numerical_value_error_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("singular element")

    monkeypatch.setattr(analysis, "broken_h1_error", broken)
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "2:2"])
    assert code == 1
    assert out.startswith("M,N,")
    assert "singular element" in err


def test_interp_demo_non_finite_row_exits_1(capsys):
    # at gamma=400 the sliver's interpolation error overflows to inf: the row
    # is refused whole, after the header
    code, out, err = run(capsys, ["interp-demo", "--gamma", "400",
                                  "--n-values", "4"])
    assert code == 1
    assert out == "N,h,H_T,err,r\n"
    assert "inf" not in out
    assert err.startswith("numerical failure:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_interp_demo_underflowing_face_area_reported(capsys):
    # the gamma=400 sliver has a positive volume, but one face's cross
    # product underflows to a zero area: refused before any division
    code, out, err = run(capsys, ["interp-demo", "--gamma", "400",
                                  "--n-values", "4"])
    assert code == 1
    assert "degenerate face" in err


def test_converge_solver_failure_partial_table(capsys):
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "2:2", "--tol", "1e-30"])
    assert code == 1
    assert out.startswith("M,N,")  # header flushed before the failure
    assert "solver" in err


def test_converge_out_and_vtk(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    vtk_stem = tmp_path / "mesh"
    code, _, _ = run(capsys, ["converge", "--element", "p1",
                              "--pairs", "2:2", "--out", str(out_path),
                              "--vtk", str(vtk_stem)])
    assert code == 0
    assert out_path.read_text().startswith("M,N,")
    assert (tmp_path / "mesh.M2N2.vtk").exists()


def test_interp_demo_default(capsys):
    code, out, _ = run(capsys, ["interp-demo"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,h,H_T,err,r"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "128"
    assert abs(float(first[2]) - 3.8081e-01) / 3.8081e-01 < 5e-4
    assert abs(float(first[3]) - 2.8183e-03) / 2.8183e-03 < 5e-4


def test_interp_demo_custom_n(capsys):
    code, out, _ = run(capsys, ["interp-demo", "--n-values", "64,128"])
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    code, _, err = run(capsys, ["interp-demo", "--n-values", "-3"])
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,max_deviation,tolerance,status"
    assert len(lines) > 10
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_sign_flip_breaks_jump_identity(capsys):
    code, out, _ = run(capsys, ["verify", "--flip-rt-signs"])
    assert code == 1
    status = {line.split(",")[0]: line.split(",")[-1]
              for line in out.strip().splitlines()[1:]}
    assert status["flux_normal_jumps"] == "FAIL"
    assert status["flux_gradient_duality"] == "FAIL"
    assert status["marini_sigma_equivalence"] == "pass"


def test_verify_wrong_bubble_constant_breaks_equivalence(capsys):
    code, out, _ = run(capsys, ["verify", "--bubble-stiffness", "70"])
    assert code == 1
    status = {line.split(",")[0]: line.split(",")[-1]
              for line in out.strip().splitlines()[1:]}
    assert status["marini_sigma_equivalence"] == "FAIL"
    assert status["marini_u_equivalence"] == "FAIL"
    assert status["flux_normal_jumps"] == "pass"


def test_unknown_element_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--element", "p7", "--pairs", "2:2"])
    assert exc.value.code == 2


def test_traced_layers_exist():
    # the benchmark's --trace 1 wraps these by name; a rename must fail here
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, names in traced.LAYERS.items():
        mod = importlib.import_module(f"anisofem.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"anisofem.{module}.{name}"
