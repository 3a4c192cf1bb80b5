import dataclasses
import gc
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anisofem as af
from anisofem import analysis, cli
from anisofem.cli import (CONVERGE_HEADER, ConfigError, DEFAULT_PAIRS, main,
                          select_pairs)

from conftest import singular_saddle_system

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


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_fmt_refuses_a_non_finite_value(value):
    with pytest.raises(ValueError, match="non-finite"):
        cli._fmt(value)


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
        err_h1, err_l2 = af.error_norms(mesh, direct, case.solution)
        np.testing.assert_allclose(float(row[6]), err_h1 / case.hess_diag_l2,
                                   rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(float(row[8]), err_l2 / case.hess_diag_l2,
                                   rtol=1e-8, atol=0.0)


def test_converge_rejects_odd_m(capsys, tmp_path):
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "3:3"])
    assert code == 2 and out == ""
    assert "even" in err
    # an M whose 1/M overflows is blamed on its pair, not on --gamma
    huge = "1" + "0" * 400
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", f"{huge}:2"])
    assert code == 2 and out == ""
    assert f"bad mesh pair '{huge}:2'" in err and "gamma" not in err
    # a demo --gamma whose sliver height (1/N)^gamma overflows is named
    code, out, err = run(capsys, ["interp-demo", "--gamma", "-1000",
                                  "--n-values", "4"])
    assert code == 2 and out == ""
    assert "--gamma" in err
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
            ["--pairs", ""], ["--pairs", "", "--out", str(existing)],
            ["--gamma", "1100", "--pairs", "2:2"],
            ["--pairs", f"{huge}:2"], ["--pairs", f"2:{huge}"])] + [
            ["interp-demo", "--n-values", huge],
            ["interp-demo", "--gamma", "nan"],
            ["interp-demo", "--n-values", ""],
            ["interp-demo", "--n-values", "-3", "--out", str(existing)],
            ["interp-demo", "--gamma", "nan", "--out", str(existing)],
            ["interp-demo", "--gamma", "-1000", "--n-values", "4,8",
             "--out", str(existing)],
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

    monkeypatch.setattr(analysis, "error_norms", broken)
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "2:2"])
    assert code == 1
    assert out.startswith("M,N,")
    assert "singular element" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_singular_saddle_system_exits_1(capsys, monkeypatch):
    # the direct mixed oracle's failure is a numerical failure: one line,
    # exit 1, no traceback
    monkeypatch.setattr(af.system, "assemble_rt0_mixed",
                        lambda mesh, f: singular_saddle_system(mesh, "exact"))
    code, out, err = run(capsys, ["verify"])
    assert code == 1
    assert out.startswith("identity,")
    assert err.startswith("numerical failure: sparse LU failed")
    assert len(err.splitlines()) == 1


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
def test_interp_demo_overflow_is_a_numerical_failure(capsys):
    # at gamma=-400 the sliver's height is 4^400: the edge lengths and phi
    # overflow, reported once as a failure, with no warning and no row
    code, out, err = run(capsys, ["interp-demo", "--gamma", "-400",
                                  "--n-values", "4"])
    assert code == 1
    assert out == "N,h,H_T,err,r\n"
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_converge_tol_under_rounding_floor_exits_1(capsys):
    # 1e-14 lies under the 4:16 row's rounding floor of the true residual,
    # as the default tol does under the 32:1024 row's: the 2:2 row is
    # written, then the one CG run fails its residual check, in one line
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "2:2,4:16", "--tol", "1e-14"])
    assert code == 1
    assert out.splitlines()[0] == CONVERGE_HEADER
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["2", "2"]]
    assert err.startswith("numerical failure: solver did not converge")
    assert len(err.splitlines()) == 1


def test_converge_out_and_vtk(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    argv = ["converge", "--element", "p1", "--pairs", "2:2", "--out", str(out_path)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert out_path.read_text().startswith("M,N,")
    # the mesh export is gone: --vtk is refused before the --out file opens
    out_path.unlink()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--vtk", str(tmp_path / "mesh")])
    assert exc.value.code == 2
    assert not out_path.exists()


def test_vtk_and_conformity_report_are_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--element", "cr", "--pairs", "2:2", "--vtk", "stem"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    for name in ("write_vtk", "validate_conformity", "ConformityReport"):
        assert not hasattr(af, name), name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_output_exits_1(capsys):
    code, out, err = run(capsys, ["converge", "--element", "cr", "--pairs", "2:2",
                                  "--out", "/dev/full"])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write output:")
    assert len(err.splitlines()) == 1


def test_closed_stdout_pipe_exits_1_quietly():
    # the reader takes the header and closes the pipe while the rows are
    # solved: the next write fails, with no traceback and no retry at exit
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "anisofem.cli", "converge", "--element", "cr",
         "--pairs", "2:2,4:4,6:6,8:8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().decode() == CONVERGE_HEADER + "\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


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


def test_process_entry_freezes_the_import_heap():
    # run as __main__, main() sees no argv and freezes what the imports left;
    # a CR row solves without loading scipy.sparse.linalg, which only the
    # mixed oracle of verify imports
    script = ("import atexit, gc, runpy, sys\n"
              "atexit.register(lambda: print(gc.get_freeze_count(),\n"
              "                              'scipy.sparse.linalg' in sys.modules))\n"
              "sys.argv = ['anisofem', 'converge', '--element', 'cr',\n"
              "            '--pairs', '2:2']\n"
              "runpy.run_module('anisofem.cli', run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    frozen, linalg = proc.stdout.splitlines()[-1].split()
    assert int(frozen) > 0
    assert linalg == "False"


def test_main_with_argv_leaves_gc_alone(capsys):
    # pytest, embedders and the traced benchmark pass argv: no freeze there
    before = gc.get_freeze_count()
    code, _, _ = run(capsys, ["converge", "--element", "cr", "--pairs", "2:2"])
    assert code == 0
    assert gc.get_freeze_count() == before
