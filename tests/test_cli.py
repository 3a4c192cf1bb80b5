import importlib
import importlib.util
from pathlib import Path

import pytest

from anisofem import analysis
from anisofem.cli import (ConfigError, DEFAULT_PAIRS, main, select_pairs)

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


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


def test_converge_rejects_odd_m(capsys, tmp_path):
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "3:3"])
    assert code == 2 and out == ""
    assert "even" in err
    missing = tmp_path / "missing"
    # every bad input is rejected before the header or any solve
    for extra in (["--pairs", "2:2,3:4"], ["--pairs", "0:2"],
                  ["--pairs", "2:0"], ["--pairs", "2:2", "--tol", "-1"],
                  ["--pairs", "2:2", "--tol", "0"],
                  ["--pairs", "2:2", "--tol", "nan"],
                  ["--pairs", "2:2", "--tol", "inf"],
                  ["--pairs", "2:2", "--out", str(missing / "x.csv")],
                  ["--pairs", "2:2", "--vtk", str(missing / "stem")]):
        code, out, err = run(capsys, ["converge", "--element", "cr"] + extra)
        assert code == 2, extra
        assert out == "", extra
        assert err.startswith("error:"), extra
    code, out, err = run(capsys, ["verify", "--out", str(missing / "v.csv")])
    assert code == 2 and out == "" and err.startswith("error:")


def test_numerical_value_error_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("singular element")

    monkeypatch.setattr(analysis, "broken_h1_error", broken)
    code, out, err = run(capsys, ["converge", "--element", "cr",
                                  "--pairs", "2:2"])
    assert code == 1
    assert out.startswith("M,N,")
    assert "singular element" in err


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
