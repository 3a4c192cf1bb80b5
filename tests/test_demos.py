import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# 04_poisson_convergence solves up to 672k DOFs; its rows come from
# ``converge_row``, which the acceptance fixtures run on the same meshes
FAST_DEMOS = ["01_mesh_family.py", "02_quadrature_rules.py",
              "03_interpolation_operators.py", "05_marini_equivalence.py"]


@pytest.mark.parametrize("script", FAST_DEMOS)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 3
