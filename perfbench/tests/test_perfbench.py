"""Self-tests of the benchmark harness on tiny meshes; each takes seconds.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

TINY = run.Converge("cr", 2.0, [(2, 2), (4, 8)])


@pytest.fixture(autouse=True)
def one_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert set(run.SPAN_METRIC.values()) <= set(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace, capsys):
    record = run.run_workload(TINY, seed=1, seconds=1, trace=trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    run.report(record, units)
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())
    printed = dict(units, failed_frac="ratio", **({} if trace else {
        "dofs_per_s": "1/s", "wall_s": "s", "setup_raw_s": "s", "ref_s": "s"}))
    for name, unit in printed.items():
        assert any(line.startswith(name + " ") and unit in line.split() for line in out)


def test_traced_run_accounts_for_wall_time_and_checks_residuals():
    record = run.run_workload(TINY, seed=2, seconds=1, trace=1)
    assert record["accounting"]
    for acc in record["accounting"]:
        assert acc["accounted_s"] == pytest.approx(acc["wall_s"], rel=1e-6)
    metrics = record["metrics"]
    assert 0.0 < metrics["system.residual"] <= 1e-10
    assert metrics["mesh.n_faces"] == 104 + 1440
    assert metrics["system.iterations"] > 0 and metrics["mesh.faces_s"] > 0
    assert math.isfinite(metrics["trace.overhead_s"])


def test_times_are_scaled_to_the_reference_host_speed(monkeypatch):
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REF_NOMINAL_S)
    record = run.run_workload(TINY, seed=1, seconds=1, trace=0)
    assert record["ref_s"] == [2 * run.REF_NOMINAL_S] * (len(record["children"]) + 1)
    assert record["metrics"]["wall_norm_s"] == pytest.approx(record["raw"]["wall_s"] / 2)
    assert record["metrics"]["setup_s"] == pytest.approx(record["raw"]["setup_raw_s"] / 2)


def test_counts_that_differ_from_the_seed_are_flagged():
    # the tiny study is labelled as a real workload, whose seed counts differ
    record = run.run_workload(TINY, seed=1, seconds=1, trace=1, label="cr_gamma2")
    assert record["failed"] == 0
    assert any("differ from the seed" in flag for flag in record["flags"])
    clean = run.run_workload(TINY, seed=1, seconds=1, trace=1)
    assert clean["flags"] == []


@pytest.mark.parametrize("hook", [["--flip-rt-signs"], ["--bubble-stiffness", "70"]])
def test_verify_fault_hooks_raise_failed_frac(hook):
    record = run.run_workload(run.Verify(hook), seed=1, seconds=1, trace=0)
    assert record["failed_frac"] > 0
    assert all(c["returncode"] == 1 for c in record["children"])


def test_refused_row_counts_as_failed_without_crashing():
    record = run.run_workload(run.Converge("cr", 2.0, [(2, 2), (3, 4)]),
                              seed=1, seconds=1, trace=0)
    for child in record["children"]:
        assert child["returncode"] == 2
        assert (child["attempted"], child["failed"]) == (2, 1)
    assert record["failed_frac"] == 0.5


def test_oracle_compares_numbers_not_bytes():
    header, rows = run._read_csv(run.ORACLE / "converge_cr_2.0.csv")
    argv = TINY.argv(0)
    pairs = argv[argv.index("--pairs") + 1].split(",")
    by_pair = {f"{r['M']}:{r['N']}": r for r in rows}
    first, second = (dict(by_pair[p]) for p in pairs)
    first["r_h1"] = first["r_l2"] = ""
    second["r_h1"] = repr(math.log2(float(first["err_h1"]) / float(second["err_h1"])))
    second["r_l2"] = repr(math.log2(float(first["err_l2"]) / float(second["err_l2"])))

    def lines(row2):
        return [",".join(header)] + [",".join(r[k] for k in header) for r in (first, row2)]

    assert TINY.check(argv, lines(second))[:2] == (2, 0)
    last_digit = dict(second, err_l2=f"{float(second['err_l2']) * (1 + 1e-9):.9e}")
    assert TINY.check(argv, lines(last_digit))[:2] == (2, 0)
    wrong = dict(second, err_l2=f"{float(second['err_l2']) * 1.001:.6e}")
    assert TINY.check(argv, lines(wrong))[:2] == (2, 1)
    assert TINY.check(argv, lines(second)[:2])[:2] == (2, 1)


def test_peak_rss_is_measured_per_child():
    big = run.run_child([sys.executable, "-c", "b = b'x' * (200 << 20)"])
    small = run.run_child([sys.executable, "-c", "pass"])
    assert big["rss_mb"] > 190
    assert small["rss_mb"] < 100


def test_child_past_its_time_limit_is_killed():
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                          timeout=1.0)
    assert child["returncode"] < 0
    assert child["wall_s"] < 10


def test_refuses_to_run_without_the_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "verify", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
