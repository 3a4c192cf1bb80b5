#!/usr/bin/env python3
"""Benchmark of the anisofem CLI, end to end and layer by layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload cr_gamma2 --seed 1 --seconds 36 --trace 0

Each workload is one CLI command (see WORKLOADS).  The run and its children
are pinned to one CPU.  A run first launches the command SETUP_PROBES times
and stops each probe when its CSV header arrives, which warms the file cache
and samples set-up time.  It then launches the command as a real child
process again and again, in a closed loop, until the next launch would end
past ``--seconds``, and times the fixed reference work of ``hostspeed.py``
before the first child and after each one.  Every child's output is checked
against the committed seed outputs in ``oracle/``; its wall time, set-up
time and peak RSS (from ``os.wait4``, so each child gets its own maximum) are
recorded.

``--trace 0`` prints the end-to-end metrics, medians over the children.  The
times are scaled to a fixed host speed: multiplied by REF_NOMINAL_S over the
run's median reference time.
``--trace 1`` alternates traced children (``traced_cli.py``) with untraced
ones and prints the per-layer metrics: each layer's self time, the counts
recorded at the layer boundaries, and the tracing overhead as the traced
minus the untraced median wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run,
environment included, goes to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from traced_cli import LAYERS, ROOT as ROOT_SPAN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
ORACLE = BENCH / "oracle"

# One BLAS thread: on a shared 2-core host the default threading makes the
# MINRES workload swing by a quarter between runs; one thread halves that.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))  # before numpy loads

from hostspeed import reference_s  # noqa: E402

# reference_s's typical time on the reference host: the end-to-end times are
# reported at the host speed at which the reference work takes this long
REF_NOMINAL_S = 0.30
SETUP_PROBES = 5
RUN_LIMIT_S = 150          # a child still running then is killed and failed
FLOAT_RTOL = 1e-6          # converge CSV: solver changes may move last digits
RATE_ATOL = 1e-6
COUNT_KEYS = ("iterations", "nnz", "dofs", "n_faces", "n_tets")

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mesh.generate_s": "s", "mesh.faces_s": "s",
    "mesh.n_tets": "count", "mesh.n_faces": "count",
    "geometry.metrics_s": "s",
    "system.assemble_s": "s", "system.nnz": "count", "system.matrix_mb": "MB",
    "system.solve_s": "s", "system.iterations": "count",
    "system.s_per_iter": "s", "system.residual": "ratio", "system.dofs": "count",
    "analysis.errors_s": "s",
    "quadrature.checks_s": "s", "elements.commuting_s": "s",
    "equivalence.bubble_s": "s", "equivalence.enriched_solve_s": "s",
    "equivalence.reconstruct_s": "s",
    "cli.self_s": "s", "cli.setup_s": "s", "cli.exit_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}
SPAN_METRIC = {f"{module}.{name}": metric
               for module, names in LAYERS.items()
               for name, metric in names.items()}
SPAN_METRIC[ROOT_SPAN] = "cli.self_s"
SELF_TIMES = tuple(dict.fromkeys(SPAN_METRIC.values()))


# ---------------------------------------------------------------- workloads

def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(got, want, rtol=FLOAT_RTOL, atol=0.0):
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(g) and abs(g - w) <= atol + rtol * abs(w)


@dataclass
class Converge:
    """``anisofem converge`` over a fixed set of mesh pairs.

    The seed shuffles the order of all but the last (largest) pair: the work
    is the same, and the rate columns, which depend on the order, are checked
    against rates recomputed from the oracle's errors in that order.  The
    largest row stays last, as in the published tables, because peak RSS
    depends on the order.
    """
    element: str
    gamma: float
    pairs: list

    def oracle(self):
        header, rows = _read_csv(ORACLE / f"converge_{self.element}_{self.gamma}.csv")
        return header, {(int(r["M"]), int(r["N"])): r for r in rows}

    def argv(self, seed):
        pairs = list(self.pairs[:-1])
        random.Random(seed).shuffle(pairs)
        pairs.append(self.pairs[-1])
        return ["converge", "--element", self.element, "--gamma", str(self.gamma),
                "--pairs", ",".join(f"{m}:{n}" for m, n in pairs)]

    def check(self, argv, lines):
        """(attempted rows, failed rows, DOFs solved) for one child's output."""
        header, oracle = self.oracle()
        pairs = [tuple(map(int, p.split(":"))) for p in argv[argv.index("--pairs") + 1].split(",")]
        if not lines or lines[0] != ",".join(header):
            return len(pairs), len(pairs), 0
        got = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            try:
                got[(int(row["M"]), int(row["N"]))] = row
            except (KeyError, ValueError):
                pass
        failed = max(0, len(lines) - 1 - len(pairs))       # unexpected lines
        dofs = 0
        prev = None
        for pair in pairs:
            row, want = got.get(pair), oracle.get(pair)
            ok = row is not None and want is not None and all(
                _close(row[k], want[k]) for k in header if not k.startswith("r_"))
            if ok:
                for k, err in (("r_h1", "err_h1"), ("r_l2", "err_l2")):
                    if prev is None:
                        ok = ok and row[k] == ""
                    else:
                        rate = math.log2(float(prev[err]) / float(want[err]))
                        ok = ok and _close(row[k], rate, rtol=0.0, atol=RATE_ATOL)
            prev = want
            if ok:
                dofs += int(row["dofs"])
            else:
                failed += 1
        return len(pairs), min(failed, len(pairs)), dofs


@dataclass
class Verify:
    """``anisofem verify``: the identity suite on fixed random tets and small
    meshes.  It takes no inputs, so the seed does not change it."""
    extra: list = field(default_factory=list)

    def argv(self, seed):
        return ["verify"] + self.extra

    def check(self, argv, lines):
        header, oracle = _read_csv(ORACLE / "verify.csv")
        got = {}
        if lines and lines[0] == ",".join(header):
            for line in lines[1:]:
                row = dict(zip(header, line.split(",")))
                got[row["identity"]] = row
        failed = 0
        for want in oracle:
            row = got.get(want["identity"])
            tol = float(want["tolerance"])
            ok = (row is not None and row["status"] == "pass"
                  and row["tolerance"] == want["tolerance"]
                  and _close(row["max_deviation"], want["max_deviation"],
                             rtol=0.0, atol=tol))
            failed += not ok
        # DOFs of the enriched CR and mixed solves, recorded at the seed
        dofs = _seed_counts().get("verify", {}).get("dofs", 0)
        return len(oracle), failed, dofs if failed == 0 else 0


WORKLOADS = {
    "cr_gamma2": Converge("cr", 2.0, [(4, 16), (8, 64), (10, 100)]),
    "rt_gamma15": Converge("rt", 1.5, [(4, 8), (8, 22), (10, 32)]),
    "verify": Verify(),
}


def _seed_counts():
    path = ORACLE / "counts.json"
    return json.loads(path.read_text()) if path.is_file() else {}


# ------------------------------------------------------------- child runs

@dataclass
class Child:
    traced: bool
    wall_s: float
    setup_s: float | None        # launch to first stdout line
    rss_mb: float
    returncode: int
    lines: list
    stderr: str
    launch: float                # time.monotonic() just before the launch
    end: float
    attempted: int = 0
    failed: int = 0
    dofs: int = 0
    trace: dict | None = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cmd, probe=False, timeout=RUN_LIMIT_S):
    """Run ``cmd`` to completion (or, as a probe, until its first output
    line) and measure it; peak RSS comes from this child's own rusage.
    A child still running after ``timeout`` seconds is killed."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.stderr", "w+b") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        first, lines = None, []
        try:
            for raw in proc.stdout:
                if first is None:
                    first = time.monotonic()
                lines.append(raw.decode(errors="replace").rstrip("\n"))
                if probe:
                    proc.send_signal(signal.SIGTERM)
                    break
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return dict(wall_s=end - launch, setup_s=None if first is None else first - launch,
                rss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                lines=lines, stderr=stderr, launch=launch, end=end)


def cli_command(argv, spans_path=None, run_id=None):
    if spans_path is None:
        return [sys.executable, "-u", "-m", "anisofem.cli"] + argv
    return ([sys.executable, "-u", str(BENCH / "traced_cli.py"), str(spans_path),
             run_id] + argv)


def run_unit(workload, argv, traced, run_id, timeout):
    spans_path = OUT / "spans" / f"{run_id}.json" if traced else None
    if traced:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.unlink(missing_ok=True)
    child = Child(traced=traced,
                  **run_child(cli_command(argv, spans_path, run_id), timeout=timeout))
    child.attempted, child.failed, child.dofs = workload.check(argv, child.lines)
    if traced and spans_path.is_file():
        child.trace = layer_times(json.loads(spans_path.read_text()), child)
        child.failed = min(child.attempted,
                           child.failed + child.trace["residual_misses"])
    elif traced:
        child.failed = child.attempted
    if child.returncode != 0:
        child.failed = max(child.failed, 1)
    return child


def layer_times(record, child):
    """Per-layer self times and counts of one traced child.

    A span's self time is its duration minus that of its direct children.
    The root span is ``main``; set-up (launch to ``main``) and exit
    (``main`` returning to the process being reaped, spans written out)
    complete the account of the child's wall time.
    """
    spans = record["spans"]
    root = next(span for span in spans if span[2] == ROOT_SPAN)
    child_time = [0.0] * len(spans)
    for sid, parent, name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {metric: 0.0 for metric in SELF_TIMES}
    for sid, parent, name, start, end in spans:
        out[SPAN_METRIC[name]] += (end - start) - child_time[sid]
    counts = record["counts"]
    out.update({
        "mesh.n_tets": counts["n_tets"], "mesh.n_faces": counts["n_faces"],
        "system.nnz": counts["nnz"], "system.matrix_mb": counts["matrix_bytes"] / 2**20,
        "system.iterations": counts["iterations"], "system.dofs": counts["dofs"],
        "system.residual": record["max_residual"],
        "system.s_per_iter": out["system.solve_s"] / max(counts["iterations"], 1),
        "cli.setup_s": root[3] - child.launch,
        "cli.exit_s": child.end - root[4],
        "trace.wall_s": child.wall_s, "trace.spans": len(spans),
    })
    out["counts"] = {k: counts[k] for k in COUNT_KEYS}
    out["residual_misses"] = record["residual_misses"]
    out["accounted_s"] = sum(out[k] for k in SELF_TIMES + ("cli.setup_s", "cli.exit_s"))
    return out


# ------------------------------------------------------------- the run

def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment():
    """What a result depends on besides the code: compare only like with like."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"              # an exported source tree has no .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: str(BLAS_THREADS) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "loadavg_before": loadavg(), "loadavg_after": None,
    }


def median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}


def run_workload(workload, seed, seconds, trace, label="run"):
    """Measure ``workload`` for ``seconds``; returns the full run record."""
    env = environment()
    argv = workload.argv(seed)
    limit = time.monotonic() + RUN_LIMIT_S

    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_child(cli_command(argv), probe=True, timeout=limit - time.monotonic())
        if probe["setup_s"] is not None:
            setups.append(probe["setup_s"])

    children = []
    start = time.monotonic()
    deadline = start + seconds
    refs = [reference_s()]
    min_children = 2 if trace else 1
    while True:
        traced = bool(trace) and len(children) % 2 == 0
        children.append(run_unit(workload, argv, traced, f"{label}-{len(children)}",
                                 timeout=limit - time.monotonic()))
        refs.append(reference_s())
        typical = median(c.wall_s for c in children) + median(refs)
        now = time.monotonic()
        if (len(children) >= min_children and now + typical > deadline) or now > limit:
            break
    env["loadavg_after"] = loadavg()

    attempted = sum(c.attempted for c in children)
    failed = sum(c.failed for c in children)
    plain = [c for c in children if not c.traced]
    walls = [c.wall_s for c in plain]
    setups += [c.setup_s for c in plain if c.setup_s is not None]
    record = {"workload": label, "seed": seed, "seconds": seconds, "trace": trace,
              "argv": argv, "env": env, "attempted": attempted, "failed": failed,
              "failed_frac": failed / max(attempted, 1),
              "children": [{"traced": c.traced, "wall_s": c.wall_s,
                            "setup_s": c.setup_s, "rss_mb": c.rss_mb,
                            "returncode": c.returncode, "attempted": c.attempted,
                            "failed": c.failed, "dofs": c.dofs,
                            "stderr": c.stderr[-2000:],
                            "trace": c.trace} for c in children],
              "ref_s": refs, "flags": []}
    for c in children:
        if c.failed:
            record["flags"].append(
                f"child exit {c.returncode}, {c.failed}/{c.attempted} failed: "
                + (c.stderr.strip().splitlines() or [""])[-1])

    if not trace:
        speed = REF_NOMINAL_S / median(refs)
        record["metrics"] = {
            "wall_norm_s": median(walls) * speed,
            "setup_s": median(setups) * speed,
            "peak_rss_mb": median(c.rss_mb for c in plain),
        }
        record["raw"] = {"wall_s": median(walls), "setup_raw_s": median(setups),
                         "ref_s": median(refs)}
        # a workload's DOFs are fixed, so this is wall_s in other units:
        # printed for users, not declared as a second metric of one measurement
        record["dofs_per_s"] = median(c.dofs / c.wall_s for c in plain)
        record["wall_samples"] = len(walls)
        record["wall_tail"] = tail_percentile(walls)
        record["setup_samples"] = len(setups)
        return record

    traces = [c.trace for c in children if c.trace is not None]
    metrics = {name: median(t[name] for t in traces if name in t) for name in PER_LAYER}
    metrics["trace.overhead_s"] = (median(c.wall_s for c in children if c.traced)
                                   - median(walls))
    record["metrics"] = metrics
    record["accounting"] = [{"wall_s": t["trace.wall_s"], "accounted_s": t["accounted_s"]}
                            for t in traces]
    counts = [t["counts"] for t in traces]
    if any(c != counts[0] for c in counts):
        record["flags"].append(f"counts differ between children: {counts}")
    seed_counts = _seed_counts().get(label)
    if seed_counts and counts and counts[0] != seed_counts:
        record["flags"].append(
            f"counts differ from the seed: {counts[0]} vs {seed_counts}")
    return record


def report(record, metric_units):
    """Human-readable summary lines, then the final JSON line."""
    print(json.dumps({"env": record["env"], "argv": record["argv"]}))
    for c in record["children"]:
        kind = "traced" if c["traced"] else "plain"
        setup = "-" if c["setup_s"] is None else f"{c['setup_s']:.3f}"
        print(f"  {kind:6s} wall {c['wall_s']:.3f} s  setup {setup} s  "
              f"rss {c['rss_mb']:.1f} MB  exit {c['returncode']}  "
              f"failed {c['failed']}/{c['attempted']}")
    for flag in record["flags"]:
        print(f"FLAG: {flag}")
    for name, unit in metric_units.items():
        print(f"{name:30s} {record['metrics'][name]:.6g} {unit}")
    print(f"{'failed_frac':30s} {record['failed_frac']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    if "wall_samples" in record:
        for name, value in record["raw"].items():
            print(f"{name:30s} {value:.6g} s (as measured)")
        print(f"{'dofs_per_s':30s} {record['dofs_per_s']:.6g} 1/s")
        tail = record["wall_tail"]
        print(f"{'wall_s samples':30s} {record['wall_samples']}"
              + (f", p{tail['percentile']} {tail['value']:.4f} s" if tail
                 else ", fewer than 11: no percentile with ten samples beyond it"))
    for acc in record.get("accounting", []):
        print(f"traced wall {acc['wall_s']:.3f} s, layers + cli account for "
              f"{acc['accounted_s']:.3f} s")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in metric_units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "anisofem" / "cli.py").is_file():
        print(f"error: no anisofem sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    # the reference work and the children must run on the same processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          args.trace, label=args.workload)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    report(record, PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
