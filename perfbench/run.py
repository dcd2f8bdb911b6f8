"""kramers-lab benchmark: the CLI timed end to end, one child process per run.

Usage, from the root of a kramers-lab checkout::

    python3 perfbench/run.py --workload spectral-sweep --seed 0 \\
        --seconds 30 --trace 0

Each run is ``python3 -m kramers_lab.cli run CONFIG --seed SEED --out DIR``
with the checkout's ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread.
Runs are sequential: a closed loop with one client and one run in flight.
A timed run starts while it should end within ``--seconds`` (the previous
one's wall time is the estimate), and at least two always run.  The parent
times each child from spawn to exit and reads its peak RSS and CPU time
from ``os.wait4``.  Around every child it also times a fixed reference
kernel of its own, and scales the child's wall time to the host speed at
which that kernel takes ``REFERENCE_S``: on a shared host the speed drifts
by tens of percent within minutes.  ``wall_s`` is the median scaled time.

``--trace 0`` also runs the same config with ``--stages analyze`` several
times, alternating with the timed runs; their median scaled time is
``setup_s``.  It prints the end-to-end metrics.
``--trace 1`` runs the loop, then one more child through
``perfbench/traced_cli.py`` that records spans around each module's public
functions, and prints the per-layer metrics.

A run passes only if the CLI exits 0, every promised artifact holds its
expected number of data rows, the graded self-test reports no failures,
and every CSV file is byte-identical to the same file of the first run.
The last line of standard output is the JSON result; the line before it
is a report with every run, the CSV sha256 sums, the work counts and the
environment.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# The reference kernel runs in this process: pin its BLAS like the
# children's before numpy is first imported.
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

import traced_cli  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
WELLS = 2                # labelled minima of the tilted_double_well preset
SETUP_RUNS = 4
MIN_TIMED = 2            # timed runs per measurement, however long they take
DEADLINE_S = 170.0       # every child is killed this long after start
STAGES = ("analyze", "spectrum", "quasimode", "sde", "graded-selftest")
REFERENCE_S = 0.25       # the reference kernel's time on the nominal host

PRESET = {"landscape": {"preset": "tilted_double_well"}, "c": [0.0, 1.0]}

# "config" is what the benchmark runs; "smoke" overrides it for the
# benchmark's own tests with a size that still passes every CLI guard.
WORKLOADS = {
    "spectral-sweep": {
        "config": {"h": [0.1, 0.15, 0.2], "grid": {"n": 192},
                   "stages": ["analyze", "spectrum", "quasimode",
                              "graded-selftest"],
                   "graded": {"instances": 200}},
        "smoke": {"h": [0.2], "grid": {"n": 96}, "graded": {"instances": 10}},
    },
    "fine-grid": {
        "config": {"h": [0.05], "grid": {"n": 384},
                   "stages": ["analyze", "spectrum", "quasimode"]},
        # The Peclet guard needs n >= ~352 at h = 0.05 and c = 1, so the
        # smoke variant raises h instead of only shrinking the grid.
        "smoke": {"h": [0.2], "grid": {"n": 96}},
    },
    "hitting-times": {
        "config": {"h": [0.2], "grid": {"n": 96},
                   "stages": ["analyze", "spectrum", "sde"],
                   "sde": {"trials": 500, "radius": 0.3}},
        "smoke": {"sde": {"trials": 20, "radius": 0.3}},
    },
}

PER_LAYER_SPANS = tuple(f"cli.stage.{s}" for s in STAGES) + tuple(
    dict.fromkeys(name for _, _, name, _ in traced_cli.TARGETS))
PER_LAYER_COUNTS = (
    "expr.evaluate_many.calls", "expr.evaluate_many.points",
    "discretize.unknowns", "discretize.nnz",
    "discretize.small_spectrum.calls", "quasimode.tube_nodes",
    "sde.trial_steps", "graded.instances",
)


def workload_config(name: str, smoke: bool = False) -> dict:
    spec = WORKLOADS[name]
    return {**PRESET, **spec["config"], **(spec["smoke"] if smoke else {})}


def expected_rows(cfg: dict) -> dict[str, int]:
    """Data rows each CSV artifact of ``cfg`` must hold."""
    cells = len(cfg["h"]) * len(cfg["c"])
    rows = {"ek_table.csv": WELLS * len(cfg["c"])}
    if "spectrum" in cfg["stages"]:
        rows["spectrum_sweep.csv"] = WELLS * cells
    if "quasimode" in cfg["stages"]:
        rows["quasimode_report.csv"] = (WELLS - 1) * cells
    if "sde" in cfg["stages"]:
        rows["sde_report.csv"] = cells
    return rows


class Runner:
    """Spawns CLI runs one at a time and checks their outputs."""

    def __init__(self, root: Path, work: Path, cfg: dict, seed: int,
                 deadline: float):
        self.root, self.work, self.seed = root, work, seed
        self.deadline = deadline
        self.env = {**os.environ, **BLAS_THREADS,
                    "PYTHONPATH": str(root / "src")}
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=2))
        self.cfg = cfg
        self.sha256: dict[str, str] = {}    # CSV name -> hash of first run
        self.runs: list[dict] = []
        self.kernel_defect: float | None = None
        reference_s()                        # warm-up: lazy set-up, caches
        self.reference = reference_s()       # the latest reference time

    def run(self, kind: str, stages: list[str] | None = None,
            spans: Path | None = None) -> dict:
        out = self.work / f"run{len(self.runs)}"
        entry = ([str(HERE / "traced_cli.py"), str(spans)] if spans
                 else ["-m", "kramers_lab.cli"])
        argv = [sys.executable, *entry, "run", str(self.config_path),
                "--seed", str(self.seed), "--out", str(out)]
        if stages:
            argv += ["--stages", ",".join(stages)]
        with open(self.work / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        # The host's speed around the child: the reference kernel timed
        # just before it and just after it.
        before, self.reference = self.reference, reference_s()
        ref = (before + self.reference) / 2.0
        cfg = dict(self.cfg, stages=stages or self.cfg["stages"])
        problem = (f"exit code {proc.returncode}: {stderr.strip()[-500:]}"
                   if proc.returncode != 0 else self.check(out, cfg))
        record = {"kind": kind, "wall_s": wall, "reference_s": ref,
                  "normalized_s": wall * REFERENCE_S / ref,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "ok": problem is None, "problem": problem}
        self.runs.append(record)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def check(self, out: Path, cfg: dict) -> str | None:
        """First violated output check of one run, or None."""
        for name, count in expected_rows(cfg).items():
            path = out / name
            if not path.is_file():
                return f"missing artifact {name}"
            with open(path, newline="") as f:
                rows = sum(1 for _ in csv.reader(f)) - 1
            if rows != count:
                return f"{name} has {rows} data rows, expected {count}"
        if not (out / "well_map.json").is_file():
            return "missing artifact well_map.json"
        if "graded-selftest" in cfg["stages"]:
            path = out / "graded_selftest.json"
            if not path.is_file():
                return "missing artifact graded_selftest.json"
            report = json.loads(path.read_text())
            wanted = cfg["graded"]["instances"]
            if report["failures"] != 0 or report["instances"] != wanted:
                return (f"graded self-test: {report['failures']} failures "
                        f"in {report['instances']} instances")
        for path in sorted(out.glob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.sha256.setdefault(path.name, digest)
            if digest != first:
                return f"{path.name} differs from the first run of the set"
        if "spectrum" in cfg["stages"] and self.kernel_defect is None:
            self.kernel_defect = kernel_defect(out / "spectrum_sweep.csv")
        return None


_REF_LAPLACIAN = None


def reference_s() -> float:
    """Wall time of a fixed kernel mixing the program's kinds of work.

    Pure-Python float steps (the SDE tail), numpy ops on small arrays (the
    batched SDE) and sparse LU (the spectrum), about REFERENCE_S on an
    unloaded host.  It is benchmark code: no change to the program can
    move it, so a child's wall time divided by it is the child's cost with
    the host's speed at that moment taken out.
    """
    global _REF_LAPLACIAN
    if _REF_LAPLACIAN is None:
        n = 100
        ones = np.ones(n)
        t = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1])
        eye = sp.identity(n)
        _REF_LAPLACIAN = (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
    start = time.perf_counter()
    s = 0.0
    for i in range(800_000):
        s += i * 0.5
    for _ in range(4):
        splu(_REF_LAPLACIAN)
    y = np.linspace(-1.0, 1.0, 400).reshape(200, 2)
    for _ in range(3000):
        f = (y + 3.0) * 0.5
        y += 1e-9 * (f - f.astype(np.int64))
        (((y - 0.5) ** 2).sum(axis=1) < 0.0).any()
    return time.perf_counter() - start


def spread(runs: list[dict]) -> dict:
    """Wall times of ``runs``, raw and normalized to the nominal host."""
    walls = [r["wall_s"] for r in runs]
    return {"normalized_median": statistics.median(
                r["normalized_s"] for r in runs),
            "min": min(walls), "median": statistics.median(walls),
            "max": max(walls), "runs": len(walls),
            "reference_median": statistics.median(
                r["reference_s"] for r in runs)}


def kernel_defect(path: Path) -> float:
    """max over (h, c) of |re lambda_0| / re lambda_1."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    lam = {(r["h"], r["c"], int(r["k"])): float(r["re_lambda"]) for r in rows}
    return max(abs(lam[h, c, 0]) / lam[h, c, 1]
               for h, c, k in lam if k == 0)


def self_times(spans: list[list]) -> tuple[dict[str, float], float]:
    """Self time per span name, and the summed duration of root spans."""
    own: dict[str, float] = defaultdict(float)
    roots = 0.0
    for name, start, end, parent in spans:
        duration = end - start
        own[name] += duration
        if parent is None:
            roots += duration
        else:
            own[spans[parent][0]] -= duration
    return own, roots


def layer_metrics(trace: dict, traced_wall: float,
                  untraced: list[dict]) -> dict[str, tuple[float, str]]:
    own, roots = self_times(trace["spans"])
    counts = trace["counts"]
    metrics = {f"{name}_s": (own.get(name, 0.0), "s")
               for name in PER_LAYER_SPANS}
    metrics["cli.unattributed_s"] = (traced_wall - roots, "s")
    metrics["cli.cpu_s"] = (statistics.median(r["cpu_s"] for r in untraced),
                            "s")
    metrics.update((name, (counts.get(name, 0), "count"))
                   for name in PER_LAYER_COUNTS)
    steps = counts.get("sde.trial_steps", 0)
    metrics["sde.ns_per_trial_step"] = (
        own.get("sde.hitting_time_stats", 0.0) * 1e9 / steps if steps
        else 0.0, "ns")
    metrics["trace_overhead_s"] = (
        traced_wall - statistics.median(r["wall_s"] for r in untraced), "s")
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version", "unknown")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "child_env": BLAS_THREADS,
    }


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    runner = Runner(root, work, workload_config(workload), seed, deadline)
    # Set-up runs alternate with timed runs so that both sample the host
    # over the whole measurement, not over a few seconds of it.
    setups = 0 if trace else SETUP_RUNS
    loop_start = time.perf_counter()
    while True:
        if setups:
            runner.run("setup", stages=["analyze"])
            setups -= 1
        last = runner.run("timed")
        # Start another timed run only if it should end within the window,
        # so a run of a long workload does not overshoot by a whole child.
        elapsed = time.perf_counter() - loop_start
        if (sum(r["kind"] == "timed" for r in runner.runs) >= MIN_TIMED
                and elapsed + last["wall_s"] + last["reference_s"]
                > seconds):
            break
    for _ in range(setups):
        runner.run("setup", stages=["analyze"])
    timed = [r for r in runner.runs if r["kind"] == "timed"]
    spans_path = work / "spans.json"
    traced = runner.run("traced", spans=spans_path) if trace else None

    failed = sum(not r["ok"] for r in runner.runs)
    report = {"workload": workload, "seed": seed, "config": runner.cfg,
              "runs": runner.runs, "csv_sha256": runner.sha256,
              "failed_share": {"value": failed / len(runner.runs),
                               "unit": "fraction"},
              "environment": environment()}
    if trace:
        if not traced["ok"]:
            raise RuntimeError(f"traced run failed: {traced['problem']}")
        trace_data = json.loads(spans_path.read_text())
        report["counts"] = trace_data["counts"]
        metrics = layer_metrics(trace_data, traced["wall_s"], timed)
    else:
        if runner.kernel_defect is None:
            raise RuntimeError("no run produced spectrum_sweep.csv: "
                               + "; ".join(str(r["problem"])
                                           for r in runner.runs))
        setup = [r for r in runner.runs if r["kind"] == "setup"]
        report["wall_s"] = spread(timed)
        report["setup_s"] = spread(setup)
        metrics = {
            "wall_s": (report["wall_s"]["normalized_median"], "s"),
            "setup_s": (report["setup_s"]["normalized_median"], "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in timed), "MB"),
            "kernel_defect": (runner.kernel_defect, "1"),
        }
    return {"report": report,
            "result": {"correct": failed == 0,
                       "attempted": len(runner.runs), "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kramers_lab" / "cli.py").is_file():
        print(f"error: {root} holds no src/kramers_lab; run the benchmark "
              "from the root of a kramers-lab checkout", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = measure(root, args.workload, args.seed, args.seconds,
                          bool(args.trace), work)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another benchmark process still uses it
    print(json.dumps({"report": outcome["report"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
