"""Checks of the benchmark itself, at smoke sizes that pass every CLI guard."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_work_counts_repeat_exactly(workload, tmp_path):
    cfg = bench.workload_config(workload, smoke=True)
    runner = bench.Runner(ROOT, tmp_path, cfg, seed=3,
                          deadline=time.monotonic() + bench.DEADLINE_S)
    counts = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        record = runner.run("traced", spans=spans)
        # The runner also checks that both runs wrote identical CSV files.
        assert record["ok"], record["problem"]
        counts.append(json.loads(spans.read_text())["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["discretize.unknowns"] == cfg["grid"]["n"] ** 2
    assert counts[0]["expr.evaluate_many.points"] > 0
    if "sde" in cfg["stages"]:
        assert counts[0]["sde.trial_steps"] > 0
    if "quasimode" in cfg["stages"]:
        assert counts[0]["quasimode.tube_nodes"] > 0
    if "graded-selftest" in cfg["stages"]:
        assert counts[0]["graded.instances"] == cfg["graded"]["instances"]


def test_self_times_partition_the_root_spans():
    spans = [["cli.stage.spectrum", 0.0, 10.0, None],
             ["discretize.assemble", 1.0, 2.0, 0],
             ["expr.evaluate_many", 1.5, 1.75, 1],
             ["discretize.small_spectrum", 3.0, 9.0, 0]]
    own, roots = bench.self_times(spans)
    assert roots == 10.0
    assert own == {"cli.stage.spectrum": 3.0, "discretize.assemble": 0.75,
                   "expr.evaluate_many": 0.25,
                   "discretize.small_spectrum": 6.0}
    assert sum(own.values()) == roots


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fine-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/kramers_lab" in proc.stderr
