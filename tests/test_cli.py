"""CLI pipeline tests: config validation, stage artifacts, determinism."""

import csv
import functools
import gc
import json
import multiprocessing
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kramers_lab import (analysis, cli, discretize, forked, graded, quasimode,
                         sde)
from kramers_lab.analysis import Analysis
from kramers_lab.cli import ConfigError, main, parse_config
from kramers_lab.labelling import WellMap
from kramers_lab.landscape import make_preset, validate_stationarity


def _write_cfg(path: Path, **kwargs) -> Path:
    cfg = path / "config.json"
    cfg.write_text(json.dumps(kwargs))
    return cfg


def _read_csv(path: Path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def tilted_run(tmp_path_factory):
    """One full analyze+spectrum+quasimode run shared by the read-only tests."""
    base = tmp_path_factory.mktemp("tilted_run")
    out = base / "out"
    cfg = _write_cfg(base,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.2],
                     stages=["analyze", "spectrum", "quasimode"],
                     grid={"n": 96},
                     quasimode={"export_fields": True},
                     out=str(out))
    assert main(["run", str(cfg)]) == 0
    return out


# ---------------------------------------------------------------------------
# Config validation

def test_missing_potential_is_a_schema_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, landscape={"dimension": 2, "b": ["x", "0"]},
                     stages=["analyze"])
    assert main(["run", str(cfg)]) == 2
    assert "landscape.V" in capsys.readouterr().err


def test_malformed_json_reports_the_line(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{\n  "stages": ["analyze",]\n}')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(cfg)


def test_schema_rejections(tmp_path):
    with pytest.raises(ConfigError, match="at least one stage"):
        parse_config(_write_cfg(tmp_path, stages=[]))
    with pytest.raises(ConfigError, match="unknown stage"):
        parse_config(_write_cfg(tmp_path, stages=["spectral"]))
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        parse_config(_write_cfg(tmp_path, stages=["analyze"], h=[1.5],
                                landscape={"preset": "triple_well"}))
    with pytest.raises(ConfigError, match="preset landscapes only"):
        parse_config(_write_cfg(
            tmp_path, stages=["analyze"], c=[0.0, 1.0],
            landscape={"dimension": 2, "V": "x^2 + y^2"}))
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config(_write_cfg(tmp_path, stages=["analyze"],
                                landscape={"preset": "quadruple_well"}))
    with pytest.raises(ConfigError, match="landscape.V: "):
        parse_config(_write_cfg(tmp_path, stages=["analyze"],
                                landscape={"dimension": 2, "V": "x +* y"}))
    with pytest.raises(ConfigError, match=r"landscape\.a: the tilt applies"):
        parse_config(_write_cfg(tmp_path, stages=["analyze"],
                                landscape={"dimension": 2, "V": "x^2 + y^2",
                                           "a": 0.5}))
    base = {"stages": ["sde"],
            "landscape": {"preset": "tilted_double_well"}}
    for override, where in [
        ({"grid": {"n": "abc"}}, r"grid\.n: expected an integer"),
        ({"grid": {"n": 96.5}}, r"grid\.n: expected an integer"),
        ({"h": 0.2}, "h: must be a list"),
        ({"h": [0.2, "x"]}, r"h\[1\]: expected a number"),
        ({"c": [None]}, r"c\[0\]: expected a number"),
        ({"seed": -1}, "seed: must be non-negative"),
        ({"seed": True}, "seed: expected an integer"),
        ({"sde": {"trials": 0}}, "sde.trials: needs at least two"),
        ({"sde": {"trials": 1}}, "sde.trials: needs at least two"),
        ({"sde": {"radius": "wide"}}, "sde.radius: expected a number"),
        ({"sde": {"radius": 0}}, "sde.radius: must be positive"),
        ({"sde": 5}, "sde: must be an object"),
        ({"graded": {"instances": 0}}, "graded.instances: needs at least"),
        ({"landscape": {"preset": "tilted_double_well", "a": "abc"}},
         "landscape.a: expected a number"),
        ({"landscape": {"dimension": 2, "V": "x^2 + y^2", "box": [2]}},
         "landscape.box: expected a number"),
        ({"landscape": {"dimension": 2, "V": "x^2 + y^2", "box": 0}},
         r"landscape\.box: must be positive"),
        ({"landscape": {"dimension": 2, "V": "x^2 + y^2", "box": -1.5}},
         r"landscape\.box: must be positive"),
        ({"sde": {"trails": 10}}, r"sde\.trails: unknown key"),
        ({"grids": {"n": 96}}, "grids: unknown key"),
        ({"grid": {"m": 96}}, r"grid\.m: unknown key"),
        ({"graded": {"instance": 5}}, r"graded\.instance: unknown key"),
        ({"quasimode": {"export": True}}, r"quasimode\.export: unknown key"),
        ({"landscape": {"preset": "tilted_double_well", "c": 1.0}},
         r"landscape\.c: unknown key"),
        ({"quasimode": {"export_fields": "false"}},
         r"quasimode\.export_fields: expected true or false"),
        ({"quasimode": {"export_fields": 0}},
         r"quasimode\.export_fields: expected true or false"),
        ({"landscape": {"preset": "tilted_double_well", "box": 3.0}},
         r"landscape\.box: a preset fixes its own field and box"),
        ({"landscape": {"preset": "sym_double_well", "V": "x^2 + y^2"}},
         r"landscape\.V: a preset fixes"),
        ({"landscape": {"preset": "triple_well", "b": ["0", "0"]}},
         r"landscape\.b: a preset fixes"),
        ({"landscape": {"preset": "triple_well", "nu": ["0", "0"]}},
         r"landscape\.nu: a preset fixes"),
        ({"landscape": {"preset": "tilted_double_well", "dimension": 2}},
         r"landscape\.dimension: a preset fixes"),
        ({"landscape": {"dimension": 3, "V": "x^2 + y^2"}},
         r"landscape\.dimension: only dimension 2 is supported"),
        ({"landscape": {"preset": "triple_well", "a": 0.3}},
         r"landscape\.a: the tilt applies to the tilted_double_well preset"),
        ({"landscape": {"preset": "sym_double_well", "a": 0.3}},
         r"landscape\.a: the tilt applies"),
        ({"landscape": {"dimension": 2, "V": 5}},
         r"landscape\.V: expected an expression string, got 5"),
        ({"landscape": {"dimension": 2, "V": "x^2 + y^2", "b": [1, 2]}},
         r"landscape\.b\[0\]: expected an expression string, got 1"),
        ({"landscape": {"dimension": 2, "V": "x^2 + y^2", "nu": ["0", 2]}},
         r"landscape\.nu\[1\]: expected an expression string, got 2"),
        ({"out": 5}, "out: expected a path string, got 5"),
        ({"h": [0.2, 0.2]}, "h: repeats a value"),
        ({"c": [0, 0]}, "c: repeats a value"),
        ({"c": []}, "c: at least one c value is required"),
        # checked before the rule that a custom landscape takes no c sweep
        ({"landscape": {"V": "x^2 + y^2"}, "c": []},
         "c: at least one c value is required"),
        ({"landscape": {"V": "x^2 + z^2"}},
         r"landscape\.V: variable 'z' out of range for dimension 2 "
         "at offset 6"),
        ({"landscape": {"V": "x^2 + y^2", "b": ["y", "-x3"]}},
         r"landscape\.b\[1\]: variable 'x3' out of range for dimension 2"),
    ]:
        with pytest.raises(ConfigError, match=where):
            parse_config(_write_cfg(tmp_path, **{**base, **override}))


def test_graded_selftest_needs_no_landscape(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, stages=["graded-selftest"]))
    assert cfg.landscape is None
    assert cfg.stages == ("graded-selftest",)


def test_implicit_analyze_is_prepended(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, stages=["spectrum"],
                                  landscape={"preset": "sym_double_well"}))
    assert cfg.stages == ("analyze", "spectrum")


# ---------------------------------------------------------------------------
# Stage artifacts

def test_analyze_emits_the_labelled_catalog(tilted_run):
    header, rows = _read_csv(tilted_run / "ek_table.csv")
    assert header == ["c", "m_x", "m_y", "V_m", "S", "zeta", "lambda_h0.2"]
    assert len(rows) == 2
    by_x = sorted(rows, key=lambda r: float(r[1]))
    # global well: infinite barrier, zero rate
    assert float(by_x[0][1]) == pytest.approx(-1.0574, abs=1e-3)
    assert by_x[0][4] == "inf" and float(by_x[0][6]) == 0.0
    # shallow well matches the library prediction exactly
    ana = Analysis(make_preset("tilted_double_well"))
    pred = [p for p in ana.predictions if p.S != np.inf][0]
    assert float(by_x[1][5]) == pytest.approx(pred.zeta, rel=1e-10)
    assert float(by_x[1][6]) == pytest.approx(pred.lam(0.2), rel=1e-10)

    wells = json.loads((tilted_run / "well_map.json").read_text())["wells"]
    assert len(wells) == 2
    glob = next(w for w in wells if w["is_global"])
    shal = next(w for w in wells if not w["is_global"])
    assert glob["sigma"] is None and glob["saddles"] == []
    assert shal["barrier"] == pytest.approx(pred.S)
    assert len(shal["saddles"]) == 1


def test_spectrum_sweep_rows(tilted_run):
    header, rows = _read_csv(tilted_run / "spectrum_sweep.csv")
    assert header == ["h", "c", "k", "re_lambda", "im_lambda", "ek", "ratio"]
    assert len(rows) == 2  # n0 = 2 wells at the single h
    k0, k1 = rows
    assert k0[2] == "0" and abs(float(k0[3])) < 1e-6 and k0[6] == ""
    assert k1[2] == "1"
    assert float(k1[6]) == pytest.approx(0.907, abs=0.01)
    # the manifest's spectrum diagnostics come from the same solve
    man = json.loads((tilted_run / "run_manifest.json").read_text())
    (cell,) = man["diagnostics"]["spectrum"]
    assert (cell["h"], cell["c"], cell["n0_observed"]) == (0.2, 0.0, 2)
    assert float(k1[3]) < cell["threshold"] < cell["gap_witness"]
    assert cell["kernel_defect"] == pytest.approx(
        abs(float(k0[3])) / float(k1[3]), rel=1e-9)
    # no drift, so no drift flux crosses a face
    assert cell["peclet"] == 0.0


def test_quasimode_report_and_field_export(tilted_run):
    header, rows = _read_csv(tilted_run / "quasimode_report.csv")
    assert header[:3] == ["c", "h", "well"]
    assert len(rows) == 1  # one non-global well, one h
    row = dict(zip(header, rows[0]))
    assert float(row["norm_ratio"]) == pytest.approx(1.02, abs=0.05)
    # acceptance check 5's band at h = 0.2
    h = float(row["h"])
    assert 1.0 / (1.0 + 10.0 * h) <= float(row["dirichlet_ratio"]) \
        <= 1.0 + 10.0 * h
    assert float(row["residual_sq"]) > 0

    grid_files = list(tilted_run.glob("psi_grid_*.csv"))
    assert len(grid_files) == 1
    _, psi_rows = _read_csv(grid_files[0])
    assert len(psi_rows) == 96 * 96
    psi = np.array([float(r[2]) for r in psi_rows])
    assert psi.min() >= -1e-9 and psi.max() == pytest.approx(2.0, abs=1e-6)


def test_manifest_records_stages_and_versions(tilted_run):
    man = json.loads((tilted_run / "run_manifest.json").read_text())
    assert [s["stage"] for s in man["stages"]] == ["analyze", "spectrum",
                                                   "quasimode"]
    assert all(s["status"] == "passed" for s in man["stages"])
    assert all(s["wall_s"] > 0 for s in man["stages"])
    assert man["versions"]["kramers_lab"]
    assert man["config"]["grid"]["n"] == 96


def test_manifest_records_cutoff_scales(tilted_run, tilted_c0):
    man = json.loads((tilted_run / "run_manifest.json").read_text())
    (cell,) = man["diagnostics"]["quasimode"]
    rho0, delta0 = quasimode.cutoff_scales(tilted_c0.shallow_well,
                                           tilted_c0.wm)
    assert cell == {"c": 0.0, "well": 2, "rho0": rho0, "delta0": delta0}


def test_sde_stage_report(tmp_path, monkeypatch):
    # one line per call, appended to a file: the solve runs in a child
    log = tmp_path / "calls.log"

    def counted(name):
        fn = getattr(discretize, name)

        def wrapper(*args, **kwargs):
            with open(log, "a") as f:
                f.write(name + "\n")
            return fn(*args, **kwargs)
        return wrapper

    for name in ("assemble", "small_spectrum"):
        monkeypatch.setattr(discretize, name, counted(name))
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.25],
                     stages=["spectrum", "sde"],
                     grid={"n": 64},
                     sde={"trials": 150},
                     out=str(out))
    assert main(["run", str(cfg)]) == 0
    # the spectrum and sde stages share one assembly and one solve
    calls = Counter(log.read_text().split())
    assert dict(calls) == {"assemble": 1, "small_spectrum": 1}
    assert (out / "spectrum_sweep.csv").exists()
    header, rows = _read_csv(out / "sde_report.csv")
    assert header == ["h", "c", "mean_tau", "stderr", "inv_lambda2", "ratio",
                      "mfpt_pred", "z"]
    assert len(rows) == 1
    (_, _, mean, stderr, _, ratio, mfpt, z), = rows
    assert 0.5 <= float(ratio) <= 2.0
    assert float(z) == pytest.approx(
        (float(mean) - float(mfpt)) / float(stderr), rel=1e-9)
    man = json.loads((out / "run_manifest.json").read_text())
    (cell,) = man["diagnostics"]["sde"]
    assert (cell["h"], cell["c"]) == (0.25, 0.0)
    assert cell["guard_max_drift"] > 0
    assert cell["dt"] == pytest.approx(0.25 / (10 * cell["guard_max_drift"]),
                                       rel=1e-12)
    assert cell["escapes"] == 0
    # trial-steps taken against trials * u(start) / dt
    assert cell["predicted_trial_steps"] == pytest.approx(
        150 * float(mfpt) / cell["dt"], rel=1e-9)
    assert cell["trial_steps"] == pytest.approx(
        150 * float(mean) / cell["dt"], rel=1e-6)
    # the one cell has every usable CPU
    assert cell["shards"] == forked.usable_cpus()


def test_sde_stage_solves_its_spectra_together(tmp_path, monkeypatch):
    # without the spectrum stage the sde stage asks for every cell's
    # spectrum in one solve_spectra call, and steps the cells in one
    # simulate call
    calls = {"solve_spectra": [], "simulate": []}
    for name in calls:
        def spy(cells, fn=getattr(cli, name), log=calls[name]):
            log.append(list(cells))
            return fn(log[-1])
        monkeypatch.setattr(cli, name, spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 4)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.25, 0.3],
                     stages=["analyze", "sde"],
                     grid={"n": 64},
                     sde={"trials": 150},
                     out=str(out))
    assert main(["run", str(cfg)]) == 0
    (cells,) = calls["solve_spectra"]
    assert [(h, n) for _, h, n in cells] == [(0.25, 64), (0.3, 64)]
    (sims,) = calls["simulate"]
    assert [sim.h for sim in sims] == [0.25, 0.3]
    man = json.loads((out / "run_manifest.json").read_text())
    assert [cell["shards"] for cell in man["diagnostics"]["sde"]] == [2, 2]
    assert multiprocessing.active_children() == []


def test_sde_stage_builds_every_config_before_it_steps(tmp_path,
                                                      monkeypatch):
    # the c=0 cell's gate would fail (u(start) far above any mean), but
    # the c=1 cell's config is refused first, and nothing is stepped
    built, stepped = [], []

    def make_config(*args, **kwargs):
        built.append(args)
        if len(built) == 2:
            raise sde.SdeError("planted refusal")
        return sde.make_config(*args, **kwargs)

    monkeypatch.setattr(cli, "make_config", make_config)
    monkeypatch.setattr(cli, "mean_first_passage", lambda sim, op: 1e9)
    monkeypatch.setattr(cli, "simulate", stepped.append)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.3], c=[0.0, 1.0],
                     stages=["sde"],
                     grid={"n": 64},
                     sde={"trials": 10},
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["stages"][-1]["message"] == "sde: planted refusal"
    assert stepped == []


def test_sde_stage_gates_against_the_discrete_mfpt(tmp_path):
    # the start well's path to the target crosses the middle well, so the
    # mean sits near u(start) = 1.975/lambda_2; seed 6 draws it past
    # 2/lambda_2
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, landscape={"preset": "triple_well"},
                     h=[0.2], c=[0.0], grid={"n": 96}, sde={"trials": 200},
                     stages=["analyze", "spectrum", "sde"], seed=6,
                     out=str(out))
    assert main(["run", str(cfg)]) == 0
    _, rows = _read_csv(out / "sde_report.csv")
    (_, _, mean, _, _, ratio, mfpt, _), = rows
    assert float(ratio) > 2.0
    assert 0.5 <= float(mean) / float(mfpt) <= 2.0


def test_sde_stage_needs_a_start_well(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"dimension": 2, "V": "x^2 + y^2", "box": 2},
                     h=[0.2],
                     stages=["analyze", "sde"],
                     grid={"n": 64},
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    analyze, sde_stage = man["stages"]
    assert analyze["status"] == "passed"
    assert sde_stage["status"] == "failed"
    assert "needs a non-global start well" in sde_stage["message"]
    assert "traceback" not in sde_stage


def test_sde_refusal_fails_its_stage(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.25], grid={"n": 64},
                     sde={"radius": 1.5, "trials": 10},
                     stages=["sde"],
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    analyze, sde_stage = man["stages"]
    assert analyze["status"] == "passed"
    assert sde_stage["status"] == "failed"
    assert sde_stage["message"].startswith("sde: target ball of radius 1.5")
    assert "shrink the radius" in sde_stage["message"]
    assert "traceback" not in sde_stage


def test_graded_stage_writes_json(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, stages=["graded-selftest"],
                     graded={"instances": 10}, out=str(out))
    assert main(["run", str(cfg)]) == 0
    rep = json.loads((out / "graded_selftest.json").read_text())
    assert rep["instances"] == 10
    assert rep["failures"] == 0
    assert rep["min_shrink_ratio_h_over_h10"] >= 5.0


def test_graded_report_is_the_same_beside_the_landscape_stages(tmp_path):
    reports = []
    for tag, stages in (("beside", ["analyze", "spectrum", "graded-selftest"]),
                        ("alone", ["graded-selftest"])):
        out = tmp_path / tag
        cfg = _write_cfg(tmp_path,
                         landscape={"preset": "tilted_double_well"},
                         h=[0.25],
                         grid={"n": 64},
                         stages=stages,
                         graded={"instances": 20},
                         seed=5,
                         out=str(out))
        assert main(["run", str(cfg)]) == 0
        reports.append((out / "graded_selftest.json").read_bytes())
    direct = json.dumps(graded.selftest(graded.measure_instances(20, 5)),
                        indent=2)
    assert reports[0] == reports[1] == (direct + "\n").encode()


def test_graded_worker_error_keeps_its_traceback(tmp_path, monkeypatch):
    def planted_instance(*args, **kwargs):
        raise RuntimeError("planted")

    # patched before the ranges fork, so the children call it; on two
    # CPUs the failure arrives from a child
    monkeypatch.setattr(graded, "random_instance", planted_instance)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, stages=["graded-selftest"],
                     graded={"instances": 5}, out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    (record,) = man["stages"]
    assert record["status"] == "failed"
    assert record["message"] == \
        "graded-selftest: WorkerError: RuntimeError: planted"
    assert "in measure_instances" in record["traceback"]
    assert "in _send_result" in record["traceback"]
    assert "in planted_instance" in record["traceback"]
    assert not (out / "graded_selftest.json").exists()
    assert multiprocessing.active_children() == []


def test_failed_analyze_stage_starts_no_child(tmp_path, monkeypatch):
    started = []
    init = forked.Forked.__init__

    def spy(self, *args):
        started.append(args)
        init(self, *args)

    monkeypatch.setattr(forked.Forked, "__init__", spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    out = tmp_path / "out"
    # the drift x breaks stationarity of exp(-V/h)
    cfg = _write_cfg(tmp_path,
                     landscape={"dimension": 2, "V": "(x^2-1)^2 + y^2",
                                "b": ["x", "0"]},
                     h=[0.2],
                     stages=["analyze", "graded-selftest"],
                     graded={"instances": 20},
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    statuses = {s["stage"]: s["status"] for s in man["stages"]}
    assert statuses == {"analyze": "failed", "graded-selftest": "skipped"}
    assert started == []
    assert not (out / "graded_selftest.json").exists()


def test_failed_solve_fails_the_spectrum_stage(tmp_path, monkeypatch):
    def planted_solve(op, count):
        if op.h == 0.2:
            raise RuntimeError("planted")
        time.sleep(60)      # stopped when the other solve fails

    children = []
    close = forked.Forked.close

    def spy(self):
        if self._proc is not None:
            children.append(self._proc)
        close(self)

    # patched before the solves fork, so the children call it
    monkeypatch.setattr(discretize, "small_spectrum", planted_solve)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    monkeypatch.setattr(forked.Forked, "close", spy)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.2, 0.25],
                     stages=["spectrum", "quasimode"],
                     grid={"n": 64},
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    analyze, spectrum, quasimode = man["stages"]
    assert (analyze["status"], spectrum["status"], quasimode["status"]) == \
        ("passed", "failed", "skipped")
    assert spectrum["message"] == \
        "spectrum: WorkerError: RuntimeError: planted"
    assert "in _send_result" in spectrum["traceback"]
    assert "in planted_solve" in spectrum["traceback"]
    # the failed child exited by itself, the sleeping one was stopped
    assert [c.exitcode for c in children] == [0, -signal.SIGTERM]
    assert multiprocessing.active_children() == []
    assert gc.get_freeze_count() == 0
    assert not (out / "spectrum_sweep.csv").exists()


def test_every_fork_starts_from_a_single_thread(tmp_path, monkeypatch):
    forks = []
    init = forked.Forked.__init__

    def spy(self, fn, *args):
        forks.append((fn.__name__, threading.active_count()))
        init(self, fn, *args)

    monkeypatch.setattr(forked.Forked, "__init__", spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.25],
                     stages=["spectrum", "sde", "graded-selftest"],
                     grid={"n": 64},
                     sde={"trials": 150},
                     graded={"instances": 200},
                     out=str(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    # the one solve child, both sde shards, then both graded ranges
    assert forks == [("small_spectrum", 1), ("_run_shard", 1),
                     ("_run_shard", 1), ("_measure_range", 1),
                     ("_measure_range", 1)]
    assert gc.get_freeze_count() == 0


# ---------------------------------------------------------------------------
# Failure modes and determinism

def test_analysis_stages_do_not_import_ndimage(tmp_path):
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     c=[0.0], h=[0.25], grid={"n": 64},
                     out=str(tmp_path / "out"))
    script = (
        "import sys\n"
        "from kramers_lab.cli import main\n"
        f"assert main(['run', {str(cfg)!r}, "
        "'--stages', 'analyze,quasimode']) == 0\n"
        "assert 'scipy.ndimage' not in sys.modules, 'scipy.ndimage imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "quasimode_report.csv").exists()


def test_analyze_and_selftest_do_not_import_scipy_sparse(tmp_path):
    # the analyze stage and the graded self-test need NumPy alone; the
    # first operator loads scipy.sparse in this process, so the children
    # that solve_spectra forks inherit the solver instead of importing it
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     c=[0.0], h=[0.25], grid={"n": 64},
                     out=str(tmp_path / "out"))
    script = (
        "import sys\n"
        "from kramers_lab.analysis import Analysis\n"
        "from kramers_lab.cli import main\n"
        "from kramers_lab.landscape import make_preset\n"
        "def sparse():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith('scipy.sparse'))\n"
        f"assert main(['run', {str(cfg)!r}, '--stages', 'analyze']) == 0\n"
        "assert not sparse(), sparse()\n"
        "assert main(['selftest', '--instances', '3']) == 0\n"
        "assert not sparse(), sparse()\n"
        "Analysis(make_preset('tilted_double_well')).operator(0.25, 64)\n"
        "assert 'scipy.sparse.linalg' in sys.modules, sparse()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "well_map.json").exists()


def test_planted_nonstationary_drift_fails_analyze(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"dimension": 2, "V": "(x^2-1)^2 + y^2",
                                "b": ["x", "0"]},
                     h=[0.2],
                     stages=["analyze"],
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "stationarity" in err
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["stages"][0]["status"] == "failed"
    assert "b.grad V" in man["stages"][0]["message"]


def test_unexpected_error_keeps_its_traceback(tmp_path, monkeypatch):
    def broken(ctx):
        raise KeyError("planted")

    monkeypatch.setitem(cli._STAGE_FUNCS, "analyze", broken)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.2],
                     stages=["analyze", "spectrum", "graded-selftest"],
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    first, *later = man["stages"]
    assert first["status"] == "failed"
    assert first["message"] == "analyze: KeyError: 'planted'"
    assert "KeyError: 'planted'" in first["traceback"]
    assert "in broken" in first["traceback"]
    assert [s["status"] for s in later] == ["skipped", "skipped"]


@pytest.mark.parametrize("stage, c", [("spectrum", [0.0, 1.0]),
                                      ("quasimode", [0.0, 1.0]),
                                      ("sde", [1.0])],
                         ids=["spectrum", "quasimode", "sde"])
def test_refused_grid_fails_its_stage(stage, c, tmp_path, capsys):
    # at n = 16 the grid step is 0.27, so the minimum at x = -1.06 lies
    # within 4 steps of the wall at -2
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     c=c, h=[0.2], grid={"n": 16},
                     stages=["analyze", stage],
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    assert "enlarge the box" in capsys.readouterr().err
    man = json.loads((out / "run_manifest.json").read_text())
    analyze, failed = man["stages"]
    assert analyze["status"] == "passed"
    assert failed["status"] == "failed"
    assert failed["message"].startswith(f"{stage}: critical point at")
    assert "within 4 grid steps of the boundary" in failed["message"]
    assert "traceback" not in failed
    assert multiprocessing.active_children() == []


def test_walls_below_the_saddle_fail_the_quasimode_stage(tmp_path, capsys):
    # on the box [-1.2, 1.2]^2 the walls x = +-1.2 reach down to
    # V = 0.1936, below the saddle value 1: no cutoff shell fits inside
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"dimension": 2, "V": "(x^2-1)^2 + y^2",
                                "box": 1.2},
                     h=[0.2], stages=["analyze", "quasimode"], out=str(out))
    assert main(["run", str(cfg)]) == 1
    assert "enlarge the box" in capsys.readouterr().err
    man = json.loads((out / "run_manifest.json").read_text())
    analyze, failed = man["stages"]
    assert analyze["status"] == "passed"
    assert failed["status"] == "failed"
    assert failed["message"].startswith(
        "quasimode: no admissible cutoff geometry")
    assert "walls reach down to V = 0.193622" in failed["message"]
    assert "sigma = 1;" in failed["message"]
    assert "bisection" not in failed["message"]
    assert "traceback" not in failed


@pytest.mark.parametrize("landscape, words", [
    # the box [-0.5, 0.5]^2 holds the saddle at 0 but neither minimum
    ({"dimension": 2, "V": "(x^2-1)^2 + y^2", "box": 0.5}, "no minima"),
    ({"dimension": 2, "V": "0.06*x^2*(x^2-4)^2 + y^2", "box": 3.2},
     "tied deepest minima"),
    ({"dimension": 2, "V": "log(x)"}, "no critical points"),
    ({"dimension": 2, "V": "exp(800*x) + y^2"},
     "cannot be evaluated on the box [-2, 2]^2"),
    ({"dimension": 2, "V": "log(x+1.5) + x^2 + y^2"},
     "cannot be evaluated on the box [-2, 2]^2"),
], ids=["no-minima", "tied-minima", "no-critical-points", "overflow",
        "log-domain"])
def test_refused_landscape_fails_analyze(landscape, words, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, landscape=landscape,
                     stages=["analyze", "spectrum"], out=str(out))
    assert main(["run", str(cfg)]) == 1
    assert words in capsys.readouterr().err
    man = json.loads((out / "run_manifest.json").read_text())
    failed, skipped = man["stages"]
    assert failed["status"] == "failed"
    assert failed["message"].startswith("analyze: ")
    assert words in failed["message"]
    assert "traceback" not in failed
    assert skipped["status"] == "skipped"


def test_stationarity_is_validated_once_per_landscape(tmp_path,
                                                     monkeypatch):
    seen = []

    def spy(land):
        seen.append(land)
        return validate_stationarity(land)

    monkeypatch.setattr("kramers_lab.landscape.validate_stationarity", spy)
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     c=[0.0, 0.5], h=[0.2, 0.3], grid={"n": 64},
                     stages=["analyze", "spectrum"],
                     out=str(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    # two landscapes, four assemblies
    assert len(seen) == 2
    assert seen[0] is not seen[1]


def test_predictions_are_built_once_per_landscape(tmp_path, monkeypatch):
    built, checked = [], []
    predict = analysis.predict_spectrum
    genericity = WellMap.genericity.func

    def spy(wm, data):
        built.append(wm)
        return predict(wm, data)

    def counted(wm):
        checked.append(wm)
        return genericity(wm)

    monkeypatch.setattr(analysis, "predict_spectrum", spy)
    prop = functools.cached_property(counted)
    prop.__set_name__(WellMap, "genericity")
    monkeypatch.setattr(WellMap, "genericity", prop)
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     c=[0.0, 1.0], h=[0.2, 0.3], grid={"n": 96},
                     stages=["analyze", "spectrum", "quasimode"],
                     out=str(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    # one record set and one genericity report per landscape, read by the
    # analyze, spectrum and quasimode stages at every h
    assert len(built) == 2 and built[0] is not built[1]
    assert [id(wm) for wm in checked] == [id(wm) for wm in built]


@pytest.mark.parametrize("preset, generic, code", [
    ("tilted_double_well", True, 0),
    ("sym_double_well", False, 0),
    (None, False, 1),
])
def test_manifest_reports_genericity(preset, generic, code, tmp_path):
    # the tied triple well is refused, and its report still lands
    landscape = {"preset": preset} if preset else {
        "dimension": 2, "V": "0.06*x^2*(x^2-4)^2 + y^2", "box": 3.2}
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, landscape=landscape, h=[0.2],
                     stages=["analyze"], out=str(out))
    assert main(["run", str(cfg)]) == code
    man = json.loads((out / "run_manifest.json").read_text())
    (cell,) = man["diagnostics"]["analyze"]
    assert cell["c"] == 0.0 and cell["generic"] is generic
    if generic:
        assert cell["violations"] == []
    else:
        assert any("tied deepest minima" in v for v in cell["violations"])
    if code:
        assert "requires a generic well map or the equal-depth double " \
            "well; found: " in man["stages"][0]["message"]


def test_failed_stage_skips_dependents(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path,
                     landscape={"dimension": 2, "V": "(x^2-1)^2 + y^2",
                                "b": ["x", "0"]},
                     h=[0.2],
                     stages=["analyze", "spectrum"],
                     out=str(out))
    assert main(["run", str(cfg)]) == 1
    man = json.loads((out / "run_manifest.json").read_text())
    statuses = {s["stage"]: s["status"] for s in man["stages"]}
    assert statuses == {"analyze": "failed", "spectrum": "skipped"}
    assert not (out / "spectrum_sweep.csv").exists()


def test_identical_runs_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _write_cfg(tmp_path,
                         landscape={"preset": "triple_well"},
                         h=[0.15, 0.2],
                         stages=["analyze", "graded-selftest"],
                         graded={"instances": 8},
                         seed=3,
                         out=str(out))
        assert main(["run", str(cfg)]) == 0
        outs.append(out)
    for name in ("ek_table.csv", "well_map.json", "graded_selftest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # manifests may differ only in the timestamp and the stage wall times
    m0 = json.loads((outs[0] / "run_manifest.json").read_text())
    m1 = json.loads((outs[1] / "run_manifest.json").read_text())
    m0.pop("timestamp"), m1.pop("timestamp")
    m0["config"].pop("out"), m1["config"].pop("out")
    for record in m0["stages"] + m1["stages"]:
        assert record.pop("wall_s") > 0
    assert m0 == m1


def test_cli_overrides(tmp_path):
    out = tmp_path / "cli_out"
    cfg = _write_cfg(tmp_path,
                     landscape={"preset": "tilted_double_well"},
                     h=[0.2],
                     stages=["analyze", "spectrum"],
                     out=str(tmp_path / "ignored"))
    assert main(["run", str(cfg), "--out", str(out),
                 "--stages", "analyze"]) == 0
    assert (out / "ek_table.csv").exists()
    assert not (out / "spectrum_sweep.csv").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("via", ["config", "--out"])
@pytest.mark.parametrize("where", ["under-a-file", "a-file"])
def test_uncreatable_out_is_a_usage_error(via, where, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "run" if where == "under-a-file" else blocker
    opts = {"out": str(out)} if via == "config" else {}
    cfg = _write_cfg(tmp_path, stages=["graded-selftest"],
                     graded={"instances": 2}, **opts)
    argv = ["run", str(cfg)] + (["--out", str(out)] if via == "--out" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: out: cannot create {out}: ")
    assert blocker.read_text() == "a regular file\n"


def test_selftest_subcommand(capsys):
    assert main(["selftest", "--instances", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["instances"] == 5
    assert rep["failures"] == 0


@pytest.mark.parametrize("args, message", [
    (["--instances", "0"], "--instances needs at least one instance"),
    (["--seed", "-1"], "--seed must be non-negative"),
])
def test_selftest_refuses_what_run_refuses(args, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", *args])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
