"""CLI pipeline tests: config validation, stage artifacts, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from kramers_lab import analysis, cli
from kramers_lab.analysis import Analysis
from kramers_lab.cli import ConfigError, main, parse_config
from kramers_lab.landscape import make_preset
from kramers_lab.saddle import predict_spectrum


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
        ({"sde": {"trials": 0}}, "sde.trials: needs at least one"),
        ({"sde": {"radius": "wide"}}, "sde.radius: expected a number"),
        ({"sde": {"radius": 0}}, "sde.radius: must be positive"),
        ({"sde": 5}, "sde: must be an object"),
        ({"graded": {"instances": 0}}, "graded.instances: needs at least"),
        ({"landscape": {"preset": "tilted_double_well", "a": "abc"}},
         "landscape.a: expected a number"),
        ({"landscape": {"dimension": 2, "V": "x^2 + y^2", "box": [2]}},
         "landscape.box: expected a number"),
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
    pred = [p for p in predict_spectrum(ana.land, ana.wm, 0.2)
            if p.S != np.inf][0]
    assert float(by_x[1][5]) == pytest.approx(pred.zeta, rel=1e-10)
    assert float(by_x[1][6]) == pytest.approx(pred.lam, rel=1e-10)

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


def test_quasimode_report_and_field_export(tilted_run):
    header, rows = _read_csv(tilted_run / "quasimode_report.csv")
    assert header[:3] == ["c", "h", "well"]
    assert len(rows) == 1  # one non-global well, one h
    row = dict(zip(header, rows[0]))
    assert float(row["norm_ratio"]) == pytest.approx(1.02, abs=0.05)
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
    assert man["versions"]["kramers_lab"]
    assert man["config"]["grid"]["n"] == 96


def test_sde_stage_report(tmp_path, monkeypatch):
    calls = {"assemble": 0, "small_spectrum": 0}

    def counted(name):
        fn = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(analysis, name, counted(name))
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
    assert calls == {"assemble": 1, "small_spectrum": 1}
    assert (out / "spectrum_sweep.csv").exists()
    header, rows = _read_csv(out / "sde_report.csv")
    assert header == ["h", "c", "mean_tau", "stderr", "inv_lambda2", "ratio"]
    assert len(rows) == 1
    assert 0.5 <= float(rows[0][5]) <= 2.0


def test_graded_stage_writes_json(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, stages=["graded-selftest"],
                     graded={"instances": 10}, out=str(out))
    assert main(["run", str(cfg)]) == 0
    rep = json.loads((out / "graded_selftest.json").read_text())
    assert rep["instances"] == 10
    assert rep["failures"] == 0
    assert rep["min_shrink_ratio_h_over_h10"] >= 5.0


# ---------------------------------------------------------------------------
# Failure modes and determinism

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
    # manifests may differ only in the timestamp
    m0 = json.loads((outs[0] / "run_manifest.json").read_text())
    m1 = json.loads((outs[1] / "run_manifest.json").read_text())
    m0.pop("timestamp"), m1.pop("timestamp")
    m0["config"].pop("out"), m1["config"].pop("out")
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


def test_selftest_subcommand(capsys):
    assert main(["selftest", "--instances", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["instances"] == 5
    assert rep["failures"] == 0
