"""Command-line pipeline: config ingestion, stage orchestration, reports.

Config is a JSON object::

    {
      "landscape": {"preset": "tilted_double_well", "a": 0.5}
                   or {"dimension": 2, "V": "(x^2-1)^2 + y^2",
                       "b": ["...", "..."], "nu": ["...", "..."],
                       "box": 2.0},
      "h": [0.1, 0.15, 0.2],
      "c": [0.0],                      # perturbation strengths (presets only)
      "grid": {"n": 96},
      "stages": ["analyze", "spectrum"],
      "out": "runs/demo",
      "seed": 0,
      "sde": {"trials": 500, "radius": 0.3},
      "quasimode": {"export_fields": false},
      "graded": {"instances": 200}
    }

A key outside this schema is a config error, and so is a key the chosen
landscape would ignore: ``box``, ``V``, ``b``, ``nu`` or ``dimension``
next to a preset, or the tilt ``a`` anywhere but on
``tilted_double_well``.  Stages run in dependency order; analyze is added
implicitly when a later stage needs its output.

The graded self-test reads nothing from the landscape.  Its stage
measures the random instances with ``graded.measure_instances``,
summarizes them with ``graded.selftest``, then writes and checks the
report.  ``kramers-lab selftest`` runs the same two calls; like ``run``
it refuses ``--instances`` below 1 and a negative ``--seed`` with exit
code 2.  Every child a run starts comes from one ``forked.starmap``
window of a stage: the spectrum stage's small-spectrum solves, the sde
stage's shards of all its cells (``sde.simulate``) and the self-test's
instance ranges.

The sde stage solves the spectra of all its cells at once, as the
spectrum stage does, builds each cell's config and u(start), steps every
cell in one ``sde.simulate``, then gates each cell in order: the mean
hitting time against the discrete mean first-passage time u(start) from
``sde.mean_first_passage``, within a factor 2; 1/lambda_2 stays a report
column.  A cell whose config or u(start) is refused stops the stage
before any cell is stepped, so that refusal is reported even when an
earlier cell's gate would fail.

Every run writes run_manifest.json (config, versions, stage outcomes
with their wall times, the analyze stage's genericity report per c:
whether the well map meets the paper's generic assumption, and its
violations; and per-cell diagnostics of the spectrum stage: cluster
size, threshold, gap witness, kernel defect, mesh Peclet number; of the
quasimode stage: the cutoff scales rho0 and delta0 of each (c, well);
and of the sde stage: dt, the guard, trial-steps, shards); data files are CSV
with a fixed number format, so identical config + seed reproduce
byte-identical bodies.
Exit codes: 0 all stage assertions passed, 1 a stage failed (a refused
landscape included: one the box cannot evaluate, or one whose saddle the
labelling grid is too coarse to resolve), 2 config/usage error (an
``out`` the run cannot create as a directory included).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import expr as ex
from .analysis import Analysis, solve_spectra
from .discretize import DiscretizationError, Grid
from .graded import measure_instances
from .graded import selftest as graded_selftest
from .labelling import LabellingError
from .landscape import Landscape, LandscapeError, PRESETS, make_preset
from .quasimode import (
    GeometryError,
    build_cutoffs,
    build_quasimode,
    dirichlet_and_residuals,
)
from .saddle import UnsupportedCaseError
from .sde import (SdeError, hitting_time_stats, make_config,
                  mean_first_passage, simulate)

STAGES = ("analyze", "spectrum", "quasimode", "sde", "graded-selftest")
_NEEDS_LANDSCAPE = ("analyze", "spectrum", "quasimode", "sde")
_TOP_KEYS = ("landscape", "h", "c", "grid", "stages", "out", "seed", "sde",
             "quasimode", "graded")
_CUSTOM_KEYS = ("dimension", "V", "b", "nu", "box")
_LANDSCAPE_KEYS = ("preset", "a") + _CUSTOM_KEYS


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    landscape: dict | None
    h: tuple[float, ...]
    c: tuple[float, ...]
    grid_n: int
    stages: tuple[str, ...]
    out: Path
    seed: int
    sde_trials: int
    sde_radius: float
    quasimode_export: bool
    graded_instances: int


def _require(cond, where, msg):
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _number(value, where, kind=float):
    """``value`` as ``kind`` if it is a finite JSON number (a whole one
    for int), else a ConfigError naming the field."""
    try:
        ok = (not isinstance(value, (bool, str)) and math.isfinite(value)
              and (kind is float or value == int(value)))
    except (TypeError, OverflowError):
        ok = False
    noun = "a number" if kind is float else "an integer"
    _require(ok, where, f"expected {noun}, got {value!r}")
    return kind(value)


def _numbers(value, where):
    _require(isinstance(value, list), where, "must be a list of numbers")
    numbers = tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(value))
    _require(len(set(numbers)) == len(numbers), where, "repeats a value")
    return numbers


def _expression(text, where):
    """Check that ``text`` parses as an expression in x and y."""
    _require(isinstance(text, str), where,
             f"expected an expression string, got {text!r}")
    try:
        ex.parse(text, 2)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _known_keys(obj, where, allowed):
    for key in obj:
        _require(key in allowed, f"{where}{key}",
                 f"unknown key; allowed: {', '.join(allowed)}")


def _section(raw, key, allowed):
    value = raw.get(key, {})
    _require(isinstance(value, dict), key, "must be an object")
    _known_keys(value, f"{key}.", allowed)
    return value


def parse_config(path: Path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a JSON run configuration."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    _require(isinstance(raw, dict), str(path), "top level must be an object")
    _known_keys(raw, "", _TOP_KEYS)
    raw = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = val

    stages = raw.get("stages")
    _require(isinstance(stages, list) and stages, "stages",
             "at least one stage is required")
    for s in stages:
        _require(s in STAGES, "stages",
                 f"unknown stage {s!r}; choose from {', '.join(STAGES)}")
    # dependency order, implicit analyze
    wanted = set(stages)
    if wanted & set(_NEEDS_LANDSCAPE[1:]):
        wanted.add("analyze")
    stages = tuple(s for s in STAGES if s in wanted)

    land = raw.get("landscape")
    if any(s in wanted for s in _NEEDS_LANDSCAPE):
        _require(isinstance(land, dict), "landscape",
                 f"required by stages {', '.join(sorted(wanted & set(_NEEDS_LANDSCAPE)))}")
        _known_keys(land, "landscape.", _LANDSCAPE_KEYS)
        land = dict(land)
        for key in ("a", "box"):
            if key in land:
                land[key] = _number(land[key], f"landscape.{key}")
        if "preset" in land:
            _require(land["preset"] in PRESETS, "landscape.preset",
                     f"unknown preset {land['preset']!r}; "
                     f"available: {', '.join(PRESETS)}")
            for key in _CUSTOM_KEYS:
                _require(key not in land, f"landscape.{key}",
                         "a preset fixes its own field and box; "
                         "drop the key or the preset")
        else:
            _require("V" in land, "landscape.V",
                     "missing potential expression")
            _require(land.get("box", 2.0) > 0, "landscape.box",
                     "must be positive")
            _require(land.get("dimension", 2) == 2, "landscape.dimension",
                     "only dimension 2 is supported")
            _expression(land["V"], "landscape.V")
            for key in ("b", "nu"):
                if key in land:
                    _require(isinstance(land[key], list)
                             and len(land[key]) == 2,
                             f"landscape.{key}",
                             "must be a list of 2 expressions")
                    for k, text in enumerate(land[key]):
                        _expression(text, f"landscape.{key}[{k}]")
        _require("a" not in land
                 or land.get("preset") == "tilted_double_well",
                 "landscape.a",
                 "the tilt applies to the tilted_double_well preset only")
    else:
        land = None

    h = _numbers(raw.get("h", [0.1, 0.15, 0.2]), "h")
    _require(len(h) > 0, "h", "at least one h value is required")
    for x in h:
        _require(0.0 < x <= 1.0, "h", f"h values must lie in (0, 1], got {x}")
    c = _numbers(raw.get("c", [0.0]), "c")
    _require(len(c) > 0, "c", "at least one c value is required")
    if land is not None and "preset" not in land:
        _require(c == (0.0,), "c",
                 "a c sweep applies to preset landscapes only")

    grid_n = _number(_section(raw, "grid", ("n",)).get("n", 96), "grid.n",
                     int)
    _require(grid_n >= 16, "grid.n", "needs at least 16 nodes per axis")

    sde_opts = _section(raw, "sde", ("trials", "radius"))
    trials = _number(sde_opts.get("trials", 500), "sde.trials", int)
    _require(trials >= 2, "sde.trials",
             "needs at least two trials for a standard error")
    radius = _number(sde_opts.get("radius", 0.3), "sde.radius")
    _require(radius > 0, "sde.radius", "must be positive")
    export = _section(raw, "quasimode", ("export_fields",)).get(
        "export_fields", False)
    _require(isinstance(export, bool), "quasimode.export_fields",
             f"expected true or false, got {export!r}")
    instances = _number(
        _section(raw, "graded", ("instances",)).get("instances", 200),
        "graded.instances", int)
    _require(instances >= 1, "graded.instances",
             "needs at least one instance")
    out = raw.get("out", "kramers_out")
    _require(isinstance(out, str), "out",
             f"expected a path string, got {out!r}")
    seed = _number(raw.get("seed", 0), "seed", int)
    _require(seed >= 0, "seed", "must be non-negative")

    return RunConfig(
        landscape=land,
        h=h,
        c=c,
        grid_n=grid_n,
        stages=stages,
        out=Path(out),
        seed=seed,
        sde_trials=trials,
        sde_radius=radius,
        quasimode_export=export,
        graded_instances=instances,
    )


# ---------------------------------------------------------------------------
# Deterministic CSV emission

def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


# ---------------------------------------------------------------------------
# Stage implementations.  Each returns a list of artifact file names and
# raises StageFailure (with the violated invariant) to fail the run.

class StageFailure(RuntimeError):
    pass


@dataclass
class _Context:
    """Work shared between stages for one pipeline run."""

    cfg: RunConfig
    analyses: dict = field(default_factory=dict)   # c -> Analysis
    diagnostics: dict = field(default_factory=dict)  # stage -> cell records

    def analysis(self, c: float) -> Analysis:
        if c not in self.analyses:
            self.analyses[c] = Analysis(self._landscape(c))
        return self.analyses[c]

    def _landscape(self, c: float) -> Landscape:
        spec = self.cfg.landscape
        if "preset" in spec:
            kwargs = {"c": c}
            if "a" in spec:
                kwargs["a"] = spec["a"]
            return make_preset(spec["preset"], **kwargs)
        zero = ex.constant(0.0)
        b = tuple(ex.parse(t, 2) for t in spec["b"]) \
            if "b" in spec else (zero, zero)
        nu = tuple(ex.parse(t, 2) for t in spec["nu"]) \
            if "nu" in spec else (zero, zero)
        return Landscape(V=ex.parse(spec["V"], 2), b=b, nu=nu,
                         halfwidth=spec.get("box", 2.0))


def _stage_analyze(ctx: _Context) -> list[str]:
    cfg = ctx.cfg
    rows = []
    cells = ctx.diagnostics["analyze"] = []
    for c in cfg.c:
        ana = ctx.analysis(c)
        station = ana.land.stationarity
        if not station.passed:
            raise StageFailure(
                "analyze: drift field violates stationarity of exp(-V/h): "
                + station.describe())
        report = ana.wm.genericity
        cells.append({"c": c, "generic": report.generic,
                      "violations": list(report.violations)})
        for p in ana.predictions:
            m = p.well.minimum
            row = [c, float(m.point[0]), float(m.point[1]), float(m.value),
                   p.S, p.zeta]
            row.extend(p.lam(h) for h in cfg.h)
            rows.append(row)

    header = ["c", "m_x", "m_y", "V_m", "S", "zeta"]
    header.extend(f"lambda_h{_fmt(h)}" for h in cfg.h)
    _write_csv(cfg.out / "ek_table.csv", header, rows)

    wm0 = ctx.analysis(cfg.c[0]).wm
    wells_json = [{
        "round": w.round_index,
        "minimum": [float(x) for x in w.minimum.point],
        "V": float(w.minimum.value),
        "sigma": None if math.isinf(w.sigma) else w.sigma,
        "barrier": None if math.isinf(w.barrier) else w.barrier,
        "saddles": [[float(x) for x in s.point] for s in w.saddles],
        "is_global": w.is_global,
    } for w in sorted(wm0.wells, key=lambda w: w.round_index)]
    with open(cfg.out / "well_map.json", "w") as f:
        json.dump({"wells": wells_json}, f, indent=2)
        f.write("\n")
    return ["ek_table.csv", "well_map.json"]


def _stage_spectrum(ctx: _Context) -> list[str]:
    cfg = ctx.cfg
    solve_spectra([(ctx.analysis(c), h, cfg.grid_n)
                   for c in cfg.c for h in cfg.h])
    rows = []
    cells = ctx.diagnostics["spectrum"] = []
    for c in cfg.c:
        ana = ctx.analysis(c)
        n0 = len(ana.wm.wells)
        for h in cfg.h:
            res = ana.spectrum(h, cfg.grid_n)
            re = res.eigenvalues.real
            cells.append({
                "h": h, "c": c, "n0_observed": res.n0_observed,
                "threshold": res.threshold, "gap_witness": res.gap_witness,
                "kernel_defect": abs(float(re[0])) / float(re[1]),
                "peclet": ana.operator(h, cfg.grid_n).peclet,
            })
            if res.n0_observed != n0:
                raise StageFailure(
                    f"spectrum: cluster size {res.n0_observed} != number of "
                    f"labelled wells {n0} at h={_fmt(h)}, c={_fmt(c)}")
            ek = sorted(p.lam(h) for p in ana.predictions)
            for k in range(n0):
                lam = res.eigenvalues[k]
                ratio = lam.real / ek[k] if ek[k] > 0 else ""
                rows.append([h, c, k, lam.real, lam.imag, ek[k], ratio])
                if ek[k] > 0:
                    dev = abs(lam.real / ek[k] - 1.0)
                    if dev > 3.0 * math.sqrt(h):
                        raise StageFailure(
                            "spectrum: |lambda/EK - 1| = "
                            f"{dev:.3f} > 3 sqrt(h) at h={_fmt(h)}, "
                            f"c={_fmt(c)}, k={k}")
    _write_csv(cfg.out / "spectrum_sweep.csv",
               ["h", "c", "k", "re_lambda", "im_lambda", "ek", "ratio"],
               rows)
    return ["spectrum_sweep.csv"]


def _stage_quasimode(ctx: _Context) -> list[str]:
    cfg = ctx.cfg
    rows, artifacts = [], []
    cells = ctx.diagnostics["quasimode"] = []
    for c in cfg.c:
        ana = ctx.analysis(c)
        land, wm, data = ana.land, ana.wm, ana.data
        grid = Grid(halfwidth=land.halfwidth, n=cfg.grid_n)
        for pred in ana.predictions[1:]:       # the global well is first
            well = pred.well
            try:
                geom = build_cutoffs(well, wm, data, land, grid)
            except GeometryError as e:
                raise StageFailure(
                    "quasimode: no admissible cutoff geometry for the well "
                    f"at {well.minimum.point}: {e}") from e
            cells.append({"c": c, "well": well.round_index,
                          "rho0": geom.rho0, "delta0": geom.delta0})
            for h in cfg.h:
                qm = build_quasimode(well, geom, ana.operator(h, cfg.grid_n))
                forms = dirichlet_and_residuals(qm)
                norm_pred = pred.norm_sq(h)
                dir_pred = pred.dirichlet(h)
                norm_ratio = qm.norm**2 / norm_pred
                rows.append([
                    c, h, well.round_index, qm.norm**2, norm_pred,
                    norm_ratio, forms.dirichlet_phi, dir_pred,
                    forms.dirichlet_phi / dir_pred, forms.residual_sq,
                    forms.adjoint_residual_sq,
                ])
                if abs(norm_ratio - 1.0) > 10.0 * h:
                    raise StageFailure(
                        "quasimode: ||psi||^2 off the harmonic prediction "
                        f"by {norm_ratio:.3f} (allowed 1 +- {10 * h:g}) at "
                        f"h={_fmt(h)}, c={_fmt(c)}, "
                        f"well round {well.round_index}")
                if cfg.quasimode_export:
                    name = (f"psi_grid_c{_fmt(c)}_well{well.round_index}"
                            f"_h{_fmt(h)}.csv")
                    pts = grid.points()
                    _write_csv(cfg.out / name, ["x", "y", "psi"],
                               [[float(p[0]), float(p[1]), float(v)]
                                for p, v in zip(pts, qm.values)])
                    artifacts.append(name)
    _write_csv(cfg.out / "quasimode_report.csv",
               ["c", "h", "well", "norm_sq", "norm_sq_pred", "norm_ratio",
                "dirichlet_phi", "dirichlet_pred", "dirichlet_ratio",
                "residual_sq", "adjoint_residual_sq"],
               rows)
    return ["quasimode_report.csv"] + artifacts


def _stage_sde(ctx: _Context) -> list[str]:
    cfg = ctx.cfg
    diagnostics = ctx.diagnostics["sde"] = []
    for c in cfg.c:
        if len(ctx.analysis(c).wm.wells) == 1:
            raise StageFailure(
                f"sde: the landscape has a single well at c={_fmt(c)}; a "
                "hitting time needs a non-global start well")
    solve_spectra([(ctx.analysis(c), h, cfg.grid_n)
                   for c in cfg.c for h in cfg.h])
    cells = []      # (h, c, lambda_2, config, u(start)) per (h, c)
    for c in cfg.c:
        ana = ctx.analysis(c)
        for h in cfg.h:
            lam2 = float(ana.spectrum(h, cfg.grid_n).eigenvalues[1].real)
            sim = make_config(ana.land, ana.wm, h,
                              start_well=ana.shallow_well,
                              radius=cfg.sde_radius, trials=cfg.sde_trials,
                              seed=cfg.seed)
            # solved before the hitting runs: the heap they leave behind
            # would carry the LU factor past the process's peak
            mfpt = mean_first_passage(sim, ana.operator(h, cfg.grid_n))
            cells.append((h, c, lam2, sim, mfpt))
    runs = simulate(sim for _, _, _, sim, _ in cells)
    rows = []
    for (h, c, lam2, sim, mfpt), run in zip(cells, runs):
        st = hitting_time_stats(sim, run)
        ratio = st.mean * lam2
        rows.append([h, c, st.mean, st.stderr, 1.0 / lam2, ratio, mfpt,
                     (st.mean - mfpt) / st.stderr])
        diagnostics.append({
            "h": h, "c": c, "dt": sim.dt,
            "guard_max_drift": sim.max_drift,
            "guard_level": sim.guard_level,
            "trial_steps": int(np.rint(st.taus / sim.dt).sum()),
            "escapes": st.escapes,
            "predicted_trial_steps": sim.trials * mfpt / sim.dt,
            "shards": run.shards,
        })
        factor = st.mean / mfpt
        if not 0.5 <= factor <= 2.0:
            raise StageFailure(
                "sde: mean hitting time is off the discrete mean "
                f"first-passage time u(start) = {mfpt:.4g} by factor "
                f"{factor:.2f} (allowed [0.5, 2]) at h={_fmt(h)}, "
                f"c={_fmt(c)}")
    _write_csv(cfg.out / "sde_report.csv",
               ["h", "c", "mean_tau", "stderr", "inv_lambda2", "ratio",
                "mfpt_pred", "z"],
               rows)
    return ["sde_report.csv"]


def _stage_graded(ctx: _Context) -> list[str]:
    cfg = ctx.cfg
    report = graded_selftest(measure_instances(cfg.graded_instances,
                                               cfg.seed))
    with open(cfg.out / "graded_selftest.json", "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    _check_graded_report(report)
    return ["graded_selftest.json"]


def _check_graded_report(report: dict) -> None:
    if report["failures"]:
        raise StageFailure(
            f"graded-selftest: {report['failures']} instances failed "
            "cluster localization")
    shrink = report["min_shrink_ratio_h_over_h10"]
    if shrink is not None and shrink < 5.0:
        raise StageFailure(
            "graded-selftest: eigenvalue clusters shrank only "
            f"{shrink:.2f}x when h shrank 10x (need >= 5x)")


_STAGE_FUNCS = {
    "analyze": _stage_analyze,
    "spectrum": _stage_spectrum,
    "quasimode": _stage_quasimode,
    "sde": _stage_sde,
    "graded-selftest": _stage_graded,
}


def _versions() -> dict:
    import scipy

    from . import __version__

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kramers_lab": __version__,
    }


def run(cfg: RunConfig) -> int:
    """Execute the configured stages; returns the process exit code."""
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"config error: out: cannot create {cfg.out}: "
              f"{e.strerror or e}", file=sys.stderr)
        return 2
    ctx = _Context(cfg)
    stage_records = []
    failed = False
    for name in cfg.stages:
        if failed:
            stage_records.append({"stage": name, "status": "skipped",
                                  "message": "earlier stage failed",
                                  "artifacts": [], "wall_s": 0.0})
            continue
        start = time.perf_counter()
        try:
            artifacts = _STAGE_FUNCS[name](ctx)
            record = {"stage": name, "status": "passed", "message": "",
                      "artifacts": artifacts}
        except (StageFailure, DiscretizationError, SdeError, LandscapeError,
                LabellingError, UnsupportedCaseError) as e:
            # a refusal of the landscape, the grid or the SDE run says
            # what is wrong: a stage failure like a violated invariant,
            # not a crash
            msg = str(e) if isinstance(e, StageFailure) else f"{name}: {e}"
            print(f"FAILED {msg}", file=sys.stderr)
            record = {"stage": name, "status": "failed", "message": msg,
                      "artifacts": []}
            failed = True
        except Exception as e:
            msg = f"{name}: {type(e).__name__}: {e}"
            print(f"FAILED {msg}", file=sys.stderr)
            record = {"stage": name, "status": "failed", "message": msg,
                      "artifacts": [],
                      "traceback": traceback.format_exc()}
            failed = True
        record["wall_s"] = time.perf_counter() - start
        stage_records.append(record)

    manifest = {
        "config": {
            "landscape": cfg.landscape,
            "h": list(cfg.h),
            "c": list(cfg.c),
            "grid": {"n": cfg.grid_n},
            "stages": list(cfg.stages),
            "out": str(cfg.out),
            "seed": cfg.seed,
            "sde": {"trials": cfg.sde_trials, "radius": cfg.sde_radius},
            "quasimode": {"export_fields": cfg.quasimode_export},
            "graded": {"instances": cfg.graded_instances},
        },
        "versions": _versions(),
        "seed": cfg.seed,
        "stages": stage_records,
        "diagnostics": ctx.diagnostics,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(cfg.out / "run_manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")

    for rec in stage_records:
        print(f"{rec['stage']}: {rec['status']}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kramers-lab",
        description="Eyring-Kramers spectral asymptotics: prediction and "
                    "validation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON-configured pipeline")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="RNG seed (overrides config)")
    p_run.add_argument("--stages", type=str, default=None,
                       help="comma-separated stage list (overrides config)")

    p_self = sub.add_parser(
        "selftest",
        help="graded-matrix localization self-test; prints a JSON report")
    p_self.add_argument("--instances", type=int, default=200)
    p_self.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "selftest":
        # the bounds parse_config puts on graded.instances and seed
        if args.instances < 1:
            p_self.error("--instances needs at least one instance")
        if args.seed < 0:
            p_self.error("--seed must be non-negative")
        report = graded_selftest(measure_instances(args.instances, args.seed))
        print(json.dumps(report, indent=2))
        try:
            _check_graded_report(report)
        except StageFailure as e:
            print(f"FAILED {e}", file=sys.stderr)
            return 1
        return 0

    overrides = {"out": str(args.out) if args.out is not None else None,
                 "seed": args.seed,
                 "stages": args.stages.split(",") if args.stages else None}
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
