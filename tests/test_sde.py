"""Path-simulation tests: hitting-time stats vs the spectral rate."""

import dataclasses
import gc
import hashlib
import multiprocessing

import numpy as np
import pytest

import kramers_lab.expr as ex
import kramers_lab.forked as forked
import kramers_lab.sde as sde
from kramers_lab.discretize import small_spectrum
from kramers_lab.forked import WorkerError
from kramers_lab.landscape import Landscape
from kramers_lab.sde import (
    SdeError,
    SimulationConfig,
    _drift_table,
    halved_dt,
    hitting_time_stats,
    make_config,
    mean_first_passage,
    simulate,
)


def _lambda2(ana, h, n=96):
    res = small_spectrum(ana.operator(h, n), count=4)
    return float(np.real(res.eigenvalues[1]))


def _stats(cfg):
    return hitting_time_stats(cfg, simulate([cfg])[0])


def _table_nodes(land):
    axis = np.linspace(-land.halfwidth, land.halfwidth, sde._TABLE_N)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


# ---------------------------------------------------------------------------
# Configuration and validation

def test_config_rejects_bad_parameters(tilted_c0):
    land, wm = tilted_c0.land, tilted_c0.wm
    start = tilted_c0.shallow_well
    guard_ok = make_config(land, wm, 0.2, start_well=start, trials=10)
    assert guard_ok.dt > 0

    with pytest.raises(SdeError, match="guard"):
        make_config(land, wm, 0.2, start_well=start, dt=10 * guard_ok.dt)
    with pytest.raises(SdeError, match="h must"):
        make_config(land, wm, 1.5, start_well=start)
    with pytest.raises(SdeError, match="trial"):
        make_config(land, wm, 0.2, start_well=start, trials=0)
    # one trial leaves the standard error undefined (ddof = 1)
    with pytest.raises(SdeError, match="two trials"):
        make_config(land, wm, 0.2, start_well=start, trials=1)
    with pytest.raises(SdeError, match="radius"):
        make_config(land, wm, 0.2, start_well=start, radius=-0.1)
    # a step sums a whole number of draws, at least one
    for substeps in (0, 1.5):
        with pytest.raises(SdeError, match="substeps"):
            dataclasses.replace(guard_ok, substeps=substeps)


def test_config_enforces_the_dt_guard_on_construction():
    # built directly, without make_config: the config itself refuses
    cfg = _reflecting_box()
    assert cfg.dt == 1e-2
    for dt in (10 * cfg.dt, 0.0, -cfg.dt):
        with pytest.raises(SdeError, match=r"guard min\(h,1\)"):
            dataclasses.replace(cfg, dt=dt)
    guard = dataclasses.replace(cfg, dt=None).dt
    assert cfg.dt < guard
    assert dataclasses.replace(cfg, dt=guard).dt == guard


def test_target_ball_must_stay_below_the_barrier(tilted_c0):
    # the saddle sits at sigma ~ 1.03; a radius-1.5 ball pokes far above it
    with pytest.raises(SdeError, match="shrink the radius"):
        make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                    start_well=tilted_c0.shallow_well, radius=1.5)


def test_start_well_selection(tilted_c0, triple):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                      start_well=tilted_c0.shallow_well, trials=10)
    # tilted well: the shallow minimum is the one at x > 0
    assert cfg.start[0] > 0
    assert cfg.target_center[0] < 0

    with pytest.raises(SdeError, match="non-global"):
        make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                    start_well=tilted_c0.wm.global_well)
    # two shallow wells: the run starts from the one it is given
    shallow = next(w for w in triple.wm.wells if not w.is_global)
    cfg3 = make_config(triple.land, triple.wm, 0.2, start_well=shallow,
                       trials=10)
    assert np.allclose(cfg3.start, shallow.minimum.point)


def test_drift_table_matches_exact_drift(tilted_c1):
    land = tilted_c1.land
    table = _drift_table(land, 0.2, 1.0)
    nodes = _table_nodes(land)
    # spot-check table nodes directly against the expressions
    rng = np.random.default_rng(3)
    idx = rng.integers(0, len(nodes), size=200)
    exact = land.grad_V_at(nodes[idx]) + land.b_h_at(nodes[idx], 0.2)
    assert np.allclose(table[:, idx].T, exact, atol=1e-12)
    # the default dt is the guard min(h, 1) / (10 max|U_h|), the max taken
    # over the table nodes with V <= sigma + 1, here from a one-shot V
    start = tilted_c1.shallow_well
    cfg = make_config(land, tilted_c1.wm, 0.2, start_well=start, trials=10)
    V = land.V_at(nodes)
    speed = np.sqrt((table**2).sum(axis=0))
    region = speed[V <= start.sigma + 1.0].max()
    assert cfg.dt == 0.2 / (10.0 * region)
    # the region excludes the box corners, where |U_h| is largest
    assert speed.max() > 2.0 * region


@pytest.mark.parametrize("fixture", ["tilted_c0", "tilted_c1"])
def test_drift_table_blocks_match_one_shot_evaluation(fixture, request):
    land = request.getfixturevalue(fixture).land
    dt = 1.7e-3
    table = _drift_table(land, 0.2, dt)
    pts = _table_nodes(land)
    one_shot = land.grad_V_at(pts) + land.b_h_at(pts, 0.2)
    assert np.array_equal(table, (one_shot * dt).T)


def test_a_config_holds_no_drift_table(tilted_c0, monkeypatch):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.25,
                      start_well=tilted_c0.shallow_well, trials=12, seed=7)
    held = [*vars(cfg).values(), *cfg.guard]
    assert max(v.size for v in held if isinstance(v, np.ndarray)) == 2
    # the shard builds its own table, dt-scaled: _drift_table's
    built = []

    def spy(*args):
        built.append(args)
        return _drift_table(*args)

    monkeypatch.setattr(sde, "_drift_table", spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    simulate([cfg])
    assert built == [(cfg.land, cfg.h, cfg.dt)]


# ---------------------------------------------------------------------------
# The discrete mean first-passage time

@pytest.mark.parametrize("fixture", ["tilted_c0", "tilted_c1"])
def test_mean_first_passage_converges_in_the_grid(fixture, request):
    ana = request.getfixturevalue(fixture)
    cfg = make_config(ana.land, ana.wm, 0.2, start_well=ana.shallow_well,
                      trials=10)
    coarse = mean_first_passage(cfg, ana.operator(0.2, 96))
    fine = mean_first_passage(cfg, ana.operator(0.2, 192))
    assert coarse == pytest.approx(fine, rel=5e-3)


def test_mean_first_passage_refusals(tilted_c0):
    ana = tilted_c0
    cfg = make_config(ana.land, ana.wm, 0.2, start_well=ana.shallow_well,
                      trials=10)
    with pytest.raises(SdeError, match="h = 0.25"):
        mean_first_passage(cfg, ana.operator(0.25, 96))
    # a ball narrower than half the 96^2 spacing (0.042) around the
    # off-node minimum holds no node
    tiny = dataclasses.replace(cfg, target_radius=0.01)
    with pytest.raises(SdeError, match="holds no node"):
        mean_first_passage(tiny, ana.operator(0.2, 96))


# ---------------------------------------------------------------------------
# Degenerate and deterministic behaviour

def test_start_inside_target_gives_zero_times(tilted_c0):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                      start_well=tilted_c0.shallow_well, trials=50)
    inside = dataclasses.replace(cfg, start=cfg.target_center.copy())
    st = _stats(inside)
    assert st.mean == 0.0
    assert st.stderr == 0.0
    assert np.all(st.taus == 0.0)


# sha256 of the taus bytes of the run below: any refactor of the stepping
# kernel must reproduce it bit for bit
GOLDEN_TAUS_SHA256 = (
    "bce5025b51bebc66b576aa4b23a3659cb6d0322b29cc24f344f30bf9a0f5263e")
# the same run at the earlier box-wide guard min(h,1)/(10 max|U_h|), the
# max over every table node, pinned before the kernel was reworked
BOX_GUARD_TAUS_SHA256 = (
    "6f2cebb330e11ee2d7643e1c5b90567ad8e46ef1c2fea811f29ac6db9e987ac8")


def test_fixed_seed_is_bit_reproducible(tilted_c0):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.25,
                      start_well=tilted_c0.shallow_well, trials=120, seed=7)
    a = _stats(cfg)
    b = _stats(cfg)
    assert a.mean == b.mean
    assert np.array_equal(a.taus, b.taus)
    assert hashlib.sha256(a.taus.tobytes()).hexdigest() == GOLDEN_TAUS_SHA256

    other = dataclasses.replace(cfg, seed=8)
    assert _stats(other).mean != a.mean


def test_box_guard_step_reproduces_the_earlier_golden_run(tilted_c0):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.25,
                      start_well=tilted_c0.shallow_well, trials=120, seed=7)
    U = _drift_table(cfg.land, cfg.h, 1.0)
    box = 0.25 / (10.0 * np.sqrt((U**2).sum(axis=0)).max())
    assert box < cfg.dt / 2
    st = _stats(dataclasses.replace(cfg, dt=box))
    assert hashlib.sha256(st.taus.tobytes()).hexdigest() \
        == BOX_GUARD_TAUS_SHA256


def test_derived_configs_reuse_the_drift_table(tilted_c0, monkeypatch):
    # the config keeps the guard's max|U_h| over the table, not the table
    builds = []
    peak = sde._guard_peak

    def counted(*args):
        builds.append(args)
        return peak(*args)

    monkeypatch.setattr(sde, "_guard_peak", counted)
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                      start_well=tilted_c0.shallow_well, trials=10)
    half = halved_dt(cfg)
    reseeded = dataclasses.replace(cfg, seed=5)
    assert len(builds) == 1
    assert half.guard is reseeded.guard is cfg.guard
    # a different h or sigma needs a guard of its own
    other_h = dataclasses.replace(cfg, h=0.25, dt=None)
    other_sigma = dataclasses.replace(cfg, sigma=cfg.sigma + 0.5, dt=None)
    assert len(builds) == 3
    assert other_h.guard.h == 0.25
    assert other_sigma.guard.level == pytest.approx(cfg.guard.level + 0.5)


def _reflecting_box() -> SimulationConfig:
    # a box just wider than the wells: paths reflect off the walls often,
    # before and after they reach the target
    zero = ex.constant(0.0)
    land = Landscape(V=ex.parse("(x^2-1)^2 + y^2", 2),
                     b=(zero, zero), nu=(zero, zero), halfwidth=1.3)
    return SimulationConfig(land=land, h=0.5, dt=1e-2, trials=40, seed=3,
                            start=np.array([1.0, 0.0]),
                            target_center=np.array([-1.0, 0.0]),
                            target_radius=0.3, sigma=1.0)


def test_escapes_count_only_paths_still_in_flight(monkeypatch):
    # With one-step chunks no path takes a step past its hitting time, so
    # both runs must agree on every count.
    # One-step chunks are also shorter than a target-test block.
    cfg = _reflecting_box()
    batched = _stats(cfg)
    monkeypatch.setattr(sde, "_CHUNK", 1)
    stepwise = _stats(cfg)
    assert np.array_equal(batched.taus, stepwise.taus)
    assert batched.escapes > 0
    assert batched.escapes == stepwise.escapes


@pytest.mark.parametrize("sub", [1, 2, 3, 5, 12])
def test_draw_sums_match_numpy_sum(sub):
    # the reference is the sum the stepping kernel used before _draw
    ref = np.random.default_rng([4, 2]).standard_normal((64, sub, 2))
    out = np.empty((64, 2))
    sde._draw(np.random.default_rng([4, 2]), np.empty((64, sub, 2)), out)
    assert np.array_equal(out, ref.sum(axis=1))


def test_halved_dt_shares_the_quantum(tilted_c0):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                      start_well=tilted_c0.shallow_well, trials=10)
    assert cfg.substeps == 2
    half = halved_dt(cfg)
    assert half.dt == cfg.dt / 2
    assert half.dt / half.substeps == cfg.dt / cfg.substeps
    assert half.substeps == 1
    # a second halving re-bases the quantum instead of failing
    quarter = halved_dt(half)
    assert quarter.substeps == 1
    # an even count halves; an odd one cannot be split between half steps
    four = dataclasses.replace(cfg, substeps=4)
    assert halved_dt(four).substeps == 2
    with pytest.raises(SdeError, match="odd"):
        halved_dt(dataclasses.replace(cfg, substeps=3))


@pytest.mark.parametrize("case", ["reflecting-box", "golden"])
def test_shards_are_bit_identical(case, tilted_c0, monkeypatch):
    if case == "golden":
        cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.25,
                          start_well=tilted_c0.shallow_well, trials=120,
                          seed=7)
    else:
        cfg = _reflecting_box()
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    whole = _stats(cfg)
    # three shards: uneven sizes for 40 trials, and more workers than the
    # two CPUs of a small host
    monkeypatch.setattr(forked, "usable_cpus", lambda: 3)
    sharded = _stats(cfg)
    assert multiprocessing.active_children() == []
    assert np.array_equal(sharded.taus, whole.taus)
    assert sharded.escapes == whole.escapes
    assert sharded.mean == whole.mean


@pytest.mark.parametrize("cells", [2, 3])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_simulate_matches_one_config_runs(cpus, cells, monkeypatch):
    # mixed dt (a config and its dt-halved twin), paths that reflect off
    # the walls, and more configs than CPUs, as many, or fewer
    box = _reflecting_box()
    cfgs = [box, halved_dt(box), dataclasses.replace(box, seed=4)][:cells]
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    alone = [simulate([cfg])[0] for cfg in cfgs]
    assert all(run.escapes > 0 for run in alone)
    monkeypatch.setattr(forked, "usable_cpus", lambda: cpus)
    together = simulate(cfgs)
    assert multiprocessing.active_children() == []
    for run, ref in zip(together, alone):
        assert np.array_equal(run.taus, ref.taus)
        assert run.escapes == ref.escapes
        assert run.shards == max(1, cpus // cells)


def test_simulate_fans_out_one_job_per_cell(monkeypatch):
    jobs = []
    starmap = forked.starmap

    def spy(fn, arglists):
        jobs.extend(arglists)
        return starmap(fn, jobs)

    monkeypatch.setattr(forked, "starmap", spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    box = _reflecting_box()
    cfgs = [box, halved_dt(box)]
    simulate(cfgs)
    # a config per CPU: one shard each, with the one-shard tail switch
    assert [(trials, switch) for _, trials, switch in jobs] == [
        (range(0, 40), 24)] * 2
    assert all(job[0] is cfg for job, cfg in zip(jobs, cfgs))


@pytest.mark.parametrize("case", ["reflecting-box", "golden"])
def test_path_does_not_depend_on_the_phase_that_steps_it(case, tilted_c0,
                                                        monkeypatch):
    if case == "golden":
        cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.25,
                          start_well=tilted_c0.shallow_well, trials=120,
                          seed=7)
    else:
        cfg = _reflecting_box()
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    mixed = _stats(cfg)
    trials = range(cfg.trials)
    # switch 0: every trial stays in the batch; switch = all: every trial
    # is stepped by the scalar tail from its first step
    batch = sde._run_shard(cfg, trials, 0)
    tail = sde._run_shard(cfg, trials, len(trials))
    assert np.array_equal(batch[0], tail[0])
    assert np.array_equal(batch[0], mixed.taus)
    assert batch[1] == tail[1] == mixed.escapes


def test_max_time_cap_raises(tilted_c0, monkeypatch):
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                      start_well=tilted_c0.shallow_well, trials=4,
                      max_time=0.05)
    # no trial hits within 0.05 (25 steps of 1.9e-3); one hits at 0.90,
    # inside the first 512-step chunk, and still counts as unfinished
    for chunk in (16, 512):
        monkeypatch.setattr(sde, "_CHUNK", chunk)
        with pytest.raises(SdeError,
                           match=r"^4 of 4 trials .* max_time = 0\.05"):
            _stats(cfg)
    assert multiprocessing.active_children() == []


def test_failing_shard_raises_with_its_traceback(tilted_c0, monkeypatch):
    def planted_draw(*args):
        raise RuntimeError("planted")

    # patched before the shards fork, so their _run_shard calls it
    monkeypatch.setattr(sde, "_draw", planted_draw)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                      start_well=tilted_c0.shallow_well, trials=4)
    with pytest.raises(WorkerError, match="^RuntimeError: planted$") as info:
        simulate([cfg])
    cause = str(info.value.__cause__)
    assert "in _run_shard" in cause
    assert "in planted_draw" in cause
    assert multiprocessing.active_children() == []
    assert gc.get_freeze_count() == 0


# ---------------------------------------------------------------------------
# Physics: rates, trends, step-size audit

def test_mean_time_matches_spectral_rate(sde_tilted, tilted_c0, tilted_c1):
    for tag, ana in (("c0", tilted_c0), ("c1", tilted_c1)):
        cfg, st = sde_tilted[tag]
        lam2 = _lambda2(ana, 0.2)
        assert 0.5 / lam2 <= st.mean <= 2.0 / lam2, (tag, st.mean, 1 / lam2)
        assert st.escapes == 0
        assert st.stderr < 0.05 * st.mean


def test_mean_time_matches_the_mean_first_passage_time(sde_tilted,
                                                       tilted_c0, tilted_c1):
    for tag, ana in (("c0", tilted_c0), ("c1", tilted_c1)):
        cfg, st = sde_tilted[tag]
        u = mean_first_passage(cfg, ana.operator(0.2, 96))
        assert abs(st.mean - u) <= 4.0 * st.stderr, (tag, st.mean, u)


def test_dt_halving_shifts_mean_by_less_than_a_stderr(sde_tilted):
    for tag in ("c0", "c1"):
        _, coarse = sde_tilted[tag]
        _, fine = sde_tilted[tag + "_half"]
        assert abs(coarse.mean - fine.mean) < coarse.stderr
        # the shared Brownian path keeps individual trials glued too
        assert np.median(np.abs(coarse.taus - fine.taus)) < 0.01 * coarse.mean


def test_slower_at_smaller_h(sde_arrhenius):
    lo, hi = sde_arrhenius[0.15], sde_arrhenius[0.25]
    z = (lo.mean - hi.mean) / np.hypot(lo.stderr, hi.stderr)
    assert lo.mean > hi.mean
    assert z > 5.0


def test_nonreversible_speedup_tracks_mu_ratio(sde_tilted, tilted_c0,
                                               tilted_c1):
    _, st0 = sde_tilted["c0"]
    _, st1 = sde_tilted["c1"]
    sad0 = tilted_c0.data[id(tilted_c0.shallow_well.saddles[0])]
    sad1 = tilted_c1.data[id(tilted_c1.shallow_well.saddles[0])]
    mu_ratio = sad1.abs_mu / sad0.abs_mu
    assert mu_ratio > 1.2  # the rotation genuinely speeds this landscape up
    assert st0.mean / st1.mean == pytest.approx(mu_ratio, rel=0.15)
