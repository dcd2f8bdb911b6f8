"""Path-simulation tests: hitting-time stats vs the spectral rate."""

import dataclasses
import hashlib
import multiprocessing

import numpy as np
import pytest

import kramers_lab.expr as ex
import kramers_lab.sde as sde
from kramers_lab.discretize import small_spectrum
from kramers_lab.landscape import Landscape
from kramers_lab.sde import (
    SdeError,
    SimulationConfig,
    _drift_table,
    halved_dt,
    hitting_time_stats,
    make_config,
)


def _lambda2(ana, h, n=96):
    res = small_spectrum(ana.operator(h, n), count=4)
    return float(np.real(res.eigenvalues[1]))


# ---------------------------------------------------------------------------
# Configuration and validation

def test_config_rejects_bad_parameters(tilted_c0):
    land, wm = tilted_c0.land, tilted_c0.wm
    guard_ok = make_config(land, wm, 0.2, trials=10)
    assert guard_ok.dt > 0

    with pytest.raises(SdeError, match="guard"):
        make_config(land, wm, 0.2, dt=10 * guard_ok.dt)
    with pytest.raises(SdeError, match="h must"):
        make_config(land, wm, 1.5)
    with pytest.raises(SdeError, match="trial"):
        make_config(land, wm, 0.2, trials=0)
    with pytest.raises(SdeError, match="radius"):
        make_config(land, wm, 0.2, radius=-0.1)
    # noise quantum must divide dt
    with pytest.raises(SdeError, match="quantum"):
        dataclasses.replace(guard_ok, noise_quantum=guard_ok.dt * 0.3)


def test_target_ball_must_stay_below_the_barrier(tilted_c0):
    # the saddle sits at sigma ~ 1.03; a radius-1.5 ball pokes far above it
    with pytest.raises(SdeError, match="shrink the radius"):
        make_config(tilted_c0.land, tilted_c0.wm, 0.2, radius=1.5)


def test_start_well_selection(tilted_c0, triple):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2, trials=10)
    # tilted well: the shallow minimum is the one at x > 0
    assert cfg.start[0] > 0
    assert cfg.target_center[0] < 0

    with pytest.raises(SdeError, match="non-global"):
        make_config(tilted_c0.land, tilted_c0.wm, 0.2,
                    start_well=tilted_c0.wm.global_well)
    # two shallow wells: caller has to pick one
    with pytest.raises(SdeError, match="start_well must be given"):
        make_config(triple.land, triple.wm, 0.2)
    shallow = next(w for w in triple.wm.wells if not w.is_global)
    cfg3 = make_config(triple.land, triple.wm, 0.2, start_well=shallow,
                       trials=10)
    assert np.allclose(cfg3.start, shallow.minimum.point)


def test_drift_table_matches_exact_drift(tilted_c1):
    land = tilted_c1.land
    axis, table = _drift_table(land, 0.2)
    # spot-check table nodes directly against the expressions
    rng = np.random.default_rng(3)
    idx = rng.integers(0, len(axis), size=(200, 2))
    pts = np.column_stack([axis[idx[:, 0]], axis[idx[:, 1]]])
    exact = land.grad_V_at(pts) + land.b_h_at(pts, 0.2)
    assert np.allclose(table[idx[:, 0], idx[:, 1]], exact, atol=1e-12)
    # the default dt is the guard min(h, 1) / (10 max|U_h|) over the table
    cfg = make_config(land, tilted_c1.wm, 0.2, trials=10)
    assert cfg.dt == pytest.approx(
        0.2 / (10.0 * np.sqrt((table**2).sum(axis=2)).max()), rel=1e-14)


@pytest.mark.parametrize("fixture", ["tilted_c0", "tilted_c1"])
def test_drift_table_blocks_match_one_shot_evaluation(fixture, request):
    land = request.getfixturevalue(fixture).land
    axis, table = _drift_table(land, 0.2)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    one_shot = land.grad_V_at(pts) + land.b_h_at(pts, 0.2)
    assert np.array_equal(table, one_shot.reshape(table.shape))


# ---------------------------------------------------------------------------
# Degenerate and deterministic behaviour

def test_start_inside_target_gives_zero_times(tilted_c0):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2, trials=50)
    inside = dataclasses.replace(cfg, start=cfg.target_center.copy())
    st = hitting_time_stats(inside)
    assert st.mean == 0.0
    assert st.stderr == 0.0
    assert np.all(st.taus == 0.0)


# sha256 of the taus bytes of the run below, pinned before the stepping
# kernel is reworked: any refactor must reproduce it bit for bit
GOLDEN_TAUS_SHA256 = (
    "6f2cebb330e11ee2d7643e1c5b90567ad8e46ef1c2fea811f29ac6db9e987ac8")


def test_fixed_seed_is_bit_reproducible(tilted_c0):
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.25, trials=120, seed=7)
    a = hitting_time_stats(cfg)
    b = hitting_time_stats(cfg)
    assert a.mean == b.mean
    assert np.array_equal(a.taus, b.taus)
    assert hashlib.sha256(a.taus.tobytes()).hexdigest() == GOLDEN_TAUS_SHA256

    other = dataclasses.replace(cfg, seed=8)
    assert hitting_time_stats(other).mean != a.mean


def _reflecting_box() -> SimulationConfig:
    # a box just wider than the wells: paths reflect off the walls often,
    # before and after they reach the target
    zero = ex.constant(0.0)
    land = Landscape(dimension=2, V=ex.parse("(x^2-1)^2 + y^2", 2),
                     b=(zero, zero), nu=(zero, zero), halfwidth=1.3)
    return SimulationConfig(land=land, h=0.5, dt=1e-2, trials=40, seed=3,
                            start=np.array([1.0, 0.0]),
                            target_center=np.array([-1.0, 0.0]),
                            target_radius=0.3)


def test_escapes_count_only_paths_still_in_flight():
    # With chunk=1 no path takes a step past its hitting time, so both runs
    # must agree on every count.
    cfg = _reflecting_box()
    batched = hitting_time_stats(cfg)
    stepwise = hitting_time_stats(cfg, chunk=1)
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
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2, trials=10)
    assert cfg.substeps == 2
    half = halved_dt(cfg)
    assert half.dt == cfg.dt / 2
    assert half.noise_quantum == pytest.approx(cfg.dt / 2)
    assert half.substeps == 1
    # a second halving re-bases the quantum instead of failing
    quarter = halved_dt(half)
    assert quarter.substeps == 1


@pytest.mark.parametrize("case", ["reflecting-box", "golden"])
def test_shards_are_bit_identical(case, tilted_c0, monkeypatch):
    if case == "golden":
        cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.25, trials=120,
                          seed=7)
    else:
        cfg = _reflecting_box()
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)
    whole = hitting_time_stats(cfg)
    # three shards: uneven sizes for 40 trials, and more workers than the
    # two CPUs of a small host
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 3)
    sharded = hitting_time_stats(cfg)
    assert multiprocessing.active_children() == []
    assert np.array_equal(sharded.taus, whole.taus)
    assert sharded.escapes == whole.escapes
    assert sharded.mean == whole.mean


def test_max_time_cap_raises(tilted_c0, monkeypatch):
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    cfg = make_config(tilted_c0.land, tilted_c0.wm, 0.2, trials=4,
                      max_time=0.05)
    with pytest.raises(SdeError, match=r"^4 of 4 trials .* max_time = 0\.05"):
        hitting_time_stats(cfg)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Physics: rates, trends, step-size audit

def test_mean_time_matches_spectral_rate(sde_tilted, tilted_c0, tilted_c1):
    for tag, ana in (("c0", tilted_c0), ("c1", tilted_c1)):
        cfg, st = sde_tilted[tag]
        lam2 = _lambda2(ana, 0.2)
        assert 0.5 / lam2 <= st.mean <= 2.0 / lam2, (tag, st.mean, 1 / lam2)
        assert st.escapes == 0
        assert st.stderr < 0.05 * st.mean


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
