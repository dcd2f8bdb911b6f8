"""Monte-Carlo first-hitting validation of the spectral rates.

Euler-Maruyama for dX = -U_h(X) dt + sqrt(2h) dB with the full drift
U_h = grad V + b + h nu, reflected at the box walls.  Mean hitting times
of a small ball around the global minimum are compared against 1/lambda_2
from the discretized generator and against the discrete mean first-passage
time u(start), the solution of L u = 1 off the ball (mean_first_passage).

The step defaults to the guard min(h, 1) / (10 max|U_h|), the max taken
over {V <= sigma + 1} with sigma the start well's saddle height: the
region the paths sample, where |U_h| is about 2.4 times smaller than at
the box corners on the tilted well.

Each trial consumes its own counter-seeded stream, so results are
bit-reproducible for a fixed configuration.  A step of size dt sums
``substeps`` standard draws (default 2), each the increment over one
quantum dt/substeps.  A run at half the step size summing half as many
draws per step therefore consumes the *same* Brownian path, and the
dt-halving audit (halved_dt) measures genuine discretization bias
instead of resampling noise.

The drift is evaluated by bilinear interpolation from a dense
precomputed table (the expression trees are far too slow to walk once
per time step), built once per config and kept by the configs derived
from it with dataclasses.replace.  Paths are stepped in one
vectorized batch while many trials are still running and finished off
one by one in a scalar loop, which is what makes the exponential tail of
the hitting-time distribution affordable.

The trials are split into interleaved shards (trial i in shard i mod W),
one per usable CPU and at most one per trial, each with its own batch
and tail, run through ``forked.starmap``.  A shard is handed the
SimulationConfig itself (a forked shard inherits it, drift table
included) and derives its step constants from it.  A shard switches to
the scalar tail at ceil(24 / W) trials in flight, so the tail work summed
over shards matches a single batch's.  Since every trial has its own
stream and both phases share one arithmetic, the results are
bit-identical for any W.  A trial that has not hit by max_time is
unfinished, whatever the number of steps a shard draws at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import forked
from .discretize import OperatorMatrix, solve_dirichlet
from .labelling import LabelledWell, WellMap
from .landscape import Landscape


class SdeError(ValueError):
    pass


_TABLE_N = 513
_TABLE_ROWS = 32
_TAIL_SWITCH = 24
# steps drawn and stepped at a time: a shard checks max_time between chunks
_CHUNK = 512
# the dt guard reads max|U_h| over {V <= sigma + _GUARD_MARGIN}, the region
# the paths sample; the box corners above it are where |U_h| peaks
_GUARD_MARGIN = 1.0


class _DriftTable(NamedTuple):
    """U_h at the table nodes and the guard's peak, with the land, h and
    level they were built for."""

    land: Landscape
    h: float
    level: float
    axis: np.ndarray
    U: np.ndarray           # (x node, y node, x/y)
    peak: float             # max |U_h| over the nodes with V <= level


def _drift_table(land: Landscape, h: float, level: float) -> _DriftTable:
    L = land.halfwidth
    axis = np.linspace(-L, L, _TABLE_N)
    U = np.empty((_TABLE_N, _TABLE_N, 2))
    peak = 0.0
    # a block of rows at a time: the expression temporaries for all table
    # nodes at once would set the process's peak memory
    for i in range(0, _TABLE_N, _TABLE_ROWS):
        xx, yy = np.meshgrid(axis[i:i + _TABLE_ROWS], axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        block = land.grad_V_at(pts) + land.b_h_at(pts, h)
        U[i:i + _TABLE_ROWS] = block.reshape(-1, _TABLE_N, 2)
        speed = np.sqrt((block**2).sum(axis=1))[land.V_at(pts) <= level]
        peak = max(peak, float(speed.max(initial=0.0)))
    return _DriftTable(land, h, level, axis, U, peak)


@dataclass(frozen=True)
class SimulationConfig:
    """Euler-Maruyama run description, checked on construction.

    ``dt`` defaults to the guard min(h, 1) / (10 max|U_h|), with max|U_h|
    read off the drift table over the nodes with V <= sigma + 1, sigma
    being the start well's saddle height; a dt outside (0, guard] is
    refused.  Each step sums ``substeps`` standard draws.  ``drift`` is
    the table, built here; a config derived with dataclasses.replace
    keeps its source's while land, h and sigma are unchanged.
    make_config adds the checks that need the well map.
    """

    land: Landscape
    h: float
    trials: int
    seed: int
    start: np.ndarray
    target_center: np.ndarray
    target_radius: float
    sigma: float
    dt: float | None = None
    max_time: float = 10_000.0
    substeps: int = 2
    drift: _DriftTable | None = field(default=None, repr=False,
                                      compare=False)

    def __post_init__(self):
        if not 0.0 < self.h <= 1.0:
            raise SdeError(f"h must lie in (0, 1], got {self.h}")
        if self.trials < 2:
            raise SdeError("at least two trials are required for a "
                           "standard error")
        if self.target_radius <= 0.0:
            raise SdeError("target radius must be positive")
        if not (isinstance(self.substeps, int) and self.substeps >= 1):
            raise SdeError("substeps must be an integer of at least 1, got "
                           f"{self.substeps!r}")
        level = self.sigma + _GUARD_MARGIN
        d = self.drift
        if d is None or d.land is not self.land or (d.h, d.level) != (
                self.h, level):
            d = _drift_table(self.land, self.h, level)
            object.__setattr__(self, "drift", d)
        guard = min(self.h, 1.0) / (10.0 * d.peak)
        dt = guard if self.dt is None else float(self.dt)
        if not 0.0 < dt <= guard:
            raise SdeError(
                f"dt = {dt:.3e} must lie in (0, {guard:.3e}], the guard "
                f"min(h,1)/(10 max|U_h|) over V <= sigma + {_GUARD_MARGIN:g} "
                f"= {level:.4g}"
            )
        object.__setattr__(self, "dt", dt)


def halved_dt(cfg: SimulationConfig) -> SimulationConfig:
    """cfg with dt/2 driven by the same Brownian path as cfg.

    The returned config sums half as many draws per step, so both runs
    sum the same underlying draws and the difference of their mean
    hitting times isolates the time-discretization bias.  A draw cannot
    be split: a one-draw step re-bases, keeping one draw, so its half
    shares no path with it; an odd ``substeps`` above 1 is refused.
    """
    if cfg.substeps > 1 and cfg.substeps % 2:
        raise SdeError(f"substeps = {cfg.substeps} is odd: its draws cannot "
                       "be split between two half steps")
    return replace(cfg, dt=cfg.dt / 2.0, substeps=max(cfg.substeps // 2, 1))


def make_config(
    land: Landscape,
    wm: WellMap,
    h: float,
    *,
    start_well: LabelledWell,
    radius: float = 0.3,
    dt: float | None = None,
    trials: int = 2000,
    seed: int = 0,
    max_time: float = 10_000.0,
) -> SimulationConfig:
    """Config for the hitting run m -> ball(global minimum, radius).

    ``start_well`` is a non-global well of ``wm`` (the CLI passes
    ``Analysis.shallow_well``).  The closed target ball must sit inside
    {V < sigma(start well)}; being connected and containing the global
    minimum it then automatically lies in the right sublevel component.
    dt and the remaining checks are SimulationConfig's.
    """
    if start_well.is_global:
        raise SdeError("the start well must be a non-global minimum")

    center = wm.global_well.minimum.point
    rr = np.linspace(0.0, radius, 33)
    th = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    ball = center + np.stack(
        [np.outer(rr, np.cos(th)).ravel(), np.outer(rr, np.sin(th)).ravel()],
        axis=1,
    )
    vmax = float(land.V_at(ball).max())
    if vmax >= start_well.sigma:
        raise SdeError(
            f"target ball of radius {radius} reaches V = {vmax:.4f} >= "
            f"sigma = {start_well.sigma:.4f}; shrink the radius"
        )
    return SimulationConfig(land=land, h=h, dt=dt, trials=trials,
                            seed=seed, start=start_well.minimum.point.copy(),
                            target_center=center.copy(),
                            target_radius=float(radius),
                            sigma=start_well.sigma, max_time=max_time)


def mean_first_passage(cfg: SimulationConfig, op: OperatorMatrix) -> float:
    """The discrete mean first-passage time from cfg.start into the target.

    u solves L u = 1 off the target's grid nodes and the walls with u = 0
    on them (discretize.solve_dirichlet on ``op``, the generator at
    cfg.h) and is read at cfg.start by bilinear interpolation.  The walls
    absorb where the paths reflect, which is exponentially small while V
    at the walls lies far above sigma.
    """
    if op.h != cfg.h:
        raise SdeError(f"the generator is at h = {op.h}, the run at "
                       f"h = {cfg.h}")
    grid = op.grid
    target = (((grid.points() - cfg.target_center) ** 2).sum(axis=1)
              <= cfg.target_radius**2)
    if not target.any():
        raise SdeError(
            f"the target ball of radius {cfg.target_radius} holds no node "
            f"of the {grid.n}^2 grid; refine the grid or widen the radius")
    u = solve_dirichlet(op, target, np.ones(grid.size)).reshape(grid.n,
                                                                 grid.n)
    f = (cfg.start + grid.halfwidth) / grid.spacing
    i, j = np.minimum(f.astype(int), grid.n - 2)
    tx, ty = f - (i, j)
    lo = u[i, j] + ty * (u[i, j + 1] - u[i, j])
    hi = u[i + 1, j] + ty * (u[i + 1, j + 1] - u[i + 1, j])
    return float(lo + tx * (hi - lo))


@dataclass(frozen=True)
class HittingStats:
    mean: float
    stderr: float
    trials: int
    escapes: int
    taus: np.ndarray = field(repr=False)


def hitting_time_stats(cfg: SimulationConfig) -> HittingStats:
    """First hitting times of the target ball over all trials.

    Trial i goes to shard i mod W, where W is the number of usable CPUs
    capped at cfg.trials; the shards run through forked.starmap.  A shard
    switches to the scalar tail once at most ceil(_TAIL_SWITCH / W) of
    its trials are still in flight, so the tail work summed over shards
    stays where one shard would put it.  Every trial draws from its own
    stream, so taus and escapes do not depend on W.  A trial whose tau
    is not <= cfg.max_time is unfinished; SdeError reports how many
    there are over all shards.
    """
    if float(((cfg.start - cfg.target_center) ** 2).sum()) \
            <= cfg.target_radius**2:
        return HittingStats(mean=0.0, stderr=0.0, trials=cfg.trials,
                            escapes=0, taus=np.zeros(cfg.trials))

    workers = min(forked.usable_cpus(), cfg.trials)
    shards = [range(w, cfg.trials, workers) for w in range(workers)]
    switch = -(-_TAIL_SWITCH // workers)
    results = forked.starmap(_run_shard,
                             ((cfg, shard, switch) for shard in shards))

    taus = np.empty(cfg.trials)
    escapes = 0
    for shard, (shard_taus, shard_escapes) in zip(shards, results):
        taus[shard.start::shard.step] = shard_taus
        escapes += shard_escapes
    unfinished = int(np.count_nonzero(~(taus <= cfg.max_time)))
    if unfinished:
        raise SdeError(
            f"{unfinished} of {cfg.trials} trials did not hit the target "
            f"within max_time = {cfg.max_time}"
        )
    mean = float(taus.mean())
    stderr = float(taus.std(ddof=1) / math.sqrt(cfg.trials))
    return HittingStats(mean=mean, stderr=stderr, trials=cfg.trials,
                        escapes=escapes, taus=taus)


def _draw(g: np.random.Generator, draws: np.ndarray, out: np.ndarray) -> None:
    """Fill out (chunk, 2) with the next chunk of g's per-step draw sums.

    Summed one draw index at a time, which is the order np.sum takes over
    this axis, at a fraction of its cost for two or three terms.
    """
    g.standard_normal(out=draws)
    np.copyto(out, draws[:, 0])
    for s in range(1, draws.shape[1]):
        out += draws[:, s]


def _run_shard(cfg: SimulationConfig, trials: range,
               switch: int) -> tuple[np.ndarray, int]:
    """Step the given trials of cfg to the target: (taus, escapes).

    Everything the walk needs is read off cfg: dt, h, substeps, seed,
    start, target, box, max_time and the drift table, which is scaled by
    dt here.  Steps are drawn _CHUNK at a time, and stepping stops at the
    first chunk boundary past cfg.max_time; a trial still in flight there
    keeps tau = nan, and one that hit past max_time keeps its tau, which
    hitting_time_stats counts as unfinished too.  Escapes count the wall
    reflections of paths still in flight.
    """
    axis = cfg.drift.axis
    n = len(axis)
    # dt * U_h as (x/y, node), written straight into its final layout
    table = np.empty((2, n * n))
    np.multiply(cfg.drift.U.reshape(n * n, 2).T, cfg.dt, out=table)
    # Python floats, not numpy scalars: the scalar tail does all its
    # arithmetic with them, and numpy scalar math is slower per operation
    a0 = float(axis[0])
    inv = float((n - 1) / (axis[-1] - axis[0]))
    L = float(cfg.land.halfwidth)
    r2 = float(cfg.target_radius**2)
    dt = float(cfg.dt)
    scale = math.sqrt(2.0 * cfg.h * cfg.dt / cfg.substeps)
    max_steps = int(cfg.max_time / cfg.dt)
    chunk = _CHUNK
    gens = [np.random.default_rng([cfg.seed, i]) for i in trials]
    taus = np.full(len(gens), np.nan)
    active = np.arange(len(gens))
    X = np.tile(cfg.start.astype(float)[:, None], (1, len(gens)))
    draws = np.empty((chunk, cfg.substeps, 2))
    # (ix, iy, 1) -> flat indices of the corners u00, u10, u01, u11
    corners = np.array([[n, 1, 0], [n, 1, n], [n, 1, 1], [n, 1, n + 1]])
    centre = cfg.target_center.astype(float)[:, None]
    escapes = 0
    step = 0

    # Phase 1: one batch while enough trials are still in flight.  Arrays
    # are (x/y, row), so every ufunc runs one contiguous loop over the rows,
    # and each step writes into buffers made once per chunk.  The
    # arithmetic is that of the scalar tail below, so a trial's path does
    # not depend on which phase steps it.
    while active.size > switch:
        if step > max_steps:
            return taus, escapes
        rows = active.size
        noise = np.empty((rows, chunk, 2))
        for j, i in enumerate(active):
            _draw(gens[i], draws, noise[j])
        noise *= scale
        noise_k = noise.transpose(1, 2, 0)
        P = X[:, active]
        alive = np.ones(rows, dtype=bool)
        reach = np.full(rows, r2)   # -1 once a row has hit: no second hit
        f = np.empty((2, rows))
        f_all, (f0, f1) = f.reshape(-1), f
        t = np.empty((2, rows))
        tx, ty = t
        idx = np.ones((3, rows), dtype=np.intp)
        cell = idx[:2]
        flat_idx = np.empty((4, rows), dtype=np.intp)
        u = np.empty((2, 4, rows))
        lo, hi = u[:, :2], u[:, 2:]
        ab = np.empty((2, 2, rows))
        ua, ub = ab[:, 0], ab[:, 1]
        drift = np.empty((2, rows))
        d2 = np.empty(rows)
        hit = np.empty(rows, dtype=bool)
        for k in range(chunk):
            step += 1
            np.subtract(P, a0, out=f)
            f *= inv
            np.copyto(cell, f, casting="unsafe")   # truncates, as int() does
            np.minimum(cell, n - 2, out=cell)
            np.subtract(f, cell, out=t)
            # x/y by corner by row in one gather (the indices are in range;
            # mode="clip" only spares take a buffered copy), then the
            # bilinear weights: ty for (ua, ub), then tx between them
            np.matmul(corners, idx, out=flat_idx)
            table.take(flat_idx, axis=1, out=u, mode="clip")
            np.subtract(hi, lo, out=ab)
            ab *= ty
            ab += lo
            np.subtract(ub, ua, out=drift)
            drift *= tx
            drift += ua
            np.subtract(noise_k[k], drift, out=drift)
            P += drift
            np.abs(P, out=f)
            # argmax finds the largest entry and the first True below for a
            # fraction of the cost of max() and any()
            if f_all[f_all.argmax()] > L:
                out = f > L
                # rows that already hit keep stepping to the chunk's end;
                # only reflections of paths still in flight count
                escapes += int((out & alive).sum())
                P = np.where(out, np.copysign(2.0 * L, P) - P, P)
            np.subtract(P, centre, out=f)
            f *= f
            np.add(f0, f1, out=d2)
            np.less_equal(d2, reach, out=hit)
            if hit[hit.argmax()]:
                taus[active[hit]] = step * dt
                alive &= ~hit
                reach[hit] = -1.0
                if not alive.any():
                    break
        X[:, active] = P
        active = active[alive]

    # Phase 2: finish the exponential tail one trial at a time in plain
    # Python, where the per-step cost is flat instead of one numpy
    # dispatch sweep per surviving batch row.
    Ux = table[0].tolist()
    Uy = table[1].tolist()
    cx, cy = float(centre[0, 0]), float(centre[1, 0])
    sums = np.empty((chunk, 2))
    for i in active:
        g = gens[i]
        x, y = float(X[0, i]), float(X[1, i])
        s = step
        while s <= max_steps:
            _draw(g, draws, sums)
            rows = (scale * sums).tolist()
            for nx, ny in rows:
                s += 1
                fx = (x - a0) * inv
                fy = (y - a0) * inv
                ix = int(fx)
                iy = int(fy)
                if ix > n - 2:
                    ix = n - 2
                if iy > n - 2:
                    iy = n - 2
                tx = fx - ix
                ty = fy - iy
                base = ix * n + iy
                uax = Ux[base] + ty * (Ux[base + 1] - Ux[base])
                ubx = Ux[base + n] + ty * (Ux[base + n + 1] - Ux[base + n])
                uay = Uy[base] + ty * (Uy[base + 1] - Uy[base])
                uby = Uy[base + n] + ty * (Uy[base + n + 1] - Uy[base + n])
                x += nx - (uax + tx * (ubx - uax))
                y += ny - (uay + tx * (uby - uay))
                if x > L:
                    x = 2.0 * L - x
                    escapes += 1
                elif x < -L:
                    x = -2.0 * L - x
                    escapes += 1
                if y > L:
                    y = 2.0 * L - y
                    escapes += 1
                elif y < -L:
                    y = -2.0 * L - y
                    escapes += 1
                dx = x - cx
                dy = y - cy
                if dx * dx + dy * dy <= r2:
                    taus[i] = s * dt
                    break
            else:
                continue
            break
    return taus, escapes
