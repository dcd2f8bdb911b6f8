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

The drift is evaluated by bilinear interpolation from a dense table of
dt * U_h (the expression trees are far too slow to walk once per time
step).  A SimulationConfig keeps only the guard's max|U_h|, computed a
block of table rows at a time; each shard builds its own table, so the
main process holds none.  Paths are stepped in one vectorized batch while
many trials are still running and finished off one by one in a scalar
loop, which is what makes the exponential tail of the hitting-time
distribution affordable.  The batch reflects at the walls step by step,
stores the positions of a block of up to 64 steps and tests them against
the target in one pass.

``simulate`` steps the trials of every config in one ``forked.starmap``.
With W usable CPUs and C configs, a config runs in max(1, min(W // C,
trials)) interleaved shards (trial i in shard i mod its count): configs
side by side first, and a config split only when CPUs are left over.  A
shard is handed the SimulationConfig itself and derives its step
constants from it.  It switches to the scalar tail at ceil(24 / shards)
trials in flight, so the tail work summed over a config's shards matches
a single batch's.  Since every trial has its own stream and both phases
share one arithmetic, the results are bit-identical for any W.  A trial
that has not hit by max_time is unfinished, whatever the number of steps
a shard draws at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import forked
from .labelling import LabelledWell, WellMap
from .landscape import Landscape

if TYPE_CHECKING:
    from .discretize import OperatorMatrix


class SdeError(ValueError):
    pass


_TABLE_N = 513
_TABLE_ROWS = 32
_TAIL_SWITCH = 24
# steps drawn and stepped at a time: a shard checks max_time between chunks
_CHUNK = 512
# steps the batch takes between two target tests
_BLOCK = 64
# trials whose draws are summed together
_DRAW_ROWS = 64
# the dt guard reads max|U_h| over {V <= sigma + _GUARD_MARGIN}, the region
# the paths sample; the box corners above it are where |U_h| peaks
_GUARD_MARGIN = 1.0


def _drift_blocks(land: Landscape, h: float):
    """(points, U_h at them) over the table nodes, _TABLE_ROWS x-rows at a
    time: the expression temporaries for all nodes at once would set the
    process's peak memory.  Node (i, j) is point (axis[i], axis[j])."""
    L = land.halfwidth
    axis = np.linspace(-L, L, _TABLE_N)
    for i in range(0, _TABLE_N, _TABLE_ROWS):
        xx, yy = np.meshgrid(axis[i:i + _TABLE_ROWS], axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        yield pts, land.grad_V_at(pts) + land.b_h_at(pts, h)


def _drift_table(land: Landscape, h: float, dt: float) -> np.ndarray:
    """dt * U_h at the table nodes as (x/y, node), node i * _TABLE_N + j."""
    table = np.empty((2, _TABLE_N * _TABLE_N))
    at = 0
    for _, U in _drift_blocks(land, h):
        np.multiply(U.T, dt, out=table[:, at:at + len(U)])
        at += len(U)
    return table


def _guard_peak(land: Landscape, h: float, level: float) -> float:
    peak = 0.0
    for pts, U in _drift_blocks(land, h):
        speed = np.sqrt((U**2).sum(axis=1))[land.V_at(pts) <= level]
        peak = max(peak, float(speed.max(initial=0.0)))
    return peak


@dataclass(frozen=True)
class SimulationConfig:
    """Euler-Maruyama run description, checked on construction.

    ``dt`` defaults to the guard min(h, 1) / (10 max|U_h|), with max|U_h|
    taken over the drift table's nodes with V <= sigma + 1, sigma being
    the start well's saddle height; a dt outside (0, guard] is refused.
    Each step sums ``substeps`` standard draws.  ``max_drift`` holds that
    max and ``guard_level`` the level sigma + 1, both computed here.
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
    max_drift: float = field(init=False)

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
        peak = _guard_peak(self.land, self.h, self.guard_level)
        object.__setattr__(self, "max_drift", peak)
        guard = min(self.h, 1.0) / (10.0 * peak)
        dt = guard if self.dt is None else float(self.dt)
        if not 0.0 < dt <= guard:
            raise SdeError(
                f"dt = {dt:.3e} must lie in (0, {guard:.3e}], the guard "
                f"min(h,1)/(10 max|U_h|) over V <= sigma + {_GUARD_MARGIN:g} "
                f"= {self.guard_level:.4g}"
            )
        object.__setattr__(self, "dt", dt)

    @property
    def guard_level(self) -> float:
        """The level sigma + 1 of the region the guard's max|U_h| spans."""
        return self.sigma + _GUARD_MARGIN


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
    trials: int = 2000,
    seed: int = 0,
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
    return SimulationConfig(land=land, h=h, trials=trials, seed=seed,
                            start=start_well.minimum.point.copy(),
                            target_center=center.copy(),
                            target_radius=float(radius),
                            sigma=start_well.sigma)


def mean_first_passage(cfg: SimulationConfig, op: OperatorMatrix) -> float:
    """The discrete mean first-passage time from cfg.start into the target.

    u solves L u = 1 off the target's grid nodes and the walls with u = 0
    on them (discretize.solve_dirichlet on ``op``, the generator at
    cfg.h) and is read at cfg.start by bilinear interpolation.  The walls
    absorb where the paths reflect, which is exponentially small while V
    at the walls lies far above sigma.
    """
    from .discretize import solve_dirichlet

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


class Run(NamedTuple):
    """One config's trials as simulate stepped them: tau per trial, the
    wall reflections of paths still in flight, and the shards they ran
    in."""

    taus: np.ndarray
    escapes: int
    shards: int


def simulate(cfgs) -> list[Run]:
    """The Run of each config, in input order.

    With W usable CPUs and C configs, a config runs in max(1, min(W // C,
    trials)) shards, trial i in shard i mod that count, and the shards of
    all configs go through one forked.starmap.  A shard switches to the
    scalar tail once at most ceil(_TAIL_SWITCH / shards) of its trials are
    still in flight, so the tail work summed over a config's shards stays
    where one shard would put it.  Every trial draws from its own stream,
    so taus and escapes do not depend on the shard counts.  A config that
    starts inside its target takes no step: its taus are zero.
    """
    cfgs = list(cfgs)
    cpus = forked.usable_cpus()
    counts = [max(1, min(cpus // len(cfgs), cfg.trials)) for cfg in cfgs]
    jobs = []       # (config index, trials, switch)
    for k, (cfg, shards) in enumerate(zip(cfgs, counts)):
        if float(((cfg.start - cfg.target_center) ** 2).sum()) \
                > cfg.target_radius**2:
            switch = -(-_TAIL_SWITCH // shards)
            jobs += [(k, range(w, cfg.trials, shards), switch)
                     for w in range(shards)]
    results = forked.starmap(_run_shard, ((cfgs[k], trials, switch)
                                          for k, trials, switch in jobs))
    taus = [np.zeros(cfg.trials) for cfg in cfgs]
    escapes = [0] * len(cfgs)
    for (k, trials, _), (shard_taus, shard_escapes) in zip(jobs, results):
        taus[k][trials.start::trials.step] = shard_taus
        escapes[k] += shard_escapes
    return [Run(*run) for run in zip(taus, escapes, counts)]


def hitting_time_stats(cfg: SimulationConfig, run: Run) -> HittingStats:
    """Mean and standard error of the hitting times of ``run``, cfg's Run
    from simulate.

    A trial whose tau is not <= cfg.max_time is unfinished; SdeError
    reports how many there are.
    """
    taus = run.taus
    unfinished = int(np.count_nonzero(~(taus <= cfg.max_time)))
    if unfinished:
        raise SdeError(
            f"{unfinished} of {cfg.trials} trials did not hit the target "
            f"within max_time = {cfg.max_time}"
        )
    mean = float(taus.mean())
    stderr = float(taus.std(ddof=1) / math.sqrt(cfg.trials))
    return HittingStats(mean=mean, stderr=stderr, trials=cfg.trials,
                        escapes=run.escapes, taus=taus)


def _sum_draws(draws: np.ndarray, out: np.ndarray) -> None:
    """out = draws (..., step, draw, x/y) summed over the draw index.

    Summed one draw index at a time, which is the order np.sum takes over
    this axis, at a fraction of its cost for two or three terms.
    """
    np.copyto(out, draws[..., 0, :])
    for s in range(1, draws.shape[-2]):
        out += draws[..., s, :]


def _draw(g: np.random.Generator, draws: np.ndarray, out: np.ndarray) -> None:
    """Fill out (chunk, 2) with the next chunk of g's per-step draw sums."""
    g.standard_normal(out=draws)
    _sum_draws(draws, out)


def _run_shard(cfg: SimulationConfig, trials: range,
               switch: int) -> tuple[np.ndarray, int]:
    """Step the given trials of cfg to the target: (taus, escapes).

    Everything the walk needs is read off cfg: dt, h, substeps, seed,
    start, target, box and max_time; the drift table is built here.
    Steps are drawn _CHUNK at a time, and stepping stops at the first
    chunk boundary past cfg.max_time; a trial still in flight there
    keeps tau = nan, and one that hit past max_time keeps its tau, which
    hitting_time_stats counts as unfinished too.  Escapes count the wall
    reflections of paths still in flight.
    """
    n = _TABLE_N
    table = _drift_table(cfg.land, cfg.h, cfg.dt)
    # Python floats, not numpy scalars: the scalar tail does all its
    # arithmetic with them, and numpy scalar math is slower per operation
    L = float(cfg.land.halfwidth)
    a0 = -L
    inv = (n - 1) / (2.0 * L)
    r2 = float(cfg.target_radius**2)
    dt = float(cfg.dt)
    scale = math.sqrt(2.0 * cfg.h * cfg.dt / cfg.substeps)
    max_steps = int(cfg.max_time / cfg.dt)
    chunk = _CHUNK
    block = min(_BLOCK, chunk)
    gens = [np.random.default_rng([cfg.seed, i]) for i in trials]
    taus = np.full(len(gens), np.nan)
    active = np.arange(len(gens))
    X = np.tile(cfg.start.astype(float)[:, None], (1, len(gens)))
    draws = np.empty((_DRAW_ROWS, chunk, cfg.substeps, 2))
    # (ix, iy, 1) -> flat indices of the corners u00, u10, u01, u11, as
    # floats: the products and sums are whole numbers far below 2^53, so
    # they are exact, and a float matmul is a BLAS call
    corners = np.array([[n, 1, 0], [n, 1, n], [n, 1, 1], [n, 1, n + 1]],
                       dtype=float)
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
        # (step, x/y, row): each step reads one contiguous slab
        noise = np.empty((chunk, 2, rows))
        for j in range(0, rows, _DRAW_ROWS):
            some = active[j:j + _DRAW_ROWS]
            for d, i in zip(draws, some):
                gens[i].standard_normal(out=d)
            _sum_draws(draws[:len(some)],
                       noise[:, :, j:j + _DRAW_ROWS].transpose(2, 0, 1))
        noise *= scale
        P0 = X[:, active]           # the positions before each block
        Q = np.empty((block, 2, rows))  # the positions after its steps
        alive = np.ones(rows, dtype=bool)
        f = np.empty((2, rows))
        f_all = f.reshape(-1)
        t = np.empty((2, rows))
        tx, ty = t
        idx = np.ones((3, rows))
        cell = idx[:2]
        flat_idx = np.empty((4, rows), dtype=np.intp)
        u = np.empty((2, 4, rows))
        lo, hi = u[:, :2], u[:, 2:]
        ab = np.empty((2, 2, rows))
        ua, ub = ab[:, 0], ab[:, 1]
        drift = np.empty((2, rows))
        for k0 in range(0, chunk, block):
            kb = min(block, chunk - k0)
            P, reflections = P0, []
            for k in range(kb):
                np.subtract(P, a0, out=f)
                f *= inv
                np.trunc(f, out=cell)   # as int() does
                np.minimum(cell, n - 2, out=cell)
                np.subtract(f, cell, out=t)
                # x/y by corner by row in one gather (mode="clip" spares
                # take a buffered copy), then the bilinear weights: ty for
                # (ua, ub), then tx between them
                np.matmul(corners, idx, out=flat_idx, casting="unsafe")
                table.take(flat_idx, axis=1, out=u, mode="clip")
                np.subtract(hi, lo, out=ab)
                ab *= ty
                ab += lo
                np.subtract(ub, ua, out=drift)
                drift *= tx
                drift += ua
                np.subtract(noise[k0 + k], drift, out=drift)
                P = np.add(P, drift, out=Q[k])
                np.abs(P, out=f)
                # argmax finds the largest entry for a fraction of the
                # cost of max()
                if f_all[f_all.argmax()] > L:
                    out = f > L
                    reflections.append((k, out))
                    np.copyto(P, np.copysign(2.0 * L, P) - P, where=out)
            # the target test of the whole block: each row's first step
            # with d2 <= r2, of the rows that had not hit before it
            D = Q[:kb] - centre
            D *= D
            hit = D[:, 0] + D[:, 1] <= r2
            hit &= alive
            first = hit.argmax(axis=0)
            got = hit.any(axis=0)
            if reflections:
                # rows that already hit keep stepping to the chunk's end;
                # a reflection counts while its path is still in flight:
                # at its first hit's step or before it
                last = np.where(got, first, np.where(alive, kb, -1))
                for k, out in reflections:
                    escapes += int((out & (last >= k)).sum())
            if got.any():
                taus[active[got]] = (step + 1 + first[got]) * dt
                alive &= ~got
            step += kb
            np.copyto(P0, Q[kb - 1])
            if not alive.any():
                break
        X[:, active] = P0
        active = active[alive]

    # Phase 2: finish the exponential tail one trial at a time in plain
    # Python, where the per-step cost is flat instead of one numpy
    # dispatch sweep per surviving batch row.  Memoryviews index the
    # table as Python floats without a list of them.
    Ux = memoryview(table[0])
    Uy = memoryview(table[1])
    cx, cy = float(centre[0, 0]), float(centre[1, 0])
    draws = draws[0]
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
