"""Monte-Carlo first-hitting validation of the spectral rates.

Euler-Maruyama for dX = -U_h(X) dt + sqrt(2h) dB with the full drift
U_h = grad V + b + h nu, reflected at the box walls.  Mean hitting times
of a small ball around the global minimum are compared against 1/lambda_2
from the discretized generator.

Each trial consumes its own counter-seeded stream, so results are
bit-reproducible for a fixed configuration.  The stream is defined at a
fixed time quantum (default dt/2) rather than per step: a step of size
dt sums dt/quantum standard draws.  A run at half the step size with the
same quantum therefore consumes the *same* Brownian path, and the
dt-halving audit (halved_dt) measures genuine discretization bias
instead of resampling noise.

The drift is evaluated by bilinear interpolation from a dense
precomputed table (the expression trees are far too slow to walk once
per time step), built once per config.  Paths are stepped in one
vectorized batch while many trials are still running and finished off
one by one in a scalar loop, which is what makes the exponential tail of
the hitting-time distribution affordable.

The trials are split into interleaved shards (trial i in shard i mod W),
one per usable CPU and at most one per trial, each stepped in its own
worker process with its own batch and tail; W = 1 runs in-process.  A
shard switches to the scalar tail at ceil(24 / W) trials in flight, so
the tail work summed over shards matches a single batch's.  Since every
trial has its own stream and both phases share one arithmetic, the
results are bit-identical for any W.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .labelling import LabelledWell, WellMap
from .landscape import Landscape


class SdeError(ValueError):
    pass


_TABLE_N = 513
_TABLE_ROWS = 32
_TAIL_SWITCH = 24
# Shards run in forked workers: a two-worker pool starts in 50-75 ms per
# call, against about 1 s with spawn or forkserver, whose workers import
# the parent's __main__ (the CLI, and SciPy with it) again.  The workers
# run NumPy only, on the arrays they are handed.
_START_METHOD = "fork" if hasattr(os, "fork") else "spawn"


def _drift_table(land: Landscape, h: float, n: int = _TABLE_N):
    L = land.halfwidth
    axis = np.linspace(-L, L, n)
    U = np.empty((n, n, 2))
    # a block of rows at a time: the expression temporaries for all n^2
    # nodes at once would set the process's peak memory
    for i in range(0, n, _TABLE_ROWS):
        xx, yy = np.meshgrid(axis[i:i + _TABLE_ROWS], axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        U[i:i + _TABLE_ROWS] = (land.grad_V_at(pts)
                                + land.b_h_at(pts, h)).reshape(-1, n, 2)
    return axis, U


def _table_max(table: np.ndarray) -> float:
    return float(np.sqrt((table**2).sum(axis=2)).max())


@dataclass(frozen=True)
class SimulationConfig:
    """Euler-Maruyama run description; build via make_config for validation."""

    land: Landscape
    h: float
    dt: float
    trials: int
    seed: int
    start: np.ndarray
    target_center: np.ndarray
    target_radius: float
    max_time: float = 10_000.0
    noise_quantum: float | None = None

    def __post_init__(self):
        if not 0.0 < self.h <= 1.0:
            raise SdeError(f"h must lie in (0, 1], got {self.h}")
        if self.dt <= 0.0:
            raise SdeError("dt must be positive")
        if self.trials < 1:
            raise SdeError("at least one trial is required")
        if self.target_radius <= 0.0:
            raise SdeError("target radius must be positive")
        self.substeps  # validates the quantum

    @cached_property
    def _drift(self) -> tuple[np.ndarray, np.ndarray]:
        """(axis, U_h at the table nodes); make_config fills it in."""
        return _drift_table(self.land, self.h)

    @property
    def substeps(self) -> int:
        """Standard-normal draws consumed per time step (dt / quantum)."""
        q = self.noise_quantum
        if q is None:
            return 2
        if q <= 0.0:
            raise SdeError("noise quantum must be positive")
        k = round(self.dt / q)
        if k < 1 or abs(self.dt - k * q) > 1e-9 * self.dt:
            raise SdeError(
                f"dt = {self.dt:.3e} is not an integer multiple of the "
                f"noise quantum {q:.3e}"
            )
        return k


def halved_dt(cfg: SimulationConfig) -> SimulationConfig:
    """cfg with dt/2 driven by the same Brownian path as cfg.

    The returned config pins the noise quantum to cfg's value, so both
    runs sum the same underlying draws and the difference of their mean
    hitting times isolates the time-discretization bias.  Halving twice
    re-bases the quantum (a draw cannot be split), so only one level of
    refinement shares the path.
    """
    q = cfg.noise_quantum if cfg.noise_quantum is not None else cfg.dt / 2.0
    dt = cfg.dt / 2.0
    return replace(cfg, dt=dt, noise_quantum=min(q, dt))


def _dt_guard(h: float, bound: float) -> float:
    return min(h, 1.0) / (10.0 * bound)


def make_config(
    land: Landscape,
    wm: WellMap,
    h: float,
    *,
    start_well: LabelledWell | None = None,
    radius: float = 0.3,
    dt: float | None = None,
    trials: int = 2000,
    seed: int = 0,
    max_time: float = 10_000.0,
) -> SimulationConfig:
    """Config for the hitting run m -> ball(global minimum, radius).

    The closed target ball must sit inside {V < sigma(start well)}; being
    connected and containing the global minimum it then automatically lies
    in the right sublevel component.  dt defaults to the guard value
    min(h, 1) / (10 max|U_h|).
    """
    if start_well is None:
        candidates = [w for w in wm.wells if not w.is_global]
        if len(candidates) != 1:
            raise SdeError(
                "start_well must be given when the landscape has "
                f"{len(candidates)} non-global wells"
            )
        start_well = candidates[0]
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

    drift = _drift_table(land, h)
    guard = _dt_guard(h, _table_max(drift[1]))
    if dt is None:
        dt = guard
    elif dt > guard:
        raise SdeError(
            f"dt = {dt:.3e} exceeds the guard min(h,1)/(10 max|U_h|) = "
            f"{guard:.3e}"
        )
    cfg = SimulationConfig(land=land, h=h, dt=float(dt), trials=trials,
                           seed=seed, start=start_well.minimum.point.copy(),
                           target_center=center.copy(),
                           target_radius=float(radius), max_time=max_time)
    cfg.__dict__["_drift"] = drift  # fill the cache: build the table once
    return cfg


@dataclass(frozen=True)
class HittingStats:
    mean: float
    stderr: float
    trials: int
    escapes: int
    taus: np.ndarray = field(repr=False)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Walk(NamedTuple):
    """What a shard needs to step its trials; small enough to pickle."""

    table: np.ndarray       # dt * U_h at the table nodes, (x/y, node)
    n: int
    a0: float
    inv: float
    L: float
    centre: np.ndarray
    r2: float
    dt: float
    sub: int
    scale: float
    max_steps: int
    chunk: int
    seed: int
    start: np.ndarray


def hitting_time_stats(cfg: SimulationConfig, chunk: int = 512) -> HittingStats:
    """First hitting times of the target ball over all trials.

    Trial i goes to shard i mod W, where W is the number of usable CPUs
    capped at cfg.trials.  Each shard runs in its own worker process (in
    this process when W = 1) and switches to the scalar tail once at most
    ceil(_TAIL_SWITCH / W) of its trials are still in flight, so the tail
    work summed over shards stays where one shard would put it.  Every
    trial draws from its own stream, so taus and escapes do not depend on
    W.  A trial that has not hit by the first chunk boundary past max_time
    is unfinished; SdeError reports how many there are over all shards.
    """
    h, dt = cfg.h, cfg.dt
    axis, table = cfg._drift
    if dt > _dt_guard(h, _table_max(table)) * (1.0 + 1e-12):
        raise SdeError("dt exceeds the drift guard for this landscape")
    r2 = cfg.target_radius**2
    if float(((cfg.start - cfg.target_center) ** 2).sum()) <= r2:
        return HittingStats(mean=0.0, stderr=0.0, trials=cfg.trials,
                            escapes=0, taus=np.zeros(cfg.trials))

    n = len(axis)
    sub = cfg.substeps
    flat = (dt * table).reshape(n * n, 2)
    walk = _Walk(table=np.ascontiguousarray(flat.T), n=n, a0=float(axis[0]),
                 inv=(n - 1) / (axis[-1] - axis[0]), L=cfg.land.halfwidth,
                 centre=cfg.target_center.astype(float), r2=r2, dt=dt,
                 sub=sub, scale=math.sqrt(2.0 * h * dt / sub),
                 max_steps=int(cfg.max_time / dt), chunk=chunk,
                 seed=cfg.seed, start=cfg.start.astype(float))
    workers = min(_usable_cpus(), cfg.trials)
    shards = [range(w, cfg.trials, workers) for w in range(workers)]
    switch = -(-_TAIL_SWITCH // workers)
    if workers == 1:
        results = [_run_shard(walk, shards[0], switch)]
    else:
        # imported here: every CLI run would pay ~20 ms for the pool
        # machinery, with or without an sde stage
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context(_START_METHOD)
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            results = list(pool.map(_run_shard, repeat(walk), shards,
                                    repeat(switch)))

    taus = np.empty(cfg.trials)
    escapes = unfinished = 0
    for shard, (shard_taus, shard_escapes, shard_unfinished) in zip(
            shards, results):
        taus[shard.start::shard.step] = shard_taus
        escapes += shard_escapes
        unfinished += shard_unfinished
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


def _run_shard(walk: _Walk, trials: range,
               switch: int) -> tuple[np.ndarray, int, int]:
    """Step the given trials to the target: (taus, escapes, unfinished).

    Unfinished trials keep tau = nan.
    """
    table, n, a0, inv, L = walk.table, walk.n, walk.a0, walk.inv, walk.L
    r2, dt, chunk, max_steps = walk.r2, walk.dt, walk.chunk, walk.max_steps
    gens = [np.random.default_rng([walk.seed, i]) for i in trials]
    taus = np.full(len(gens), np.nan)
    active = np.arange(len(gens))
    X = np.tile(walk.start[:, None], (1, len(gens)))
    draws = np.empty((chunk, walk.sub, 2))
    # (ix, iy, 1) -> flat indices of the corners u00, u10, u01, u11
    corners = np.array([[n, 1, 0], [n, 1, n], [n, 1, 1], [n, 1, n + 1]])
    centre = walk.centre[:, None]
    escapes = 0
    step = 0

    # Phase 1: one batch while enough trials are still in flight.  Arrays
    # are (x/y, row), so every ufunc runs one contiguous loop over the rows,
    # and each step writes into buffers made once per chunk.  The
    # arithmetic is that of the scalar tail below, so a trial's path does
    # not depend on which phase steps it.
    while active.size > switch:
        if step > max_steps:
            return taus, escapes, active.size
        rows = active.size
        noise = np.empty((rows, chunk, 2))
        for j, i in enumerate(active):
            _draw(gens[i], draws, noise[j])
        noise *= walk.scale
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
    cx, cy = float(walk.centre[0]), float(walk.centre[1])
    sums = np.empty((chunk, 2))
    unfinished = 0
    for i in active:
        g = gens[i]
        x, y = float(X[0, i]), float(X[1, i])
        s = step
        while s <= max_steps:
            _draw(g, draws, sums)
            rows = (walk.scale * sums).tolist()
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
        else:
            unfinished += 1
    return taus, escapes, unfinished
