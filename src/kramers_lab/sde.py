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
per time step).  Paths are stepped in one vectorized batch while many
trials are still running and finished off one by one in a scalar loop,
which is what makes the exponential tail of the hitting-time
distribution affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .labelling import LabelledWell, WellMap
from .landscape import Landscape


class SdeError(ValueError):
    pass


_TABLE_N = 513
_TAIL_SWITCH = 24


def _drift_table(land: Landscape, h: float, n: int = _TABLE_N):
    L = land.halfwidth
    axis = np.linspace(-L, L, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    U = land.grad_V_at(pts) + land.b_h_at(pts, h)
    return axis, U.reshape(n, n, 2)


def _table_max(table: np.ndarray) -> float:
    return float(np.sqrt((table**2).sum(axis=2)).max())


def drift_bound(land: Landscape, h: float) -> float:
    """max |U_h| over the box, for the time-step guard."""
    _, table = _drift_table(land, h)
    return _table_max(table)


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

    guard = _dt_guard(h, drift_bound(land, h))
    if dt is None:
        dt = guard
    elif dt > guard:
        raise SdeError(
            f"dt = {dt:.3e} exceeds the guard min(h,1)/(10 max|U_h|) = "
            f"{guard:.3e}"
        )
    return SimulationConfig(land=land, h=h, dt=float(dt), trials=trials,
                            seed=seed, start=start_well.minimum.point.copy(),
                            target_center=center.copy(),
                            target_radius=float(radius), max_time=max_time)


@dataclass(frozen=True)
class HittingStats:
    mean: float
    stderr: float
    trials: int
    escapes: int
    taus: np.ndarray = field(repr=False)


def hitting_time_stats(cfg: SimulationConfig, chunk: int = 512) -> HittingStats:
    """First hitting times of the target ball over all trials."""
    land, h, dt = cfg.land, cfg.h, cfg.dt
    axis, table = _drift_table(land, h)
    if dt > _dt_guard(h, _table_max(table)) * (1.0 + 1e-12):
        raise SdeError("dt exceeds the drift guard for this landscape")
    n = len(axis)
    a0 = axis[0]
    inv = (n - 1) / (axis[-1] - axis[0])
    flat = np.ascontiguousarray((dt * table).reshape(n * n, 2))
    L = land.halfwidth
    cx, cy = float(cfg.target_center[0]), float(cfg.target_center[1])
    r2 = cfg.target_radius**2
    sub = cfg.substeps
    scale = math.sqrt(2.0 * h * dt / sub)
    max_steps = int(cfg.max_time / dt)

    taus = np.full(cfg.trials, np.nan)
    if float(((cfg.start - cfg.target_center) ** 2).sum()) <= r2:
        taus[:] = 0.0
        return HittingStats(mean=0.0, stderr=0.0, trials=cfg.trials,
                            escapes=0, taus=taus)

    gens = [np.random.default_rng([cfg.seed, i]) for i in range(cfg.trials)]
    active = np.arange(cfg.trials)
    X = np.tile(cfg.start.astype(float), (cfg.trials, 1))
    escapes = 0
    step = 0

    # Phase 1: one big batch while enough trials are still in flight.
    while active.size > _TAIL_SWITCH:
        if step > max_steps:
            raise SdeError(
                f"{active.size} trials did not hit the target within "
                f"max_time = {cfg.max_time}"
            )
        noise = np.empty((active.size, chunk, 2))
        for j, i in enumerate(active):
            noise[j] = gens[i].standard_normal((chunk, sub, 2)).sum(axis=1)
        noise *= scale
        Xa = X[active]
        alive = np.ones(active.size, dtype=bool)
        for k in range(chunk):
            step += 1
            f = (Xa - a0) * inv
            idx = f.astype(np.int64)
            np.minimum(idx, n - 2, out=idx)
            t = f - idx
            base = idx[:, 0] * n + idx[:, 1]
            tx, ty = t[:, 0, None], t[:, 1, None]
            u00 = flat[base]
            u01 = flat[base + 1]
            u10 = flat[base + n]
            u11 = flat[base + n + 1]
            ua = u00 + ty * (u01 - u00)
            ub = u10 + ty * (u11 - u10)
            Xa += noise[:, k] - (ua + tx * (ub - ua))
            out = np.abs(Xa) > L
            if out.any():
                # rows that already hit keep stepping to the chunk's end;
                # only reflections of paths still in flight count
                escapes += int((out & alive[:, None]).sum())
                Xa = np.where(out, np.copysign(2.0 * L, Xa) - Xa, Xa)
            d2 = (Xa[:, 0] - cx) ** 2 + (Xa[:, 1] - cy) ** 2
            hit = alive & (d2 <= r2)
            if hit.any():
                taus[active[hit]] = step * dt
                alive &= ~hit
                if not alive.any():
                    break
        X[active] = Xa
        active = active[alive]

    # Phase 2: finish the exponential tail one trial at a time in plain
    # Python, where the per-step cost is flat instead of one numpy
    # dispatch sweep per surviving batch row.
    Ux = flat[:, 0].tolist()
    Uy = flat[:, 1].tolist()
    for i in active:
        g = gens[i]
        x, y = float(X[i, 0]), float(X[i, 1])
        s = step
        while True:
            rows = (scale
                    * g.standard_normal((chunk, sub, 2)).sum(axis=1)).tolist()
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
                if s > max_steps:
                    raise SdeError(
                        f"trial {i} did not hit the target within "
                        f"max_time = {cfg.max_time}"
                    )
                continue
            break

    mean = float(taus.mean())
    stderr = float(taus.std(ddof=1) / math.sqrt(cfg.trials))
    return HittingStats(mean=mean, stderr=stderr, trials=cfg.trials,
                        escapes=escapes, taus=taus)
