"""Morse landscapes: a 2-D potential V plus non-reversible fields (b, nu).

The generator under study is L = -h*lap + grad V . grad + b_h . grad with
b_h = b + h*nu.  The fields must satisfy the stationarity identities

    b . grad V = 0,      div nu = 0,      div b = nu . grad V,

which keep exp(-V/h) dx invariant.  This module finds and classifies the
critical points of V, validates the identities on random samples (once per
landscape: ``Landscape.stationarity`` keeps the report), extracts the local
antisymmetric factor J_u = (Jac b) (Hess V)^{-1} at critical points, and
ships the preset catalog used throughout the validation suite.

Every field is evaluated through ``Landscape.evaluate``, so an expression
the box cannot evaluate (a log of a negative number, an overflowing
exponential) is a LandscapeError that names the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex

__all__ = [
    "Landscape", "CriticalPoint", "LandscapeError", "MorseViolationError",
    "StationarityReport", "find_critical_points", "validate_stationarity",
    "local_antisymmetric_factor", "make_preset", "PRESETS",
]


class LandscapeError(ValueError):
    pass


class MorseViolationError(LandscapeError):
    """A critical point with a (numerically) degenerate Hessian."""


@dataclass(frozen=True)
class CriticalPoint:
    point: np.ndarray          # shape (2,)
    value: float               # V(point)
    hessian: np.ndarray        # symmetric (2, 2)
    index: int                 # number of negative Hessian eigenvalues

    @property
    def is_minimum(self) -> bool:
        return self.index == 0

    @property
    def is_saddle(self) -> bool:
        return self.index == 1

    def __repr__(self):
        coords = ", ".join(f"{v:+.6f}" for v in self.point)
        return f"CriticalPoint(({coords}), V={self.value:.6f}, index={self.index})"


@dataclass(frozen=True)
class Landscape:
    """Potential and perturbation fields on the box [-halfwidth, halfwidth]^2."""

    V: ex.Expr
    b: tuple[ex.Expr, ...]
    nu: tuple[ex.Expr, ...]
    halfwidth: float
    name: str = "custom"

    def __post_init__(self):
        if len(self.b) != 2 or len(self.nu) != 2:
            raise LandscapeError("b and nu must have two components each")
        if not self.halfwidth > 0:
            raise LandscapeError("box halfwidth must be positive")

    # Derived symbolic fields -------------------------------------------------

    @cached_property
    def grad_V(self) -> tuple[ex.Expr, ...]:
        return tuple(ex.gradient(self.V, 2))

    @cached_property
    def hess_V(self) -> tuple[tuple[ex.Expr, ...], ...]:
        return tuple(tuple(row) for row in ex.hessian(self.V, 2))

    @cached_property
    def jac_b(self) -> tuple[tuple[ex.Expr, ...], ...]:
        # jac_b[i][j] = d b_i / d x_j
        return tuple(
            tuple(ex.differentiate(bi, j) for j in range(2))
            for bi in self.b
        )

    @cached_property
    def b_dot_grad_V(self) -> ex.Expr:
        out = ex.constant(0.0)
        for bi, gi in zip(self.b, self.grad_V):
            out = out + bi * gi
        return out

    @cached_property
    def nu_dot_grad_V(self) -> ex.Expr:
        out = ex.constant(0.0)
        for ni, gi in zip(self.nu, self.grad_V):
            out = out + ni * gi
        return out

    @cached_property
    def div_b(self) -> ex.Expr:
        out = ex.constant(0.0)
        for i, bi in enumerate(self.b):
            out = out + ex.differentiate(bi, i)
        return out

    @cached_property
    def div_nu(self) -> ex.Expr:
        out = ex.constant(0.0)
        for i, ni in enumerate(self.nu):
            out = out + ex.differentiate(ni, i)
        return out

    @cached_property
    def stationarity(self) -> StationarityReport:
        """``validate_stationarity(self)``, computed on first use."""
        return validate_stationarity(self)

    # Vectorized field evaluation --------------------------------------------

    def evaluate(self, e: ex.Expr, pts) -> np.ndarray:
        """``e`` at an (n, 2) array of points; a domain error or a
        non-finite value is a LandscapeError naming the box."""
        try:
            return ex.evaluate_many(e, pts)
        except ex.EvalError as err:
            w = self.halfwidth
            raise LandscapeError(f"the landscape cannot be evaluated on the "
                                 f"box [-{w:g}, {w:g}]^2: {err}") from err

    def V_at(self, pts) -> np.ndarray:
        return self.evaluate(self.V, pts)

    def grad_V_at(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([self.evaluate(g, pts) for g in self.grad_V], axis=-1)

    def hess_V_at(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        H = np.empty((pts.shape[0], 2, 2))
        for i in range(2):
            for j in range(2):
                H[:, i, j] = self.evaluate(self.hess_V[i][j], pts)
        return 0.5 * (H + np.swapaxes(H, 1, 2))

    def b_h_at(self, pts, h: float) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([self.evaluate(bi, pts) + h * self.evaluate(ni, pts)
                         for bi, ni in zip(self.b, self.nu)], axis=-1)

    def jac_b_at(self, point) -> np.ndarray:
        pt = np.asarray(point, dtype=float)[None, :]
        B = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                B[i, j] = self.evaluate(self.jac_b[i][j], pt)[0]
        return B


# ---------------------------------------------------------------------------
# Critical points

_SEED_RESOLUTION = 32     # Newton seeds per axis
_MAX_ITERATIONS = 80
_GRADIENT_TOL = 1e-10
_DEDUP_RADIUS = 1e-6
_DEGENERACY_TOL = 1e-6


def find_critical_points(land: Landscape) -> list[CriticalPoint]:
    """Newton search for critical points of V from a uniform seed grid.

    Newton runs for at most 80 iterations from a 32-per-axis grid of seeds.
    Seeds that diverge, leave the box, or land on the boundary are discarded;
    converged points must reach |grad V| <= 1e-10 (1 + g), where g is the
    largest gradient component on a 9-per-axis grid; they are
    de-duplicated within a radius of 1e-6 and classified by Hessian
    inertia.  Raises MorseViolationError if any surviving point has a
    Hessian eigenvalue of magnitude below 1e-6, and LandscapeError if
    nothing converged.
    """
    L = land.halfwidth
    axis = np.linspace(-L, L, _SEED_RESOLUTION)
    X = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")],
                 axis=-1)

    for _ in range(_MAX_ITERATIONS):
        G = land.grad_V_at(X)
        H = land.hess_V_at(X)
        # Guard singular Hessians seed-by-seed rather than aborting the batch.
        det = np.linalg.det(H)
        ok = np.isfinite(det) & (np.abs(det) > 1e-300)
        step = np.zeros_like(X)
        if np.any(ok):
            step[ok] = np.linalg.solve(H[ok], G[ok][..., None])[..., 0]
        X = X - step
        # Drop runaways early to keep evaluate_many happy.
        inside = np.all(np.isfinite(X), axis=1) & (np.max(np.abs(X), axis=1) < 4 * L)
        X = X[inside & ok]
        if X.size == 0:
            break
        if np.max(np.linalg.norm(land.grad_V_at(X), axis=1)) < 0.1 * _GRADIENT_TOL:
            break

    if X.size == 0:
        raise LandscapeError("no critical points found in the box")

    G = land.grad_V_at(X)
    scale = 1.0 + np.max(np.abs(land.grad_V_at(
        np.stack(np.meshgrid(*[np.linspace(-L, L, 9)] * 2, indexing="ij"),
                 axis=-1).reshape(-1, 2))))
    converged = np.linalg.norm(G, axis=1) <= _GRADIENT_TOL * scale
    inside = np.max(np.abs(X), axis=1) < L * (1 - 1e-9)
    X = X[converged & inside]
    if X.shape[0] == 0:
        raise LandscapeError("no critical points found in the box")

    # De-duplicate within _DEDUP_RADIUS.
    order = np.lexsort(X.T[::-1])
    X = X[order]
    kept: list[np.ndarray] = []
    for x in X:
        if not any(np.linalg.norm(x - y) <= _DEDUP_RADIUS for y in kept):
            kept.append(x)

    points = []
    for x in kept:
        H = land.hess_V_at(x[None, :])[0]
        eigs = np.linalg.eigvalsh(H)
        if np.min(np.abs(eigs)) < _DEGENERACY_TOL:
            raise MorseViolationError(
                f"degenerate critical point at {x}: Hessian eigenvalues {eigs}"
            )
        points.append(CriticalPoint(
            point=x.copy(),
            value=float(land.V_at(x[None, :])[0]),
            hessian=H,
            index=int(np.sum(eigs < 0)),
        ))

    points.sort(key=lambda cp: (cp.value, tuple(cp.point)))
    return points


# ---------------------------------------------------------------------------
# Stationarity validation

@dataclass(frozen=True)
class StationarityReport:
    max_b_dot_grad_V: float
    max_div_nu: float
    max_div_b_mismatch: float   # |div b - nu . grad V|
    tolerance: float

    @property
    def passed(self) -> bool:
        worst = max(self.max_b_dot_grad_V, self.max_div_nu,
                    self.max_div_b_mismatch)
        return worst <= self.tolerance

    def describe(self) -> str:
        """The three residuals and the tolerance, for refusal messages."""
        return (f"max |b.grad V| = {self.max_b_dot_grad_V:.3e}, "
                f"max |div nu| = {self.max_div_nu:.3e}, "
                f"max |div b - nu.grad V| = {self.max_div_b_mismatch:.3e}; "
                f"tolerance {self.tolerance:g}")


def validate_stationarity(land: Landscape) -> StationarityReport:
    """Check the three stationarity identities at 4096 uniform random
    points (seed 0); the check passes when every residual is at most
    1e-10.  ``Landscape.stationarity`` keeps the report of each landscape."""
    rng = np.random.default_rng(0)
    pts = rng.uniform(-land.halfwidth, land.halfwidth,
                      size=(4096, 2))
    r1 = np.max(np.abs(land.evaluate(land.b_dot_grad_V, pts)))
    r2 = np.max(np.abs(land.evaluate(land.div_nu, pts)))
    mismatch = (land.evaluate(land.div_b, pts)
                - land.evaluate(land.nu_dot_grad_V, pts))
    r3 = np.max(np.abs(mismatch))
    return StationarityReport(
        max_b_dot_grad_V=float(r1),
        max_div_nu=float(r2),
        max_div_b_mismatch=float(r3),
        tolerance=1e-10,
    )


def local_antisymmetric_factor(land: Landscape, cp: CriticalPoint) -> np.ndarray:
    """J_u = (Jac b)(u) Hess V(u)^{-1} at a critical point u.

    Stationarity forces this matrix to be antisymmetric (structure lemma for
    admissible fields); raises LandscapeError when the check
    ||J + J^T|| <= 1e-8 * (1 + ||J||) fails, which flags either a
    non-stationary b or a non-critical input point.
    """
    B = land.jac_b_at(cp.point)
    J = B @ np.linalg.inv(cp.hessian)
    asym = np.linalg.norm(J + J.T, 2)
    if asym > 1e-8 * (1.0 + np.linalg.norm(J, 2)):
        raise LandscapeError(
            f"J_u = B H^-1 at {cp.point} is not antisymmetric "
            f"(||J + J^T|| = {asym:.3e}); b does not leave exp(-V/h) invariant"
        )
    return J


# ---------------------------------------------------------------------------
# Preset catalog.  b = c * J0 * grad V with J0 = [[0, 1], [-1, 0]], nu = 0.

_PRESET_DEFS = {
    # name: (V text, box halfwidth)
    "sym_double_well": ("(x^2 - 1)^2 + y^2", 2.0),
    "tilted_double_well": ("(x^2 - 1)^2 + {a} * x + y^2", 2.0),
    "triple_well": ("x^2 * (x - 2)^2 * (x + 2)^2 / 16 + 0.3 * x + y^2", 3.0),
}

PRESETS = tuple(_PRESET_DEFS)


def make_preset(name: str, c: float = 0.0, a: float = 0.5) -> Landscape:
    """Build a catalog landscape; ``c`` scales the rotational perturbation.

    ``a`` is the tilt of the tilted double well (ignored by the others).
    """
    if name not in _PRESET_DEFS:
        raise LandscapeError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        )
    text, halfwidth = _PRESET_DEFS[name]
    V = ex.parse(text.format(a=a), 2)
    g = ex.gradient(V, 2)
    cc = ex.constant(float(c))
    # J0 grad V = (dV/dy, -dV/dx)
    b = (cc * g[1], -(cc * g[0]))
    nu = (ex.constant(0.0), ex.constant(0.0))
    return Landscape(V=V, b=b, nu=nu, halfwidth=halfwidth, name=name)
