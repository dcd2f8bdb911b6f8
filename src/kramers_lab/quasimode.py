"""Quasimodes: sharp approximate eigenfunctions built from the well map.

For a non-global labelled minimum m the quasimode is psi = theta * (kappa+1)
where kappa is +1 on the m-side and -1 on the hat-side of the sublevel set
{V < sigma(m) + 3 delta0} with the saddle tubes removed, and interpolates
across each tube through the Gaussian error-function profile

    kappa(x) = C^-1 int_0^{xi.(x-s)} chi(eta/rho0) e^{-|mu(s)| eta^2 / 2h} deta,

with xi(s) the oriented transverse eigenvector and |mu(s)| the transverse
rate at the saddle; theta is a smooth bump on V-levels that confines the
support to {V < sigma(m) + 2 delta0} inside the enclosing component E_-(m).
The global minimum gets psi = 1 (the exact kernel direction).

A quasimode lives on the weighted generator ``op`` it is built on: its h,
its norm in L^2(m_h) and all its forms come from that one operator, while
its cutoff geometry depends on the grid alone and serves every h.

All sets are realized as node masks on the operator grid via face-adjacency
flood fills.  The profile integral is erf on the plateau |eta| <= rho0 and,
across the glue band, one cumulative Gauss-Legendre sum per tube over the
panels between the sorted node values of |t|, accurate to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .discretize import Grid, OperatorMatrix
from .labelling import (LabelledWell, WellMap, flood_component,
                        label_components)
from .landscape import CriticalPoint, Landscape
from .saddle import SaddleSpectralData


class QuasimodeError(ValueError):
    pass


class GeometryError(QuasimodeError):
    """Cutoff sets do not split as required; retry with smaller rho0/delta0."""


# ---------------------------------------------------------------------------
# Smooth glue

def _glue(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t):
    """C^inf step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    a = _glue(t)
    return a / (a + _glue(1.0 - t))


def plateau_bump(u):
    """Even C^inf cutoff: 1 on [-1, 1], 0 outside (-2, 2)."""
    return smoothstep(2.0 - np.abs(np.asarray(u, dtype=float)))


# ---------------------------------------------------------------------------
# Cutoff geometry

@dataclass(frozen=True)
class SaddleTube:
    """Connected component through s of {V <= sigma+3 delta0, |xi.(x-s)| <= 3 rho0}."""

    saddle: CriticalPoint
    data: SaddleSpectralData
    mask: np.ndarray


@dataclass(frozen=True)
class CutoffGeometry:
    well: LabelledWell
    grid: Grid
    rho0: float
    delta0: float
    tubes: tuple[SaddleTube, ...]
    e_plus: np.ndarray          # component of the split set containing m
    e_minus: np.ndarray         # component containing the hat minimum
    e_lower: np.ndarray         # enclosing component E_-(m) of {V < sigma_prev}
    V_nodes: np.ndarray


def default_parameters(well: LabelledWell, wm: WellMap) -> tuple[float, float]:
    """(rho0, delta0) at 'sufficiently small' scales for this well.

    delta0 keeps the three V-level shells below every neighbouring critical
    value; rho0 keeps the tube slab short of the nearest other critical
    point.  Both are validated constructively by the two-component check.
    """
    room = [well.barrier, well.sigma - well.hat_minimum.value]
    if math.isfinite(well.prev_sigma):
        room.append(well.prev_sigma - well.sigma)
    delta0 = 0.2 * min(room)
    crits = {id(w.minimum): w.minimum for w in wm.wells}
    for w in wm.wells:
        for s in w.saddles:
            crits[id(s)] = s
    dmin = math.inf
    for s in well.saddles:
        for c in crits.values():
            if c is not s:
                dmin = min(dmin, float(np.linalg.norm(c.point - s.point)))
    rho0 = 0.15 * dmin
    return rho0, delta0


def build_cutoffs(
    well: LabelledWell,
    wm: WellMap,
    data: Mapping[int, SaddleSpectralData],
    land: Landscape,
    grid: Grid,
    rho0: float | None = None,
    delta0: float | None = None,
) -> CutoffGeometry:
    """Tube and plateau node sets for the quasimode of a non-global well.

    Give both rho0 and delta0, or neither: then both start from
    ``default_parameters`` and are halved up to three times while the
    sets do not split (GeometryError); the fourth try's error propagates.
    """
    if well.is_global:
        raise ValueError("the global minimum needs no cutoff geometry")
    if (rho0 is None) != (delta0 is None):
        raise ValueError("give both rho0 and delta0, or neither")
    if rho0 is None:
        rho0, delta0 = default_parameters(well, wm)
        for _ in range(3):
            try:
                return _cutoffs(well, data, land, grid, rho0, delta0)
            except GeometryError:
                rho0 *= 0.5
                delta0 *= 0.5
    return _cutoffs(well, data, land, grid, rho0, delta0)


def _cutoffs(well, data, land, grid, rho0, delta0) -> CutoffGeometry:
    if rho0 <= 0 or delta0 <= 0:
        raise ValueError("rho0 and delta0 must be positive")

    pts = grid.points()
    V2 = land.V_at(pts).reshape(grid.n, grid.n)
    V = V2.ravel()
    sigma = well.sigma

    # saddle-level drop making strict sublevel masks leak-proof on this grid
    eps = 0.5 * max(abs(d.lambda1) for d in data.values()) * grid.spacing**2

    if math.isfinite(well.prev_sigma):
        e_lower = flood_component(V2 < well.prev_sigma - eps,
                                  grid.ij_of(well.minimum.point)).ravel()
    else:
        e_lower = np.ones(grid.size, dtype=bool)

    tubes = []
    for sad, near, _far in well.saddle_sides:
        ds = data[id(sad)]
        if float(np.dot(ds.xi, near - sad.point)) <= 0:
            raise GeometryError(
                f"transverse vector at {sad.point} is not oriented toward "
                "the well side"
            )
        t = (pts - sad.point) @ ds.xi
        slab = (np.abs(t) <= 3.0 * rho0) & (V <= sigma + 3.0 * delta0)
        cmask = flood_component(slab.reshape(grid.n, grid.n),
                                grid.ij_of(sad.point)).ravel()
        tubes.append(SaddleTube(saddle=sad, data=ds, mask=cmask))

    tube_union = np.zeros(grid.size, dtype=bool)
    for i, tb in enumerate(tubes):
        if np.any(tube_union & tb.mask):
            raise GeometryError(
                "saddle tubes overlap; decrease rho0/delta0 (a bisection "
                "retry with halved parameters is suggested)"
            )
        tube_union |= tb.mask

    split = e_lower & (V < sigma + 3.0 * delta0) & ~tube_union
    labels, ncomp = label_components(split.reshape(grid.n, grid.n))
    labels = labels.ravel()
    lab_m = labels[grid.node_of(well.minimum.point)]
    lab_hat = labels[grid.node_of(well.hat_minimum.point)]
    if ncomp != 2 or lab_m == 0 or lab_hat == 0 or lab_m == lab_hat:
        raise GeometryError(
            f"removing the saddle tubes left {ncomp} components instead of "
            "two separating the minimum from its hat partner; rho0/delta0 "
            "too large or grid too coarse (bisection retry with halved "
            "parameters is suggested)"
        )
    e_plus = labels == lab_m
    e_minus = labels == lab_hat
    assert not np.any(tube_union & (e_plus | e_minus))

    return CutoffGeometry(well=well, grid=grid, rho0=float(rho0),
                          delta0=float(delta0), tubes=tuple(tubes),
                          e_plus=e_plus, e_minus=e_minus, e_lower=e_lower,
                          V_nodes=V)


# ---------------------------------------------------------------------------
# Quasimodes

@dataclass(frozen=True)
class Quasimode:
    """Node values of psi in [0, 2] on the weighted generator ``op`` whose
    L^2(m_h) measures it; phi = psi/norm."""

    well: LabelledWell
    op: OperatorMatrix
    values: np.ndarray
    norm: float                  # ||psi|| in L^2(m_h)

    @property
    def phi(self) -> np.ndarray:
        return self.values / self.norm

    @property
    def support(self) -> np.ndarray:
        return self.values > 0.0


# The profile quadrature: an 8-point Gauss-Legendre rule per panel, and at
# least _PANELS uniform panels per band so that no panel is wide (panels as
# wide as the gaps between a coarse grid's node values err by ~1e-10).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PANELS = 128


def _profile_integral(ts, rho0, abs_mu, h):
    """int_0^t chi(eta/rho0) e^{-|mu| eta^2/2h} deta per node, odd in t.

    On [0, rho0] chi = 1 and the integral is the exact Gaussian error
    function.  The glue band [rho0, 2 rho0] is cut at every node's
    min(|t|, 2 rho0) and at a uniform subdivision into _PANELS panels;
    each panel gets a fixed Gauss-Legendre rule, and the cumulative sum of
    the panel integrals gives every node's value at once (non-decreasing
    in |t|, and equal to the returned total for |t| >= 2 rho0).  The same
    rule over a uniform subdivision of the plateau is checked against erf.
    """
    from scipy.special import erf

    def panel_integrals(edges):
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        eta = mid[:, None] + half[:, None] * _GL_NODES
        f = plateau_bump(eta / rho0) * np.exp(-abs_mu * eta * eta / (2.0 * h))
        return half * (f * _GL_WEIGHTS).sum(axis=1)

    s = math.sqrt(abs_mu / (2.0 * h))
    amp = math.sqrt(math.pi) / (2.0 * s)
    plateau = amp * erf(s * rho0)

    check = abs(panel_integrals(np.linspace(0.0, rho0, _PANELS + 1)).sum()
                - plateau)
    if check > 1e-9 * max(plateau, 1e-30):
        raise QuasimodeError("profile quadrature self-check failed")

    ts = np.asarray(ts, dtype=float)
    a = np.abs(ts)
    band = a > rho0
    ends = np.minimum(a[band], 2.0 * rho0)
    edges = np.unique(np.concatenate(
        [np.linspace(rho0, 2.0 * rho0, _PANELS + 1), ends]))
    glue = np.concatenate([[0.0], np.cumsum(panel_integrals(edges))])
    out = amp * erf(s * a)
    out[band] = plateau + glue[np.searchsorted(edges, ends)]
    return np.copysign(out, ts), plateau + glue[-1]


def build_quasimode(well: LabelledWell, geom: CutoffGeometry,
                    op: OperatorMatrix) -> Quasimode:
    """psi = theta (kappa + 1) on the geometry's grid at h = op.h."""
    if well is not geom.well:
        raise QuasimodeError("geometry was built for a different well")
    if op.grid != geom.grid:
        raise QuasimodeError("operator grid does not match the geometry's")
    grid, V, h = geom.grid, geom.V_nodes, op.h
    pts = grid.points()
    sigma, d0 = well.sigma, geom.delta0

    kappa = np.zeros(grid.size)
    kappa[geom.e_plus] = 1.0
    kappa[geom.e_minus] = -1.0
    for tb in geom.tubes:
        nodes = np.flatnonzero(tb.mask)
        t = (pts[nodes] - tb.saddle.point) @ tb.data.xi
        raw, full = _profile_integral(t, geom.rho0, tb.data.abs_mu, h)
        # |raw| <= full by construction; the clip pins kappa to [-1, 1]
        kappa[nodes] = np.clip(raw / full, -1.0, 1.0)

    theta = smoothstep((sigma + 2.0 * d0 - V) / (0.5 * d0))
    theta[~geom.e_lower] = 0.0
    psi = theta * (kappa + 1.0)
    if psi.min() < -1e-12 or psi.max() > 2.0 + 1e-12:
        raise QuasimodeError("quasimode values escaped [0, 2]")

    return Quasimode(well=well, op=op, values=psi, norm=op.norm(psi))


def constant_quasimode(well: LabelledWell, op: OperatorMatrix) -> Quasimode:
    """psi = 1 for the global minimum: the exact kernel direction."""
    if not well.is_global:
        raise ValueError("constant quasimode is reserved for the global well")
    ones = np.ones(op.grid.size)
    return Quasimode(well=well, op=op, values=ones, norm=op.norm(ones))


# ---------------------------------------------------------------------------
# Weighted forms

@dataclass(frozen=True)
class QuadraticForms:
    dirichlet_psi: float         # <L psi, psi>_w
    dirichlet_phi: float         # <L phi, phi>_w
    residual_sq: float           # ||L psi||^2_w
    adjoint_residual_sq: float   # ||L* psi||^2_w


def dirichlet_and_residuals(qm: Quasimode) -> QuadraticForms:
    op, psi = qm.op, qm.values
    L = op.matrix
    Lpsi = L @ psi
    dir_psi = float(np.real(op.inner(psi, Lpsi)))
    # weighted adjoint: L* = W^-1 L^T W; nodes whose weight underflowed to
    # zero carry zero measure and are dropped from the quotient
    w = op.weights
    y = np.zeros_like(psi)
    np.divide(L.T @ (w * psi), w, out=y, where=w > 0)
    return QuadraticForms(
        dirichlet_psi=dir_psi,
        dirichlet_phi=dir_psi / qm.norm**2,
        residual_sq=float(np.real(op.inner(Lpsi, Lpsi))),
        adjoint_residual_sq=float(np.real(op.inner(y, y))),
    )


@dataclass(frozen=True)
class InteractionResult:
    interaction: np.ndarray      # K[j, k] = <L phi_j, phi_k>_w
    gram: np.ndarray             # G[j, k] = <phi_j, phi_k>_w


def interaction_matrix(quasimodes: Sequence[Quasimode]) -> InteractionResult:
    """Pairwise weighted forms, after checking the support structure.

    Every quasimode must live on one operator.  Two quasimode supports must
    either be disjoint (equal saddle values) or nested with the
    higher-barrier psi constant (= 2) across the lower one; the constant
    global quasimode is exempt.
    """
    op = quasimodes[0].op
    if any(qm.op is not op for qm in quasimodes):
        raise QuasimodeError("quasimodes were built on different operators")
    n = len(quasimodes)
    for j in range(n):
        for k in range(j + 1, n):
            a, b = quasimodes[j], quasimodes[k]
            if a.well.is_global or b.well.is_global:
                continue
            if a.well.sigma < b.well.sigma:
                a, b = b, a
            overlap = a.support & b.support
            if not np.any(overlap):
                continue
            if a.well.sigma == b.well.sigma:
                raise QuasimodeError(
                    "supports of equal-level quasimodes overlap; decrease "
                    "rho0/delta0"
                )
            if np.max(np.abs(a.values[b.support] - 2.0)) > 1e-9:
                raise QuasimodeError(
                    "nested quasimode is not constant across the inner "
                    "support; decrease rho0/delta0"
                )
    phis = [qm.phi for qm in quasimodes]
    L = op.matrix
    K = np.empty((n, n))
    G = np.empty((n, n))
    for j in range(n):
        Lphi = L @ phis[j]
        for k in range(n):
            K[j, k] = float(np.real(op.inner(phis[k], Lphi)))
            G[j, k] = float(np.real(op.inner(phis[j], phis[k])))
    return InteractionResult(interaction=K, gram=G)
