"""Transverse saddle data and sharp small-eigenvalue predictions.

At an index-1 saddle s the exchange rate between wells is carried by the
matrix A = Hess V(s) + B^T with B the drift Jacobian at s.  For admissible
drifts (tangent to the level sets of V) A has a unique eigenvalue mu < 0;
it is real and simple, and its eigenvector xi spans the crossing direction.
The sharp prefactor of the small eigenvalue attached to a labelled well m is

    zeta(m) = sqrt(det Hess V(m)) / (2 pi)
              * sum over s in j(m) of |mu(s)| / sqrt(|det Hess V(s)|),

with the first factor replaced by the sum of the two minima's determinant
roots in the equal-depth double-well case, and the predicted eigenvalue is
zeta(m) * exp(-S(m)/h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .labelling import LabelledWell, WellMap, check_generic
from .landscape import CriticalPoint, Landscape

_REAL_TOL = 1e-10


class SaddleError(ValueError):
    """The transverse matrix violates its structural premises (the usual
    culprit is a drift field with b . grad V != 0)."""


class ConditioningError(SaddleError):
    """Numerically ambiguous eigenstructure at a saddle."""


class UnsupportedCaseError(ValueError):
    """Labelled structure outside the scope of the sharp prefactor."""


@dataclass(frozen=True)
class SaddleSpectralData:
    """Negative-mode data of A = Hess V(s) + B^T at one saddle.

    ``xi`` is the unit eigenvector for ``mu``; when ``oriented`` is set its
    sign puts the well side E(m) into the half-space {xi . (x - s) > 0}.
    ``M_V = Hess V(s) + 2|mu| xi xi^T`` is the positive-definite companion
    with det M_V = -det Hess V(s).
    """

    saddle: CriticalPoint
    mu: float
    xi: np.ndarray
    lambda1: float
    M_V: np.ndarray
    oriented: bool

    @property
    def abs_mu(self) -> float:
        return -self.mu


def transverse_data(
    s: CriticalPoint,
    B,
    *,
    toward=None,
    land: Landscape | None = None,
) -> SaddleSpectralData:
    """Extract (mu, xi) at an index-1 saddle and verify the structure.

    ``B`` is the drift Jacobian at ``s``.  If ``toward`` (a point on the
    E(m) side of the saddle) is given, xi is flipped so that side lies in
    {xi . (x - s) > 0}; with ``land`` available the probe point is first
    refined by one gradient-flow step.

    Checks performed: exactly one eigenvalue of A with negative real part,
    real and geometrically simple; M_V positive definite with
    det M_V = -det Hess; |mu| >= |lambda_1|; <Hess^{-1} xi, xi> mu = 1.
    """
    if not s.is_saddle:
        raise SaddleError(f"critical point at {s.point} has index {s.index},"
                          " expected an index-1 saddle")
    H = np.asarray(s.hessian, dtype=float)
    B = np.asarray(B, dtype=float)
    d = H.shape[0]
    A = H + B.T
    scale = max(1.0, float(np.linalg.norm(A, 2)))

    evals, evecs = np.linalg.eig(A)
    neg = np.flatnonzero(evals.real < 0)
    if len(neg) != 1:
        raise SaddleError(
            f"transverse matrix at {s.point} has {len(neg)} eigenvalues with "
            "negative real part, expected exactly one; is the drift tangent "
            "to the level sets of V?"
        )
    k = int(neg[0])
    if abs(evals[k].imag) > _REAL_TOL * scale:
        raise SaddleError(
            f"negative-mode eigenvalue at {s.point} is not real: {evals[k]}"
        )
    mu = float(evals[k].real)

    # geometric simplicity: A - mu has a one-dimensional kernel
    sv = np.linalg.svd(A - mu * np.eye(d), compute_uv=False)
    if int(np.sum(sv < 1e-8 * scale)) != 1:
        raise ConditioningError(
            f"eigenvalue mu = {mu:.6g} at {s.point} is numerically defective"
        )

    xi = evecs[:, k]
    j = int(np.argmax(np.abs(xi)))
    xi = xi * (xi[j].conjugate() / abs(xi[j]))     # strip the complex phase
    if float(np.max(np.abs(xi.imag))) > _REAL_TOL:
        raise ConditioningError(
            f"eigenvector for mu at {s.point} has an irreducible imaginary part"
        )
    xi = np.real(xi)
    xi = xi / np.linalg.norm(xi)

    lam1 = float(np.linalg.eigvalsh(H)[0])
    if abs(mu) < abs(lam1) - 1e-10 * scale:
        raise ConditioningError(
            f"|mu| = {abs(mu):.12g} < |lambda_1| = {abs(lam1):.12g} at "
            f"{s.point}; the transverse structure is inconsistent"
        )

    q = float(np.linalg.solve(H, xi) @ xi)
    if abs(q * mu - 1.0) > 1e-10:
        raise ConditioningError(
            f"<Hess^-1 xi, xi> mu = {q * mu:.12g} != 1 at {s.point}"
        )

    M_V = H + 2.0 * abs(mu) * np.outer(xi, xi)
    M_V = 0.5 * (M_V + M_V.T)
    det_H = float(np.linalg.det(H))
    det_M = float(np.linalg.det(M_V))
    if abs(det_M + det_H) > 1e-10 * abs(det_H):
        raise ConditioningError(
            f"det M_V = {det_M:.12g} != -det Hess = {-det_H:.12g} at {s.point}"
        )
    try:
        np.linalg.cholesky(M_V)
    except np.linalg.LinAlgError:
        raise ConditioningError(f"M_V is not positive definite at {s.point}")

    oriented = False
    if toward is not None:
        v = _orientation_direction(s, toward, land)
        t = float(xi @ v)
        if abs(t) <= 1e-8 * np.linalg.norm(v):
            raise ConditioningError(
                f"orientation probe at {s.point} is orthogonal to xi"
            )
        if t < 0:
            xi = -xi
        oriented = True
    elif xi[j] < 0:
        xi = -xi

    xi.setflags(write=False)
    M_V.setflags(write=False)
    return SaddleSpectralData(saddle=s, mu=mu, xi=xi, lambda1=lam1,
                              M_V=M_V, oriented=oriented)


def _orientation_direction(s: CriticalPoint, toward, land: Landscape | None):
    """Direction from s toward the well side, sharpened by one descent step."""
    p = np.asarray(toward, dtype=float)
    v = p - s.point
    if land is not None:
        g = land.grad_V_at(p)[0]
        gn = float(np.linalg.norm(g))
        if gn > 1e-14:
            q = p - (1e-3 * land.halfwidth / gn) * g
            if np.linalg.norm(q - s.point) > 1e-12:
                v = q - s.point
    if np.linalg.norm(v) < 1e-14:
        raise ConditioningError(
            f"orientation probe coincides with the saddle at {s.point}"
        )
    return v


def transverse_map(land: Landscape, wm: WellMap) -> dict[int, SaddleSpectralData]:
    """Oriented transverse data for every saddle appearing in some j(m),
    keyed by id() of the saddle's CriticalPoint."""
    out: dict[int, SaddleSpectralData] = {}
    for w in wm.wells:
        for sad, near, _far in w.saddle_sides:
            if id(sad) in out:
                continue
            B = land.jac_b_at(sad.point)
            out[id(sad)] = transverse_data(sad, B, toward=near, land=land)
    return out


# ---------------------------------------------------------------------------
# Eyring-Kramers predictions

@dataclass(frozen=True)
class EkPrediction:
    """Sharp small-eigenvalue prediction for one labelled minimum."""

    minimum: CriticalPoint
    S: float                   # barrier; +inf for the global minimum
    zeta: float                # prefactor; 0 for the global minimum
    lam: float                 # zeta * exp(-S/h)
    h: float


def prefactor(
    well: LabelledWell,
    wm: WellMap,
    data: Mapping[int, SaddleSpectralData],
) -> float:
    """zeta(m) for a non-global labelled well."""
    if well.is_global:
        raise ValueError("the global minimum has no escape prefactor")
    report = check_generic(wm)
    if not report.generic and not report.double_well_equal_depth:
        raise UnsupportedCaseError(
            "sharp prefactor requires a generic well map or the equal-depth "
            f"double well; found: {'; '.join(report.violations)}"
        )
    front = math.sqrt(float(np.linalg.det(well.minimum.hessian)))
    if report.double_well_equal_depth:
        other = wm.global_well.minimum
        front += math.sqrt(float(np.linalg.det(other.hessian)))
    total = 0.0
    for sad in well.saddles:
        ds = data[id(sad)]
        total += ds.abs_mu / math.sqrt(abs(float(np.linalg.det(sad.hessian))))
    return front / (2.0 * math.pi) * total


def predict_spectrum(
    wm: WellMap,
    data: Mapping[int, SaddleSpectralData],
    h: float,
) -> list[EkPrediction]:
    """One prediction per labelled minimum, in labelling (round) order.

    ``data`` is the ``transverse_map`` of the well map.  The global minimum
    gets the exact kernel eigenvalue 0; every other well m gets
    zeta(m) * exp(-S(m)/h).
    """
    if not 0.0 < h <= 1.0:
        raise ValueError(f"h must lie in (0, 1], got {h}")
    out: list[EkPrediction] = []
    for w in sorted(wm.wells, key=lambda w: w.round_index):
        if w.is_global:
            out.append(EkPrediction(minimum=w.minimum, S=math.inf,
                                    zeta=0.0, lam=0.0, h=h))
        else:
            z = prefactor(w, wm, data)
            out.append(EkPrediction(minimum=w.minimum, S=w.barrier, zeta=z,
                                    lam=z * math.exp(-w.barrier / h), h=h))
    return out
