"""Finite-difference form of the generator, stored once per (h, grid).

The matrix assembled is the flat form P: the conjugation of h L by the
ground-state weight e^{-V/2h}, acting on flat L^2.  An edge ab of the
5-point stencil has P_ab = -k_ab + h F_ab / 2dx^2.  F_ab is the drift's
flux int b_h . e_ab e^{(Vbar_ab - V)/h} ds through the edge's dual face
(Vbar_ab: the mean of V at a and b; 4-point Gauss-Legendre), and
k_ab = max(h^2/dx^2, h |F_ab| / 2dx^2) its conductance.  The diagonal is
the exponentially fitted sum_b k_ab e^{(V_a - V_b)/2h}, which stands in
for the Witten potential |grad V/2|^2 - h Delta V/2 to O(dx^2).  As
div(b_h e^{-V/h}) = 0, a dual cell's fluxes cancel, so P annihilates
e^{-V/2h} up to quadrature error.  Every off-diagonal is nonpositive at
any mesh Peclet number |F_ab| / 2h, which is reported, not refused.

The weighted generator -h Delta + grad V . grad + b_h . grad on
L^2(m_h) is derived from P on each use by the exact entrywise similarity
L_ij = P_ij e^{(V_i - V_j)/2h} / h, so eig(P) = h eig(L) to machine
precision.  F is antisymmetric and k even in b_h, so the weighted adjoint
of L is exactly the generator with b_h reversed, and Re<Lu, u>_w equals
the (nonnegative) discrete Dirichlet form.

The walls carry homogeneous Dirichlet data; the truncation error is
exponentially small because e^{-V/2h} is negligible there.  P keeps
identity rows on the walls so that L acts on full-grid vectors, but the
solves see only their unknowns: they factor the block P[F, F] on the free
nodes F, so the walls' eigenvalue 1/h never enters a spectrum.

The small spectrum is found by shift-invert Arnoldi around zero on the
flat form, driven by one sparse LU factor per solve.  The weighted matrix
is exponentially non-normal (departure ~ e^{(max V - min V)/2h}) and
direct Krylov iteration on it is unreliable; the factors
e^{(V_i - V_j)/2h} relating the two only involve neighbouring nodes, so P
stays well scaled.  The stencil is structurally symmetric, so the factor
uses a minimum-degree ordering of A^T + A, which fills about half as much
as SuperLU's default COLAMD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import DiscretizationError, Grid
from .landscape import Landscape, find_critical_points


@dataclass(frozen=True)
class OperatorMatrix:
    """The flat form P at one h; the weighted generator L is ``matrix``."""

    flat: sp.csc_matrix          # P, in the format the LU factor takes
    h: float
    grid: Grid
    weights: np.ndarray          # m_h node weights: sum w_i dx^2 = 1
    V_nodes: np.ndarray
    peclet: float                # max |F_ab| / 2h over the drift fluxes

    @property
    def matrix(self) -> sp.csr_matrix:
        """L_ij = P_ij e^{(V_i - V_j)/2h} / h, built on each use: a caller
        binds it once and lets it go, so only P stays with the operator."""
        L = self.flat.tocsr()
        rows = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))
        V = self.V_nodes
        L.data = L.data * np.exp((V[rows] - V[L.indices]) / (2.0 * self.h)) \
            / self.h
        return L

    @property
    def quadrature(self) -> float:
        return self.grid.spacing ** 2

    def inner(self, u, v):
        """<u, v> in L^2(m_h) (conjugate-linear in u)."""
        val = np.sum(np.conj(u) * v * self.weights) * self.quadrature
        return val if np.iscomplexobj(val) else float(val)

    def norm(self, u) -> float:
        return math.sqrt(max(float(np.real(self.inner(u, u))), 0.0))


def remove_weighted_mean(op: OperatorMatrix, u) -> np.ndarray:
    ones = np.ones(op.grid.size)
    return u - (op.inner(ones, u) / op.inner(ones, ones)) * ones


# faces per block of edge rows: the Gauss points of all faces at once would
# set the process's peak memory
_FACE_ROWS = 32
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _face_fluxes(land: Landscape, h: float, grid: Grid, V):
    """F_ab from each node a = (i, j) to b = a + e_x and b = a + e_y, as
    (n-1, n) and (n, n-1) arrays; between two wall nodes it stays zero."""
    n, dx = grid.n, grid.spacing
    axis = grid.axis
    across = axis[1:-1, None] + 0.5 * dx * _GAUSS_NODES     # (n-2, 4)
    fluxes = []
    for a in (0, 1):
        # edge-aligned: row k is the edge from node k to k + 1 along e_a,
        # column l the grid line across it
        Va = V.reshape(n, n) if a == 0 else V.reshape(n, n).T
        Vbar = 0.5 * (Va[:-1, 1:-1] + Va[1:, 1:-1])
        F = np.zeros((n - 1, n))
        for k in range(0, n - 1, _FACE_ROWS):
            rows = slice(k, min(k + _FACE_ROWS, n - 1))
            U, W = np.broadcast_arrays(axis[rows, None, None] + 0.5 * dx,
                                       across)
            pts = np.stack((U, W) if a == 0 else (W, U), -1).reshape(-1, 2)
            bh = (land.evaluate(land.b[a], pts)
                  + h * land.evaluate(land.nu[a], pts)).reshape(U.shape)
            e = np.exp((Vbar[rows, :, None]
                        - land.V_at(pts).reshape(U.shape)) / h)
            F[rows, 1:-1] = 0.5 * dx * (bh * e * _GAUSS_WEIGHTS).sum(axis=-1)
        fluxes.append(F if a == 0 else F.T)
    return fluxes


def assemble(land: Landscape, h: float, grid: Grid,
             criticals=None) -> OperatorMatrix:
    """Build the flat form of the generator on the given grid."""
    if not 0 < h <= 1:
        raise DiscretizationError(f"h must lie in (0, 1], got {h}")
    report = land.stationarity
    if not report.passed:
        raise DiscretizationError(
            f"drift fields are not admissible: {report.describe()}")
    if criticals is None:
        criticals = find_critical_points(land)
    dx = grid.spacing
    for c in criticals:
        if np.max(np.abs(c.point)) > grid.halfwidth - 4 * dx:
            raise DiscretizationError(
                f"critical point at {c.point} is within 4 grid steps of the "
                "boundary; enlarge the box"
            )

    n, N = grid.n, grid.size
    V = land.V_at(grid.points())
    Fx, Fy = _face_fluxes(land, h, grid, V)

    interior = ~grid.boundary_mask()
    idx = np.flatnonzero(interior)
    i, j = np.divmod(idx, n)

    diag = np.zeros(N)
    diag[~interior] = 1.0                       # Dirichlet rows
    rows, cols, pvals = [], [], []
    for off, F in ((n, Fx[i, j]), (-n, -Fx[i - 1, j]),
                   (1, Fy[i, j]), (-1, -Fy[i, j - 1])):
        nb = idx + off
        efac = np.exp((V[idx] - V[nb]) / (2.0 * h))
        # the fitted conductance, raised where the drift flux beats it
        k = np.maximum(h * h / dx**2, h * np.abs(F) / (2.0 * dx**2))
        diag[idx] += k * efac
        # homogeneous Dirichlet: couplings into boundary columns are
        # eliminated, the fitted diagonal term stays
        keep = interior[nb]
        rows.append(idx[keep])
        cols.append(nb[keep])
        pvals.append(-k[keep] + h * F[keep] / (2.0 * dx**2))

    P = sp.coo_matrix(
        (np.concatenate(pvals + [diag]),
         (np.concatenate(rows + [np.arange(N)]),
          np.concatenate(cols + [np.arange(N)]))),
        shape=(N, N),
    ).tocsc()

    w = np.exp(-(V - V.min()) / h)
    w /= w.sum() * dx**2
    peclet = max(np.abs(Fx).max(), np.abs(Fy).max()) / (2.0 * h)
    return OperatorMatrix(flat=P, h=h, grid=grid, weights=w, V_nodes=V,
                          peclet=float(peclet))


# ---------------------------------------------------------------------------
# Small spectrum

@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray      # sorted by real part
    n0_observed: int
    gap_witness: float | None    # smallest excluded real part
    threshold: float
    vectors: np.ndarray | None = None


def _factor_free(op: OperatorMatrix, free: np.ndarray, shift: float):
    """P[F, F], the flat form on the free nodes F (the unknowns of a solve;
    the nodes off F hold zeros), and the LU factor of P[F, F] - shift I."""
    A = op.flat[free][:, free]
    shifted = A - shift * sp.identity(free.size, format="csc") if shift else A
    return A, spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")


def small_spectrum(op: OperatorMatrix, count: int = 6,
                   vectors: bool = False) -> SpectrumResult:
    """Eigenvalues of smallest real part of the weighted generator, by
    shift-invert around zero.

    The solve runs on the interior block of the flat form (symmetric when
    b = 0) and the spectrum is mapped back by the factor h; eigenvectors
    are unconjugated with a log-domain shift so the ground-state weight
    never overflows, and are zero on the walls.

    The block is factored once (``_factor_free``) and ARPACK applies that
    factor as its shift-invert operator.  An exactly singular block is
    factored at the shift -1e-8 instead.  The Krylov space holds
    max(2 count + 1, 20) vectors, capped at one less than the number of
    interior nodes, and ARPACK converges to a relative tolerance of 1e-12.
    ARPACK returns ``count`` values and may cut a conjugate pair in two;
    the missing partner (with the conjugated eigenvector) is appended, so
    ``count`` or ``count + 1`` values come back.

    The metastable cluster is split from the rest at the largest jump in
    the sorted real parts; the first excluded real part is reported as
    the gap witness.
    """
    if count > 20:
        raise ValueError("small-spectrum counts above 20 are not supported")
    if count < 2:
        raise ValueError("small-spectrum counts below 2 leave no jump to "
                         "split the metastable cluster at")
    free = np.flatnonzero(~op.grid.boundary_mask())
    sigma = 0.0
    try:
        A, lu = _factor_free(op, free, sigma)
    except RuntimeError:
        # exactly singular: shift off the kernel eigenvalue
        sigma = -1e-8
        A, lu = _factor_free(op, free, sigma)
    # fixed start vector: ARPACK's internal seed is stateful across calls,
    # which would make repeated runs in one process differ in the last bits
    out = spla.eigs(A, k=count, sigma=sigma, which="LM", tol=1e-12,
                    ncv=min(free.size - 1, max(2 * count + 1, 20)),
                    maxiter=400 * count, v0=np.ones(free.size),
                    OPinv=spla.LinearOperator(A.shape, matvec=lu.solve,
                                              dtype=A.dtype),
                    return_eigenvectors=vectors)
    vals, vecs = (out if vectors else (out, None))
    # P is real: append the partner of any conjugate pair that k cut
    lone = [i for i, v in enumerate(vals)
            if v.imag and v.conjugate() not in vals]
    vals = np.concatenate([vals, vals[lone].conj()])
    if vecs is not None:
        vecs = np.hstack([vecs, vecs[:, lone].conj()])
    order = np.argsort(vals.real)
    vals = vals[order] / op.h
    if vecs is not None:
        # u = e^{V/2h} x, each column scaled by its largest entry
        x = vecs[:, order]
        mag = np.abs(x)
        t = np.log(mag + 1e-300) + op.V_nodes[free, None] / (2.0 * op.h)
        u = np.zeros((op.grid.size, vals.size), dtype=x.dtype)
        u[free] = x / (mag + 1e-300) * np.exp(t - t.max(axis=0))
        # not a gemv: its rounding depends on the column's position
        norms = np.sqrt((op.weights[:, None] * np.abs(u) ** 2).sum(axis=0)
                        * op.quadrature)
        vecs = u / np.maximum(norms, 1e-300)

    re = vals.real
    k = int(np.argmax(np.diff(re)))
    threshold = 0.5 * (re[k] + re[k + 1])
    n0 = int(np.sum(re < threshold))
    excluded = re[re >= threshold]
    witness = float(excluded.min()) if excluded.size else None
    return SpectrumResult(eigenvalues=vals, n0_observed=n0,
                          gap_witness=witness, threshold=float(threshold),
                          vectors=vecs)


# ---------------------------------------------------------------------------
# Dirichlet problems

def solve_dirichlet(op: OperatorMatrix, absorbing, f) -> np.ndarray:
    """u with L u = f off the ``absorbing`` nodes and the walls, u = 0 on
    them; with f = 1 and a target as ``absorbing``, u is the mean
    first-passage time into the target (Dynkin).

    With u = e^{V/2h} v the problem is P_FF v = h e^{-V/2h} f on the free
    nodes F, factored by ``_factor_free`` as small_spectrum's interior
    block is, so the solve stays well scaled.  Both conjugations run
    relative to min V over F, the second in the log domain as
    small_spectrum unconjugates, so no weight overflows.
    """
    free = np.flatnonzero(~(np.asarray(absorbing, dtype=bool)
                            | op.grid.boundary_mask()))
    V = op.V_nodes[free]
    shift = (V - V.min()) / (2.0 * op.h)
    b = op.h * np.asarray(f, dtype=float)[free] * np.exp(-shift)
    v = _factor_free(op, free, 0.0)[1].solve(b)
    u = np.zeros(op.grid.size)
    u[free] = np.sign(v) * np.exp(np.log(np.abs(v) + 1e-300) + shift)
    return u


# ---------------------------------------------------------------------------
# Semigroup decay

def semigroup_decay(op: OperatorMatrix, u0, T: float, dt: float) -> float:
    """Fitted decay rate of ||e^{-tL} u0||_w over the final half of [0, T].

    Crank-Nicolson stepping with a single sparse factorization.  The kernel
    component is re-projected out at every step so the fit sees the slow
    metastable mode and not the numerical floor.
    """
    u = np.asarray(u0, dtype=float).copy()
    nrm = op.norm(u)
    if nrm == 0.0:
        raise DiscretizationError("u0 is zero")
    ones = np.ones(op.grid.size)
    if abs(op.inner(ones, u)) > 1e-8 * nrm:
        raise DiscretizationError("u0 must have zero weighted mean")
    steps = int(round(T / dt))
    if steps < 20:
        raise DiscretizationError("fewer than 20 time steps; decrease dt")
    # accuracy guard: the Rayleigh quotient of u0 sets the fastest rate the
    # fit needs to resolve (Crank-Nicolson is unconditionally stable)
    L = op.matrix
    r0 = float(np.real(op.inner(L @ u, u))) / nrm**2
    if dt * r0 > 0.5:
        raise DiscretizationError(
            f"dt too large to resolve the initial decay rate "
            f"(dt * rate = {dt * r0:.3g} > 0.5); reduce dt"
        )

    L = L.tocsc()
    I = sp.identity(L.shape[0], format="csc")
    lu = spla.splu((I + 0.5 * dt * L).tocsc())
    right = (I - 0.5 * dt * L).tocsr()
    w11 = op.inner(ones, ones)

    times, lognorms = [], []
    for k in range(1, steps + 1):
        u = lu.solve(right @ u)
        u -= (op.inner(ones, u) / w11) * ones
        nu = op.norm(u)
        if nu <= 0.0 or not math.isfinite(nu):
            break
        times.append(k * dt)
        lognorms.append(math.log(nu))
    times_arr = np.array(times)
    sel = times_arr >= 0.5 * times_arr[-1]
    if int(np.sum(sel)) < 10:
        raise DiscretizationError("decay fit window too short")
    slope, _ = np.polyfit(times_arr[sel], np.array(lognorms)[sel], 1)
    return float(-slope)
