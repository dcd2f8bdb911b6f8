"""Finite-difference form of the generator, stored once per (h, grid).

The matrix assembled is the flat form P: the conjugation of h L by the
ground-state weight e^{-V/2h}, acting on flat L^2.  The Laplacian part is
the standard 5-point stencil -h^2 Delta; in place of the sampled Witten
potential |grad V/2|^2 - h Delta V/2 the diagonal carries the
exponentially fitted sum (h^2/dx^2) sum_e e^{(V_i - V_{i+e})/2h}, which
agrees with it to O(dx^2) and keeps the scheme positivity-structured at
any mesh Peclet number in grad V; the drift contributes
h b_h . (centered difference) plus the zeroth-order term b_h . grad V / 2
evaluated symbolically.

The weighted generator -h Delta + grad V . grad + b_h . grad on
L^2(m_h) is derived from P on each use by the exact entrywise similarity
L_ij = P_ij e^{(V_i - V_j)/2h} / h.  Spectra therefore satisfy
eig(P) = h eig(L) to machine precision, and for the preset drifts the
weighted drift part is exactly antisymmetric, so Re<Lu, u>_w equals the
(nonnegative) discrete Dirichlet form.

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

from .landscape import Landscape, find_critical_points


class DiscretizationError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-halfwidth, halfwidth]^2, row-major nodes."""

    halfwidth: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise DiscretizationError("grid needs at least 16 nodes per axis")
        if not self.halfwidth > 0:
            raise DiscretizationError("halfwidth must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / (self.n - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.n)

    @property
    def size(self) -> int:
        return self.n * self.n

    def points(self) -> np.ndarray:
        X, Y = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def index(self, i: int, j: int) -> int:
        return i * self.n + j

    def ij_of(self, point) -> tuple[int, int]:
        """(i, j) of the node nearest to ``point``, clipped to the box."""
        p = np.asarray(point, dtype=float)
        ij = np.clip(np.rint((p + self.halfwidth) / self.spacing).astype(int),
                     0, self.n - 1)
        return int(ij[0]), int(ij[1])

    def node_of(self, point) -> int:
        return self.index(*self.ij_of(point))

    def boundary_mask(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=bool)
        m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
        return m.ravel()


@dataclass(frozen=True)
class OperatorMatrix:
    """The flat form P at one h; the weighted generator L is ``matrix``."""

    flat: sp.csc_matrix          # P, in the format the LU factor takes
    h: float
    grid: Grid
    weights: np.ndarray          # m_h node weights: sum w_i dx^2 = 1
    V_nodes: np.ndarray

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


def _peclet_guard(land: Landscape, h: float, grid: Grid, V, pts, criticals):
    """Refuse when the centered-differenced drift is under-resolved.

    Only b_h is discretized by centered differences (the grad V transport
    sits in the fitted exponential weights), so the mesh Peclet number
    dx |b_h| / 2h is checked over the metastability region
    {V <= sigma_max + margin}; the potential far above every saddle only
    feeds the positive fitted diagonal.  |b_h| is sampled at the nodes, so
    a finer grid can see a larger peak: the suggested n is refined until
    this same check accepts it.
    """
    values = [c.value for c in criticals]
    saddle_vals = [c.value for c in criticals if c.is_saddle]
    sigma_max = max(saddle_vals) if saddle_vals else max(values)
    top = sigma_max + 0.25 * max(sigma_max - min(values), 1.0)

    def peclet(g: Grid, nodes, V_nodes) -> float:
        bh = land.b_h_at(nodes[V_nodes <= top], h)
        peak = float(np.max(np.linalg.norm(bh, axis=1), initial=0.0))
        return g.spacing * peak / (2.0 * h)

    pe = pe_need = peclet(grid, pts, V)
    need = grid.n
    while pe_need > 1.0:
        need = int(math.ceil((need - 1) * pe_need)) + 1
        probe = Grid(grid.halfwidth, need)
        nodes = probe.points()
        pe_need = peclet(probe, nodes, land.V_at(nodes))
    if need > grid.n:
        # imported here: only a refusal needs it
        from decimal import ROUND_CEILING, Decimal

        # rounded up, so a refused grid never reads 1.00
        shown = Decimal(pe).quantize(Decimal("0.01"), rounding=ROUND_CEILING)
        raise DiscretizationError(
            f"mesh Peclet number {shown} > 1 for the drift term; "
            f"refine the grid to n >= {need} or increase h"
        )


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
    pts = grid.points()
    V = land.V_at(pts)
    _peclet_guard(land, h, grid, V, pts, criticals)

    interior = ~grid.boundary_mask()
    idx = np.flatnonzero(interior)
    bh = land.b_h_at(pts[idx], h)

    diag = np.zeros(N)
    diag[~interior] = 1.0                       # Dirichlet rows
    rows, cols, pvals = [], [], []
    for off, axis, sign in ((n, 0, +1), (-n, 0, -1), (1, 1, +1), (-1, 1, -1)):
        nb = idx + off
        efac = np.exp((V[idx] - V[nb]) / (2.0 * h))
        diag[idx] += (h * h / dx**2) * efac
        # homogeneous Dirichlet: couplings into boundary columns are
        # eliminated, the fitted diagonal term stays
        keep = interior[nb]
        rows.append(idx[keep])
        cols.append(nb[keep])
        pvals.append(-h * h / dx**2
                     + sign * h * bh[keep, axis] / (2.0 * dx))
    # zeroth-order drift term b_h . grad phi = (b + h nu) . grad V / 2
    zo = (0.5 * land.evaluate(land.b_dot_grad_V, pts[idx])
          + 0.5 * h * land.evaluate(land.nu_dot_grad_V, pts[idx]))
    diag[idx] += zo

    P = sp.coo_matrix(
        (np.concatenate(pvals + [diag]),
         (np.concatenate(rows + [np.arange(N)]),
          np.concatenate(cols + [np.arange(N)]))),
        shape=(N, N),
    ).tocsc()

    w = np.exp(-(V - V.min()) / h)
    w /= w.sum() * dx**2
    return OperatorMatrix(flat=P, h=h, grid=grid, weights=w, V_nodes=V)


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
                   threshold: float | None = None,
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
    the sorted real parts when no explicit ``threshold`` is given; the
    first excluded real part is reported as the gap witness.
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
        norms = np.sqrt(op.weights @ np.abs(u) ** 2 * op.quadrature)
        vecs = u / np.maximum(norms, 1e-300)

    re = vals.real
    if threshold is None:
        jumps = np.diff(re)
        k = int(np.argmax(jumps))
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
