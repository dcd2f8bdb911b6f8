"""Graded matrices: block-scaled perturbations and spectral localization.

A graded matrix is M = Omega (M' + E) Omega with M' = diag(M_1..M_p)
block-diagonal, Omega = diag(eps_j I_{r_j}) built from cumulative scales
eps_1 = 1, eps_j = tau_2 ... tau_j, and a perturbation E of norm O(h).
Its spectrum splits into clusters eps_j^2 (sigma(M_j) + O(h)), one disc per
distinct block eigenvalue, with multiplicities preserved.  The clusters can
be computed without a dense solve by peeling Schur complements level by
level; with the spectral parameter folded in, the peeled eigenvalues agree
with the dense ones to machine precision.

The Monte-Carlo self-test measures its seeded random instances in
contiguous ranges fanned out by ``forked.starmap``, each range drawing
the instances before it again, so no measurement depends on the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forked


class GradedError(ValueError):
    """Structure or localization preconditions violated."""


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GradedError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class GradedStructure:
    """Block targets M_1..M_p, scales tau_2..tau_p, perturbation size h."""

    blocks: tuple
    tau: tuple
    h: float

    def __post_init__(self):
        blocks = tuple(_as_matrix(b, f"block {j + 1}")
                       for j, b in enumerate(self.blocks))
        object.__setattr__(self, "blocks", blocks)
        tau = tuple(float(t) for t in self.tau)
        object.__setattr__(self, "tau", tau)
        if len(blocks) == 0:
            raise GradedError("need at least one block")
        if len(tau) != len(blocks) - 1:
            raise GradedError(
                f"expected {len(blocks) - 1} scale factors for "
                f"{len(blocks)} blocks, got {len(tau)}"
            )
        if any(not 0.0 < t < 1.0 for t in tau):
            raise GradedError("every tau must lie in (0, 1)")
        if self.h < 0:
            raise GradedError("h must be nonnegative")
        for j, b in enumerate(blocks):
            sv = np.linalg.svd(b, compute_uv=False)
            if sv[-1] <= 1e-12 * max(1.0, sv[0]):
                raise GradedError(f"block {j + 1} is numerically singular")
            _, W = np.linalg.eig(b)
            if np.linalg.cond(W) > 1e12:
                raise GradedError(f"block {j + 1} is not diagonalizable")

    @property
    def p(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> tuple:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def size(self) -> int:
        return sum(self.r)

    @property
    def epsilons(self) -> np.ndarray:
        return np.concatenate([[1.0], np.cumprod(self.tau)])

    def omega_diag(self) -> np.ndarray:
        return np.repeat(self.epsilons, self.r)

    def target(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        at = 0
        for b in self.blocks:
            r = b.shape[0]
            out[at:at + r, at:at + r] = b
            at += r
        return out


def _derived(blocks: tuple, tau: tuple, h: float) -> GradedStructure:
    """A structure over blocks and scales of one that passed validation.

    The blocks are already float matrices that cleared the SVD, eig and
    cond checks of ``__post_init__``, and callers pass h >= 0, so none of
    the checks run again.
    """
    out = object.__new__(GradedStructure)
    object.__setattr__(out, "blocks", blocks)
    object.__setattr__(out, "tau", tau)
    object.__setattr__(out, "h", h)
    return out


def assemble_graded(structure: GradedStructure, perturbation) -> np.ndarray:
    """Omega (M' + E) Omega for a perturbation E with ||E|| = O(h)."""
    E = np.asarray(perturbation, dtype=float)
    n = structure.size
    if E.shape != (n, n):
        raise GradedError(f"perturbation shape {E.shape} != ({n}, {n})")
    om = structure.omega_diag()
    return (structure.target() + E) * np.outer(om, om)


# ---------------------------------------------------------------------------
# Peeling

@dataclass(frozen=True)
class PeeledForm:
    """One level of Schur peeling: M = [[J, B_upper], [B_lower, N]] and
    Z = N - B_lower J^-1 B_upper.  ``substructure`` describes Z / tau_2^2 as
    a graded matrix over the remaining blocks; its ``h`` records the actual
    norm of the residual perturbation."""

    J: np.ndarray
    B_upper: np.ndarray
    B_lower: np.ndarray
    N: np.ndarray
    Z: np.ndarray
    substructure: GradedStructure


def peel(M, structure: GradedStructure) -> PeeledForm:
    """Split off the leading block of a graded matrix."""
    if structure.p < 2:
        raise GradedError("peeling needs at least two blocks")
    M = np.asarray(M, dtype=float)
    r1 = structure.r[0]
    J = M[:r1, :r1]
    B_upper = M[:r1, r1:]
    B_lower = M[r1:, :r1]
    N = M[r1:, r1:]
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise GradedError(
            "leading block J(h) is singular: h too large relative to "
            "min |sigma(M_1)|"
        )
    Z = N - B_lower @ np.linalg.solve(J, B_upper)

    t2 = structure.tau[0]
    sub = _derived(structure.blocks[1:], structure.tau[1:], structure.h)
    om = sub.omega_diag()
    resid = (Z / t2**2) / np.outer(om, om) - sub.target()
    sub = _derived(sub.blocks, sub.tau, float(np.linalg.norm(resid, 2)))
    return PeeledForm(J=J, B_upper=B_upper, B_lower=B_lower, N=N, Z=Z,
                      substructure=sub)


def _plain_cluster_estimates(M, structure: GradedStructure) -> list:
    """First-pass per-block eigenvalue estimates from repeated peeling."""
    out = []
    cur, sub, scale = np.asarray(M, dtype=float), structure, 1.0
    while True:
        if sub.p == 1:
            out.append(scale * np.linalg.eigvals(cur))
            return out
        pf = peel(cur, sub)
        out.append(scale * np.linalg.eigvals(pf.J))
        scale *= sub.tau[0] ** 2
        cur = pf.Z / sub.tau[0] ** 2
        sub = pf.substructure


def _refine_once(M, structure: GradedStructure, j: int, lams: list) -> list:
    """One fixed-point sweep for every estimate ``lams`` of cluster j.

    Folding the spectral parameter into each Schur complement makes the
    reduction exact: lam is an eigenvalue of M iff it is one of the fully
    folded block.  Levels above j are eliminated with shifted complements,
    levels below j with one downward complement.  The estimates are swept
    as one stack: ``solve`` and ``eigvals`` run the same LAPACK call per
    matrix as on one, so each result is that of its own sweep.
    """
    r, tau = structure.r, structure.tau
    eps2 = structure.epsilons ** 2
    M = np.asarray(M, dtype=complex)
    cur = np.broadcast_to(M, (len(lams), *M.shape))
    for t in range(j - 1):
        r1 = r[t]
        shift = np.array([lam / eps2[t] for lam in lams])[:, None, None]
        Jb = cur[:, :r1, :r1] - shift * np.eye(r1)
        Z = cur[:, r1:, r1:] - cur[:, r1:, :r1] @ np.linalg.solve(
            Jb, cur[:, :r1, r1:])
        cur = Z / tau[t] ** 2
    shift = np.array([lam / eps2[j - 1] for lam in lams])[:, None, None]
    r1 = r[j - 1]
    if cur.shape[1] > r1:
        tail = cur[:, r1:, r1:] - shift * np.eye(cur.shape[1] - r1)
        S = cur[:, :r1, :r1] - cur[:, :r1, r1:] @ np.linalg.solve(
            tail, cur[:, r1:, :r1])
    else:
        S = cur
    w = np.linalg.eigvals(S)
    nearest = np.argmin(np.abs(w - shift[:, :, 0]), axis=1)
    return (eps2[j - 1] * w[np.arange(len(lams)), nearest]).tolist()


REFINE_SWEEPS = 3   # fixed-point sweeps after the plain Schur recursion


def spectrum_by_peeling(M, structure: GradedStructure) -> list:
    """Per-block eigenvalue arrays (raw scale) via recursive peeling.

    The plain Schur recursion (``_plain_cluster_estimates``) is accurate to
    O(eps_j^2 tau^2 h^2); each of the REFINE_SWEEPS refinement sweeps
    folds the current estimate back into the complements and converges to
    the dense spectrum.
    """
    out = []
    for j, lams in enumerate(_plain_cluster_estimates(M, structure), start=1):
        cur = np.asarray(lams, dtype=complex).tolist()
        for _ in range(REFINE_SWEEPS):
            cur = _refine_once(M, structure, j, cur)
        out.append(np.array(cur))
    return out


# ---------------------------------------------------------------------------
# Cluster localization

TAU0 = 0.1      # largest scale ratio tau_j of the localization regime
H0 = 0.01       # largest perturbation size h of the regime


@dataclass(frozen=True)
class Cluster:
    block: int            # 1-based block index j
    center: complex       # eps_j^2 * lambda
    radius: float         # K * eps_j^2 * h
    count: int            # dense eigenvalues found inside, = multiplicity


@dataclass(frozen=True)
class ClusterReport:
    clusters: tuple
    eigenvalues: np.ndarray
    assignment: np.ndarray    # index into clusters of each eigenvalue's disc
    resolvent_probes: tuple   # (z, ||(M-z)^-1|| * dist(z, sigma(M))) pairs


def default_K(structure: GradedStructure) -> float:
    return 10.0 * (1.0 + max(np.linalg.norm(b, 2) for b in structure.blocks))


def _block_eigengroups(block, tol) -> list:
    """Distinct eigenvalues of one block with multiplicities."""
    w = np.sort_complex(np.linalg.eigvals(block))
    groups = []
    for lam in w:
        if groups and abs(lam - groups[-1][0]) <= tol:
            groups[-1][1] += 1
        else:
            groups.append([lam, 1])
    return [(complex(c), int(m)) for c, m in groups]


def localized_spectrum(M, structure: GradedStructure) -> ClusterReport:
    """Assign every eigenvalue of M to its cluster disc and verify counts.

    The structure must lie in the theorem's regime, every tau <= 0.1 and
    h <= 0.01.  Discs are D(eps_j^2 lambda, K eps_j^2 h) over distinct
    block eigenvalues lambda, with K = default_K(structure); they must be
    pairwise disjoint, every dense eigenvalue must fall in exactly one,
    and the count in each disc must equal the block multiplicity.
    Midpoints between neighbouring discs double as probe points for the
    resolvent bound.
    """
    M = np.asarray(M, dtype=float)
    if any(t > TAU0 for t in structure.tau):
        raise GradedError(f"tau exceeds the localization regime tau0 = {TAU0}")
    if structure.h > H0:
        raise GradedError(f"h = {structure.h} exceeds the regime h0 = {H0}")
    K = default_K(structure)

    eps2 = structure.epsilons ** 2
    clusters = []
    for j, block in enumerate(structure.blocks, start=1):
        tol = 1e-6 * (1.0 + np.linalg.norm(block, 2))
        for lam, mult in _block_eigengroups(block, tol):
            clusters.append([j, eps2[j - 1] * lam, K * eps2[j - 1] * structure.h,
                             mult, 0])

    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            gap = abs(clusters[a][1] - clusters[b][1])
            if gap <= clusters[a][2] + clusters[b][2]:
                raise GradedError(
                    f"cluster discs at {clusters[a][1]:.6g} and "
                    f"{clusters[b][1]:.6g} overlap; reduce tau or h"
                )

    eigenvalues = np.linalg.eigvals(M)
    assignment = []
    for lam in eigenvalues:
        hit = [k for k, c in enumerate(clusters) if abs(lam - c[1]) <= c[2]]
        if not hit:
            raise GradedError(
                f"eigenvalue {lam:.8g} lies outside every cluster disc; "
                "tau or h too large for the localization theorem"
            )
        clusters[hit[0]][4] += 1
        assignment.append(hit[0])

    report_clusters = []
    for j, center, radius, expected, count in clusters:
        if count != expected:
            raise GradedError(
                f"cluster at {center:.6g} holds {count} eigenvalues, "
                f"expected multiplicity {expected}"
            )
        report_clusters.append(Cluster(block=j, center=complex(center),
                                       radius=float(radius), count=count))

    probes = []
    order = sorted(report_clusters, key=lambda c: abs(c.center))
    for ca, cb in zip(order, order[1:]):
        z = 0.5 * (ca.center + cb.center)
        dist = float(np.min(np.abs(eigenvalues - z)))
        sv = np.linalg.svd(M - z * np.eye(M.shape[0]), compute_uv=False)
        probes.append((complex(z), float(dist / sv[-1])))

    assert sum(c.count for c in report_clusters) == structure.size
    return ClusterReport(clusters=tuple(report_clusters),
                         eigenvalues=eigenvalues,
                         assignment=np.array(assignment),
                         resolvent_probes=tuple(probes))


# ---------------------------------------------------------------------------
# Random instances and self-test

_PALETTE = np.array([-4.5, -1.5, 1.5, 4.5])


def random_instance(rng, p_max: int = 4, r_max: int = 4):
    """Random (structure, unit perturbation) pair inside the theorem regime.

    Scales tau are drawn from [0.05, TAU0] and h from [0.2 H0, H0], with
    TAU0 = 0.1 and H0 = 0.01, the regime ``localized_spectrum`` accepts.
    Block spectra are drawn from a palette with gaps >= 3 so that the
    default-K discs stay disjoint; eigenvector bases are kept well
    conditioned; occasionally a 2x2 block gets a complex-conjugate pair.
    """
    p = int(rng.integers(2, p_max + 1))
    blocks = []
    for _ in range(p):
        r = int(rng.integers(1, r_max + 1))
        if r == 2 and rng.random() < 0.25:
            a, th = 3.0, rng.uniform(0.6, 1.2)
            blocks.append(a * np.array([[np.cos(th), -np.sin(th)],
                                        [np.sin(th), np.cos(th)]]))
            continue
        k = int(rng.integers(1, min(len(_PALETTE), r) + 1))
        vals = rng.permutation(_PALETTE)[:k]
        mult = np.full(k, 1)
        for _ in range(r - k):
            mult[rng.integers(0, k)] += 1
        diag = np.repeat(vals, mult)
        while True:
            W = np.eye(r) + 0.1 * rng.normal(size=(r, r))
            if np.linalg.cond(W) < 2.0:
                break
        blocks.append(W @ np.diag(diag) @ np.linalg.inv(W))
    tau = tuple(rng.uniform(0.05, TAU0) for _ in range(p - 1))
    h = float(rng.uniform(0.2 * H0, H0))
    structure = GradedStructure(blocks=tuple(blocks), tau=tau, h=h)
    E = rng.normal(size=(structure.size, structure.size))
    E /= np.linalg.norm(E, 2)
    return structure, E


def _cluster_distances(report: ClusterReport) -> np.ndarray:
    """Distance of each eigenvalue to the center of its cluster."""
    return np.array([abs(lam - report.clusters[k].center)
                     for lam, k in zip(report.eigenvalues, report.assignment)])


def _measure_instance(rng):
    """Draw one random instance and measure it for ``selftest``.

    Returns (K needed, shrink ratio h -> h/10, peeled vs dense relative
    error, largest resolvent probe ratio), or None when its clusters
    failed to localize.
    """
    structure, E = random_instance(rng)
    M = assemble_graded(structure, structure.h * E)
    try:
        report = localized_spectrum(M, structure)
    except GradedError:
        return None
    blocks = np.array([report.clusters[k].block for k in report.assignment])
    dists = _cluster_distances(report)
    scale = (structure.epsilons ** 2)[blocks - 1]
    k_needed = float(np.max(dists / (scale * structure.h)))
    probe = max((r for _, r in report.resolvent_probes), default=0.0)

    small = _derived(structure.blocks, structure.tau, structure.h / 10.0)
    M_small = assemble_graded(small, small.h * E)
    report_small = localized_spectrum(M_small, small)
    d0 = float(np.max(dists))
    d1 = float(np.max(_cluster_distances(report_small)))
    shrink = d0 / max(d1, 1e-300)

    peeled = spectrum_by_peeling(M, structure)
    err = 0.0
    for j, cl_lams in enumerate(peeled, start=1):
        a = np.sort_complex(np.asarray(cl_lams))
        b = np.sort_complex(report.eigenvalues[blocks == j])
        err = max(err, float(np.max(np.abs(a - b) / np.abs(b))))
    return k_needed, shrink, err, probe


def _measure_range(seed: int, start: int, stop: int) -> list:
    """Instances start..stop-1 of the ``seed`` stream, measured; the ones
    before ``start`` are drawn only to bring the stream to ``start``."""
    rng = np.random.default_rng(seed)
    for _ in range(start):
        random_instance(rng)
    return [_measure_instance(rng) for _ in range(start, stop)]


def measure_instances(instances: int, seed: int) -> list:
    """The per-instance measurements ``selftest`` summarizes, in order,
    from at most ``forked.usable_cpus()`` contiguous ranges."""
    parts = min(forked.usable_cpus(), instances)
    cuts = [instances * k // parts for k in range(parts + 1)]
    ranges = forked.starmap(_measure_range,
                            ((seed, a, b) for a, b in zip(cuts, cuts[1:])))
    return [m for part in ranges for m in part]


def selftest(measured: list) -> dict:
    """Monte-Carlo verification of the localization theorem.

    Summarizes what ``measure_instances`` returned as a JSON-friendly
    report: cluster-count failures, the smallest disc constant K that
    would have captured every instance, first-order shrinking of
    eigenvalue clusters in h, agreement of peeled and dense spectra, and
    resolvent-probe statistics.
    """
    done = [m for m in measured if m is not None]
    k_needed, shrink_ratios, peel_errors, probes = (
        [m[i] for m in done] for i in range(4))
    return {
        "instances": len(measured),
        "failures": len(measured) - len(done),
        "smallest_K_capturing_all": float(np.max(k_needed)) if k_needed else None,
        "median_K_needed": float(np.median(k_needed)) if k_needed else None,
        "min_shrink_ratio_h_over_h10": float(np.min(shrink_ratios)) if shrink_ratios else None,
        "max_peel_vs_dense_relative_error": float(np.max(peel_errors)) if peel_errors else None,
        "max_resolvent_probe_ratio": max([0.0, *probes]),
    }
