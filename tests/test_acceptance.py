"""End-to-end acceptance battery: nine checks, one verdict line each.

Every test prints a single ``[check k/9] name: PASS/FAIL (numbers)`` line
(run with ``-s`` to watch them stream) and backs the verdict with asserts
carrying the same tolerances, so a FAIL line always arrives together with
a pytest failure naming the violated clause.

The nine checks:

1. transverse saddle structure on 500 random drift Jacobians (< 2 s)
2. graded block-localization self-test, 200 random instances (< 30 s)
3. sharp rate asymptotics vs discretized spectra, tilted well, 192^2
4. metastable eigenvalue counting on single / double / triple wells
5. quasimode norms, Dirichlet forms, residual scaling, interaction, Gram
6. semigroup decay rate against lambda_2 of the same operator
7. simulated hitting times against 1/lambda_2 plus a dt-halving audit
8. flat Schroedinger form and weighted generator share their spectrum
9. symbolic derivatives vs finite differences; stationarity validator

Heavy inputs (well maps, 192^2 operators, the 2000-trial hitting runs)
come from the session fixtures in conftest.py and are shared with the
per-module tests, so running the full suite costs no more than running
its parts.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from test_expr import random_tame_expr

from kramers_lab import expr as ex
from kramers_lab.analysis import Analysis
from kramers_lab.discretize import (
    Grid,
    remove_weighted_mean,
    semigroup_decay,
    small_spectrum,
)
from kramers_lab.expr import EvalError, differentiate, evaluate
from kramers_lab.graded import measure_instances, selftest
from kramers_lab.landscape import (
    CriticalPoint,
    Landscape,
    make_preset,
    validate_stationarity,
)
from kramers_lab.quasimode import (
    build_cutoffs,
    build_quasimode,
    constant_quasimode,
    dirichlet_and_residuals,
    interaction_matrix,
)
from kramers_lab.saddle import transverse_data


def _verdict(num, name, breaches, detail):
    ok = not breaches
    line = f"[check {num}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line + " -- " + "; ".join(breaches)


# ---------------------------------------------------------------------------
# 1. transverse structure at index-1 saddles


def test_01_transverse_saddle_structure():
    """500 random (Hessian, B = J Hessian) pairs, J antisymmetric."""
    rng = np.random.default_rng(101)
    breaches = []
    worst_det = worst_id = 0.0
    t0 = time.perf_counter()
    for k in range(500):
        th = rng.uniform(0.0, 2.0 * math.pi)
        co, si = math.cos(th), math.sin(th)
        Q = np.array([[co, -si], [si, co]])
        a, b = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=2))
        H = Q @ np.diag([-a, b]) @ Q.T
        H = 0.5 * (H + H.T)
        gamma = float(rng.uniform(-3.0, 3.0))
        J = np.array([[0.0, gamma], [-gamma, 0.0]])
        B = J @ H

        s = CriticalPoint(point=np.zeros(2), value=0.0, hessian=H, index=1)
        data = transverse_data(s, B)  # raises on any structural violation

        # re-derive the five facts independently of the constructor's guards
        A = H + B.T
        ev = np.linalg.eigvals(A)
        neg = ev[ev.real < 0.0]
        if len(neg) != 1 or abs(neg[0].imag) > 1e-10 * np.linalg.norm(A):
            breaches.append(f"pair {k}: negative mode of Hess+B^T not unique/real")
        det_H = float(np.linalg.det(H))
        worst_det = max(worst_det,
                        abs(np.linalg.det(data.M_V) + det_H) / abs(det_H))
        if np.min(np.linalg.eigvalsh(data.M_V)) <= 0.0:
            breaches.append(f"pair {k}: M_V not positive definite")
        if data.abs_mu < abs(data.lambda1) * (1.0 - 1e-12):
            breaches.append(f"pair {k}: |mu| < |lambda_1|")
        q = float(np.linalg.solve(H, data.xi) @ data.xi)
        worst_id = max(worst_id, abs(q * data.mu - 1.0))
    wall = time.perf_counter() - t0
    if worst_det > 1e-10:
        breaches.append(f"det M_V defect {worst_det:.2e} > 1e-10")
    if worst_id > 1e-10:
        breaches.append(f"mu <Hess^-1 xi, xi> defect {worst_id:.2e} > 1e-10")
    if wall >= 2.0:
        breaches.append(f"runtime {wall:.2f}s >= 2s")
    _verdict(1, "transverse saddle structure, 500 random drifts", breaches,
             f"det defect {worst_det:.1e}, identity defect {worst_id:.1e}, "
             f"{wall:.2f}s")


# ---------------------------------------------------------------------------
# 2. graded block localization


def test_02_graded_localization_selftest():
    """200 random graded matrices against a dense eigensolver oracle."""
    t0 = time.perf_counter()
    rep = selftest(measure_instances(200, 0))
    wall = time.perf_counter() - t0
    breaches = []
    if rep["failures"] != 0:
        breaches.append(f"{rep['failures']} cluster-count failures")
    if rep["min_shrink_ratio_h_over_h10"] < 5.0:
        breaches.append(
            f"cluster shrink {rep['min_shrink_ratio_h_over_h10']:.2f} < 5")
    if rep["max_peel_vs_dense_relative_error"] > 1e-8:
        breaches.append(
            f"peel vs dense {rep['max_peel_vs_dense_relative_error']:.1e}")
    if wall >= 30.0:
        breaches.append(f"runtime {wall:.1f}s >= 30s")
    _verdict(2, "graded localization, 200 instances", breaches,
             f"K = {rep['smallest_K_capturing_all']:.2f}, "
             f"shrink x{rep['min_shrink_ratio_h_over_h10']:.1f}, "
             f"{wall:.1f}s")


# ---------------------------------------------------------------------------
# 3. sharp rate vs discretized spectrum


def test_03_rate_asymptotics_tilted(tilted_c0, tilted_c1):
    """lambda_2 of the 192^2 operator against the closed-form rate."""
    hs = (0.2, 0.15, 0.1)
    breaches = []
    devs, lam = {}, {}
    for tag, bu in (("rev", tilted_c0), ("rot", tilted_c1)):
        for h in hs:
            lam2 = float(np.sort(small_spectrum(bu.operator(h, 192), 4)
                                 .eigenvalues.real)[1])
            ek = next(p.lam(h) for p in bu.predictions
                      if p.lam(h) > 0.0)
            lam[tag, h] = lam2
            devs[tag, h] = abs(lam2 / ek - 1.0)
            if devs[tag, h] > 3.0 * math.sqrt(h):
                breaches.append(f"{tag} h={h}: deviation {devs[tag, h]:.3f} "
                                f"> {3.0 * math.sqrt(h):.3f}")
    # worst-case deviation over both drifts shrinks along the h sequence,
    # and each drift improves from the coarsest h to the finest
    worst = [max(devs["rev", h], devs["rot", h]) for h in hs]
    if not worst[0] > worst[1] > worst[2]:
        breaches.append(f"deviation sequence {worst} not decreasing in h")
    for tag in ("rev", "rot"):
        if not devs[tag, 0.1] < devs[tag, 0.2]:
            breaches.append(f"{tag}: no improvement from h=0.2 to h=0.1")

    mu_ratio = (tilted_c1.data[id(tilted_c1.shallow_well.saddles[0])].abs_mu
                / tilted_c0.data[id(tilted_c0.shallow_well.saddles[0])].abs_mu)
    speedup = lam["rot", 0.1] / lam["rev", 0.1]
    if abs(speedup / mu_ratio - 1.0) > 0.10:
        breaches.append(f"rate ratio {speedup:.3f} vs |mu| ratio "
                        f"{mu_ratio:.3f} off by more than 10%")
    _verdict(3, "rate asymptotics, tilted well 192^2", breaches,
             f"deviations {', '.join(f'{w:.3f}' for w in worst)} at "
             f"h = {hs}, rotation speedup {speedup:.3f} vs {mu_ratio:.3f}")


# ---------------------------------------------------------------------------
# 4. eigenvalue counting below the gap


def test_04_small_eigenvalue_counting(sym_double, triple):
    """Count below the observed gap = number of wells; magnitude bound."""
    h = 0.15
    zero = ex.parse("0", 2)
    single = Landscape(V=ex.parse("x^2 + y^2", 2),
                       b=(zero, zero), nu=(zero, zero), halfwidth=2.0,
                       name="single_well")
    one = Analysis(single)

    cases = [
        ("single", one.wm, one.operator(h, 96)),
        ("double", sym_double.wm, sym_double.operator(h, 96)),
        ("triple", triple.wm, triple.operator(h, 128)),
    ]
    breaches = []
    counts, C = [], 0.0
    for name, wm, op in cases:
        n0 = len(wm.wells)
        res = small_spectrum(op, n0 + 3)
        counts.append(f"{name} {res.n0_observed}/{n0}")
        if res.n0_observed != n0:
            breaches.append(f"{name}: {res.n0_observed} eigenvalues below "
                            f"the gap, labelling says {n0}")
        lams = np.sort(res.eigenvalues.real)[:n0]
        finite = [w.barrier for w in wm.wells if math.isfinite(w.barrier)]
        if finite:
            scale = math.sqrt(h) * math.exp(-min(finite) / h)
            C = max(C, float(np.max(np.abs(lams))) / scale)
        elif abs(lams[0]) > 1e-8:
            # no finite barrier: the only small eigenvalue is the kernel
            breaches.append(f"{name}: kernel eigenvalue {lams[0]:.1e}")
    if C > 50.0:
        breaches.append(f"C = {C:.1f} > 50")
    _verdict(4, "eigenvalue counting at h = 0.15", breaches,
             f"{', '.join(counts)}; C = {C:.2f}")


# ---------------------------------------------------------------------------
# 5. quasimode forms


@pytest.fixture(scope="module")
def tilted_geom(tilted_c0):
    # same cutoff scales as the quasimode module tests: the level-set shell
    # of the bump must sit far enough above the saddle for the Laplace
    # asymptotics to dominate down to h = 0.2
    grid = Grid(halfwidth=tilted_c0.land.halfwidth, n=192)
    return build_cutoffs(tilted_c0.shallow_well, tilted_c0.wm, tilted_c0.data,
                         tilted_c0.land, grid, rho0=0.12, delta0=1.1)


def test_05_quasimode_forms(tilted_geom, tilted_c0, triple):
    """Norms, Dirichlet forms, residual scaling, interaction and Gram."""
    well = tilted_c0.shallow_well
    pred = tilted_c0.predictions[1]     # the shallow well's record
    hs = (0.05, 0.1, 0.2)
    breaches = []
    norm_dev = form_dev = 0.0
    rr = []
    for h in hs:
        qm = build_quasimode(well, tilted_geom, tilted_c0.operator(h, 192))
        nr = qm.norm ** 2 / pred.norm_sq(h)
        norm_dev = max(norm_dev, abs(nr - 1.0))
        if not 1.0 / (1.0 + 10.0 * h) <= nr <= 1.0 + 10.0 * h:
            breaches.append(f"h={h}: norm ratio {nr:.3f} outside (1+10h)")
        forms = dirichlet_and_residuals(qm)
        phi_pred = pred.dirichlet(h)
        dr = forms.dirichlet_phi / phi_pred
        form_dev = max(form_dev, abs(dr - 1.0))
        if not 1.0 / (1.0 + 10.0 * h) <= dr <= 1.0 + 10.0 * h:
            breaches.append(f"h={h}: Dirichlet ratio {dr:.3f} outside (1+10h)")
        rr.append(forms.residual_sq / forms.dirichlet_psi)

    hv, rv = np.asarray(hs), np.asarray(rr)
    slope = float(hv @ rv / (hv @ hv))
    r_sq = 1.0 - float(np.sum((rv - slope * hv) ** 2) / np.sum(rv ** 2))
    if r_sq < 0.95:
        breaches.append(f"residual/Dirichlet line R^2 = {r_sq:.3f} < 0.95")

    # triple well: off-diagonal interaction entries vanish, Gram is a small
    # exponentially-decaying perturbation of the identity
    grid = Grid(halfwidth=triple.land.halfwidth, n=96)
    geoms = {id(w): build_cutoffs(w, triple.wm, triple.data, triple.land, grid)
             for w in triple.wm.wells if not w.is_global}
    offs = {}
    for h in (0.1, 0.2):
        op = triple.operator(h, 96)
        qms = [constant_quasimode(w, op) if w.is_global
               else build_quasimode(w, geoms[id(w)], op)
               for w in triple.wm.wells]
        res = interaction_matrix(qms)
        K = res.interaction
        off = np.abs(K - np.diag(np.diag(K)))
        if off.max() > 1e-10 * np.max(np.abs(np.diag(K))):
            breaches.append(f"h={h}: interaction off-diagonal {off.max():.1e}")
        offs[h] = float(np.max(np.abs(res.gram - np.eye(len(K)))))
    c_fit = ((math.log(offs[0.2]) - math.log(offs[0.1]))
             / (1.0 / 0.1 - 1.0 / 0.2))
    if c_fit <= 0.0:
        breaches.append(f"Gram defect grows as h shrinks (c = {c_fit:.3f})")
    _verdict(5, "quasimode norms, forms and interaction", breaches,
             f"norm dev {norm_dev:.3f}, form dev {form_dev:.3f}, "
             f"residual R^2 {r_sq:.3f}, Gram c {c_fit:.2f}")


# ---------------------------------------------------------------------------
# 6. semigroup decay


def test_06_semigroup_decay_rate(tilted_c0):
    """Fitted decay rate of the evolved indicator equals lambda_2."""
    op = tilted_c0.operator(0.15, 96)
    lam2 = float(np.sort(small_spectrum(op, 4).eigenvalues.real)[1])
    sad_x = tilted_c0.shallow_well.saddles[0].point[0]
    u0 = remove_weighted_mean(
        op, (op.grid.points()[:, 0] > sad_x).astype(float))
    rate = semigroup_decay(op, u0, T=3.0 / lam2, dt=0.02 / lam2)
    dev = abs(rate / lam2 - 1.0)
    breaches = [] if dev <= 0.10 else [
        f"decay rate {rate:.5g} vs lambda_2 {lam2:.5g}: {100 * dev:.1f}% off"]
    _verdict(6, "semigroup decay rate at h = 0.15", breaches,
             f"rate/lambda_2 = {rate / lam2:.4f}")


# ---------------------------------------------------------------------------
# 7. hitting times


def test_07_hitting_times_match_rate(sde_tilted, tilted_c0, tilted_c1):
    """Mean first-hitting times sit inside [0.5, 2] / lambda_2."""
    breaches, details = [], []
    for tag, bu in (("c0", tilted_c0), ("c1", tilted_c1)):
        cfg, st = sde_tilted[tag]
        _, st_half = sde_tilted[tag + "_half"]
        lam2 = float(np.sort(small_spectrum(bu.operator(cfg.h, 96), 4)
                             .eigenvalues.real)[1])
        if st.trials < 2000:
            breaches.append(f"{tag}: only {st.trials} trials")
        ratio = st.mean * lam2
        if not 0.5 <= ratio <= 2.0:
            breaches.append(f"{tag}: mean * lambda_2 = {ratio:.2f} "
                            "outside [0.5, 2]")
        gap = abs(st.mean - st_half.mean)
        if gap >= st.stderr:
            breaches.append(f"{tag}: dt-halving moved the mean by {gap:.3f} "
                            f">= stderr {st.stderr:.3f}")
        details.append(f"{tag}: mean*lambda_2 {ratio:.2f}, "
                       f"dt gap {gap:.3f} < se {st.stderr:.3f}")
    _verdict(7, "hitting times at h = 0.2, 2000 trials", breaches,
             "; ".join(details))


# ---------------------------------------------------------------------------
# 8. flat form vs weighted generator


def test_08_flat_form_shares_weighted_spectrum(tilted_c0):
    """10 smallest eigenvalues of the flat form = h x weighted spectrum."""
    h = 0.15
    op = tilted_c0.operator(h, 96)
    eL = np.sort(small_spectrum(op, 10).eigenvalues.real)
    # SciPy's own shift-invert solve of the flat form, independent of
    # small_spectrum's factor, Krylov settings and unconjugation
    eP = np.sort(spla.eigs(op.flat, k=10, sigma=0.0, v0=np.ones(op.grid.size),
                           return_eigenvectors=False).real)
    # the kernel eigenvalue is 0 in exact arithmetic; both solvers return
    # their own ~1e-12 rounding floor there, so the relative comparison
    # carries an absolute floor at 1e-6 of the spectral scale
    scale = np.maximum(np.abs(h * eL), 1e-6 * abs(h * eL[-1]))
    rel = np.abs(eP - h * eL) / scale
    breaches = ([] if np.all(rel <= 1e-6)
                else [f"max relative gap {np.max(rel):.1e} > 1e-6"])
    _verdict(8, "flat form vs weighted generator, 96^2", breaches,
             f"max relative gap {np.max(rel):.1e} over 10 eigenvalues")


# ---------------------------------------------------------------------------
# 9. symbolic calculus and stationarity


def _central(e, point, var, step):
    p_plus, p_minus = list(point), list(point)
    p_plus[var] += step
    p_minus[var] -= step
    return (evaluate(e, p_plus) - evaluate(e, p_minus)) / (2.0 * step)


def _fd(e, point, var, step=1e-4):
    # fourth-order central stencil: plain second-order differences at step
    # 1e-5 hit truncation spikes near 8e-6 on nested-exponential draws,
    # two orders too coarse for the 1e-6 tolerance here
    return (4.0 * _central(e, point, var, step / 2.0)
            - _central(e, point, var, step)) / 3.0


def test_09_symbolic_derivatives_and_stationarity():
    """1000 random expression-point pairs plus the drift validator."""
    rng = np.random.default_rng(424242)
    breaches = []
    checked = skipped = 0
    worst = 0.0
    while checked < 1000:
        dim = int(rng.integers(1, 4))
        e = random_tame_expr(rng, dim, depth=4)
        point = rng.uniform(-2.0, 2.0, size=dim)
        try:
            for i in range(dim):
                g = differentiate(e, i)
                targets = [(g, evaluate(g, point), e, i)]
                for j in range(i, dim):
                    gj = differentiate(g, j)
                    targets.append((gj, evaluate(gj, point), g, j))
                for _, sym, parent, var in targets:
                    if abs(sym) > 1e4:  # badly scaled draw, redraw
                        raise OverflowError
                    fd = _fd(parent, point, var)
                    dev = abs(fd - sym) / max(1.0, abs(sym))
                    worst = max(worst, dev)
                    if dev > 1e-6:
                        breaches.append(
                            f"pair {checked}: FD deviation {dev:.1e}")
        except (EvalError, OverflowError):
            skipped += 1
            continue
        checked += 1

    for name in ("sym_double_well", "tilted_double_well", "triple_well"):
        rep = validate_stationarity(make_preset(name, c=1.0))
        if not rep.passed:
            breaches.append(f"stationarity validator rejected preset {name}")
    zero = ex.parse("0", 2)
    planted = Landscape(V=ex.parse("(x^2-1)^2 + y^2", 2),
                        b=(ex.parse("x", 2), zero), nu=(zero, zero),
                        halfwidth=2.0, name="planted")
    if validate_stationarity(planted).passed:
        breaches.append("validator accepted a drift with b . grad V != 0")
    _verdict(9, "symbolic derivatives and stationarity", breaches,
             f"1000 pairs ({skipped} redrawn), worst FD deviation "
             f"{worst:.1e}")
