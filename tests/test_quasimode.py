"""Quasimode construction and Laplace-asymptotic checks.

The tilted double well at 192^2 with rho0=0.12, delta0=1.1 is the main
workbench: those cutoff scales push the level-set shell of the theta bump
far enough above the saddle that the saddle profile dominates every
weighted form down to h = 0.2 (the shell competes like e^{-3 delta0/2h}).
"""

import math

import numpy as np
import pytest

from kramers_lab import quasimode
from kramers_lab.discretize import Grid
from kramers_lab.quasimode import (
    CutoffGeometry,
    GeometryError,
    QuasimodeError,
    _profile_integral,
    build_cutoffs,
    build_quasimode,
    constant_quasimode,
    default_parameters,
    dirichlet_and_residuals,
    interaction_matrix,
    plateau_bump,
    smoothstep,
)

RHO0, DELTA0 = 0.12, 1.1
N = 192


@pytest.fixture(scope="module")
def tilted_geom(tilted_c0):
    grid = Grid(halfwidth=tilted_c0.land.halfwidth, n=N)
    well = tilted_c0.shallow_well
    return build_cutoffs(well, tilted_c0.wm, tilted_c0.data, tilted_c0.land,
                         grid, rho0=RHO0, delta0=DELTA0)


@pytest.fixture(scope="module")
def tilted_geom_c1(tilted_c1):
    grid = Grid(halfwidth=tilted_c1.land.halfwidth, n=N)
    well = tilted_c1.shallow_well
    return build_cutoffs(well, tilted_c1.wm, tilted_c1.data, tilted_c1.land,
                         grid, rho0=RHO0, delta0=DELTA0)


def _triple_quasimodes(triple, h):
    op = triple.operator(h, 96)
    out = []
    for w in triple.wm.wells:
        if w.is_global:
            out.append(constant_quasimode(w, op))
        else:
            g = build_cutoffs(w, triple.wm, triple.data, triple.land, op.grid)
            out.append(build_quasimode(w, g, op))
    return out


# ---------------------------------------------------------------------------
# glue functions

def test_smoothstep_and_bump_shapes():
    t = np.linspace(-1.0, 2.0, 301)
    s = smoothstep(t)
    assert np.all(np.diff(s) >= 0)
    assert np.all(s[t <= 0] == 0.0) and np.all(s[t >= 1] == 1.0)
    u = np.linspace(-3.0, 3.0, 601)
    chi = plateau_bump(u)
    assert np.all(chi[np.abs(u) <= 1.0] == 1.0)
    assert np.all(chi[np.abs(u) >= 2.0] == 0.0)
    assert np.allclose(chi, chi[::-1])  # even


# ---------------------------------------------------------------------------
# cutoff geometry

def test_two_components_and_membership(tilted_c0):
    # spec-scale parameters: the split set separates shallow from deep side
    grid = Grid(halfwidth=2.0, n=96)
    well = tilted_c0.shallow_well
    geom = build_cutoffs(well, tilted_c0.wm, tilted_c0.data, tilted_c0.land,
                         grid, rho0=0.1, delta0=0.1)
    assert geom.e_plus[grid.node_of(well.minimum.point)]
    assert geom.e_minus[grid.node_of(well.hat_minimum.point)]
    assert well.minimum.value > well.hat_minimum.value  # E+ holds shallow min
    tube = geom.tubes[0].mask
    assert not np.any(tube & (geom.e_plus | geom.e_minus))


def test_membership_stable_under_grid_refinement(tilted_c0):
    well = tilted_c0.shallow_well
    for n in (96, 192):
        grid = Grid(halfwidth=2.0, n=n)
        geom = build_cutoffs(well, tilted_c0.wm, tilted_c0.data,
                             tilted_c0.land, grid)
        assert geom.e_plus[grid.node_of(well.minimum.point)]
        assert geom.e_minus[grid.node_of(well.hat_minimum.point)]


def test_absurd_rho0_swallows_a_well(tilted_c0):
    grid = Grid(halfwidth=2.0, n=96)
    with pytest.raises(GeometryError, match="bisection"):
        build_cutoffs(tilted_c0.shallow_well, tilted_c0.wm, tilted_c0.data,
                      tilted_c0.land, grid, rho0=2.0, delta0=0.5)


def test_default_geometry_halves_its_parameters_until_it_splits(
        tilted_c0, monkeypatch):
    grid = Grid(halfwidth=2.0, n=96)
    args = (tilted_c0.shallow_well, tilted_c0.wm, tilted_c0.data,
            tilted_c0.land, grid)
    # from (2.0, 0.5) the third try, (0.5, 0.125), still fails, so the
    # fourth is the first to split
    with pytest.raises(GeometryError):
        build_cutoffs(*args, rho0=0.5, delta0=0.125)
    direct = build_cutoffs(*args, rho0=0.25, delta0=0.0625)
    monkeypatch.setattr(quasimode, "default_parameters",
                        lambda well, wm: (2.0, 0.5))
    geom = build_cutoffs(*args)
    assert (geom.rho0, geom.delta0) == (0.25, 0.0625)
    assert np.array_equal(geom.e_plus, direct.e_plus)
    assert np.array_equal(geom.e_minus, direct.e_minus)
    # one step further up, the fourth try is (0.5, 0.125): its error is raised
    monkeypatch.setattr(quasimode, "default_parameters",
                        lambda well, wm: (4.0, 1.0))
    with pytest.raises(GeometryError):
        build_cutoffs(*args)
    with pytest.raises(ValueError, match="both rho0 and delta0, or neither"):
        build_cutoffs(*args, rho0=0.25)


def test_misoriented_transverse_vector_rejected(tilted_c0):
    import dataclasses

    well = tilted_c0.shallow_well
    sad = well.saddles[0]
    flipped = dict(tilted_c0.data)
    ds = flipped[id(sad)]
    flipped[id(sad)] = dataclasses.replace(ds, xi=-ds.xi)
    with pytest.raises(GeometryError, match="oriented"):
        build_cutoffs(well, tilted_c0.wm, flipped, tilted_c0.land,
                      Grid(halfwidth=2.0, n=96))


def test_global_well_has_no_geometry(tilted_c0):
    with pytest.raises(ValueError, match="global"):
        build_cutoffs(tilted_c0.wm.global_well, tilted_c0.wm, tilted_c0.data,
                      tilted_c0.land, Grid(halfwidth=2.0, n=96))


# ---------------------------------------------------------------------------
# quasimode values

def test_values_in_range_and_plateau_at_minimum(tilted_geom, tilted_c0):
    well = tilted_c0.shallow_well
    qm = build_quasimode(well, tilted_geom, tilted_c0.operator(0.1, N))
    assert qm.values.min() >= 0.0 and qm.values.max() <= 2.0
    grid = tilted_geom.grid
    assert qm.values[grid.node_of(well.minimum.point)] == 2.0
    assert qm.values[grid.node_of(tilted_c0.wm.global_well.minimum.point)] == 0.0


def test_support_inside_cutoff_sets(tilted_geom, tilted_c0):
    qm = build_quasimode(tilted_c0.shallow_well, tilted_geom,
                         tilted_c0.operator(0.1, N))
    supp = qm.support
    sigma, d0 = tilted_c0.shallow_well.sigma, tilted_geom.delta0
    tube_union = np.zeros_like(supp)
    for tb in tilted_geom.tubes:
        tube_union |= tb.mask
    assert np.all(tilted_geom.V_nodes[supp] < sigma + 2.0 * d0)
    assert np.all(tilted_geom.e_lower[supp])
    assert np.all((tilted_geom.e_plus | tube_union)[supp])


def test_value_near_one_at_saddle_node(tilted_geom, tilted_c0):
    # kappa vanishes at s (odd integrand), so psi(s) = theta(s); the grid
    # node sits within spacing/2 of s, hence the loose window
    well = tilted_c0.shallow_well
    node = tilted_geom.grid.node_of(well.saddles[0].point)
    for h in (0.05, 0.2):
        qm = build_quasimode(well, tilted_geom, tilted_c0.operator(h, N))
        assert abs(qm.values[node] - 1.0) <= 0.12


def test_profile_odd_through_saddle(sym_double):
    # the symmetric well puts the saddle at the origin, so the grid is
    # mirror-symmetric and kappa = psi - 1 must be odd across it
    grid = Grid(halfwidth=2.0, n=96)
    well = sym_double.shallow_well
    geom = build_cutoffs(well, sym_double.wm, sym_double.data,
                         sym_double.land, grid)
    qm = build_quasimode(well, geom, sym_double.operator(0.1, 96))
    n = grid.n
    kappa = (qm.values - 1.0).reshape(n, n)
    tube = geom.tubes[0].mask.reshape(n, n)
    plateau = geom.V_nodes.reshape(n, n) <= well.sigma + 1.5 * geom.delta0
    pair = tube & plateau & tube[::-1, :]
    assert pair.sum() > 100
    assert np.max(np.abs(kappa + kappa[::-1, :])[pair]) <= 1e-10


def _saddle_profile_scales(ana):
    well = ana.shallow_well
    rho0, _ = default_parameters(well, ana.wm)
    return rho0, ana.data[id(well.saddles[0])].abs_mu


# QUADPACK reports round-off at these tolerances; the bound below is what
# its answer is held to.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("fixture", ["tilted_c0", "tilted_c1"])
def test_profile_integral_matches_quad(fixture, h, request):
    from scipy.integrate import quad
    from scipy.special import erf

    rho0, mu = _saddle_profile_scales(request.getfixturevalue(fixture))
    t = np.linspace(rho0, 2.0 * rho0, 1002)[1:-1]
    got, _ = _profile_integral(t, rho0, mu, h)

    s = math.sqrt(mu / (2.0 * h))
    plateau = math.sqrt(math.pi) / (2.0 * s) * erf(s * rho0)

    def f(eta):
        # plateau_bump(eta / rho0) for rho0 < eta < 2 rho0, in scalar math
        # (quad never evaluates the end points)
        u = 2.0 - eta / rho0
        g, gc = math.exp(-1.0 / u), math.exp(-1.0 / (1.0 - u))
        return g / (g + gc) * math.exp(-mu * eta * eta / (2.0 * h))

    mid = np.linspace(rho0, 2.0 * rho0, 9)[1:-1]
    numpy_f = plateau_bump(mid / rho0) * np.exp(-mu * mid**2 / (2.0 * h))
    assert np.allclose([f(x) for x in mid], numpy_f, rtol=1e-15, atol=0.0)

    ref = np.array([plateau + quad(f, rho0, x, epsabs=1e-16, epsrel=1e-15,
                                   limit=200)[0] for x in t])
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


@pytest.mark.parametrize("h", [0.05, 0.2])
def test_profile_integral_is_odd_monotone_and_flat(tilted_c1, h):
    rho0, mu = _saddle_profile_scales(tilted_c1)
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(-3.0 * rho0, 3.0 * rho0, 4000),
                        [0.0, rho0, 2.0 * rho0, 3.0 * rho0]])
    t = np.concatenate([t, -t])
    got, full = _profile_integral(t, rho0, mu, h)
    half = len(t) // 2
    assert np.array_equal(got[:half], -got[half:])
    order = np.argsort(np.abs(t), kind="stable")
    assert np.all(np.diff(np.abs(got)[order]) >= 0.0)
    assert np.all(np.abs(got[np.abs(t) >= 2.0 * rho0]) == full)


def test_constant_quasimode_is_kernel_direction(tilted_c0):
    op = tilted_c0.operator(0.15, 96)
    qg = constant_quasimode(tilted_c0.wm.global_well, op)
    assert qg.norm == pytest.approx(1.0, rel=1e-12)
    Lphi = op.matrix @ qg.phi
    assert math.sqrt(float(np.real(op.inner(Lphi, Lphi)))) <= 1e-3
    with pytest.raises(ValueError, match="global"):
        constant_quasimode(tilted_c0.shallow_well, op)


def test_build_rejects_foreign_well(tilted_geom, tilted_c0):
    with pytest.raises(QuasimodeError, match="different well"):
        build_quasimode(tilted_c0.wm.global_well, tilted_geom,
                        tilted_c0.operator(0.1, N))


# ---------------------------------------------------------------------------
# Laplace asymptotics of the weighted forms

def test_norm_squared_matches_prediction(tilted_geom, tilted_c0):
    well = tilted_c0.shallow_well
    for h in (0.05, 0.1, 0.2):
        qm = build_quasimode(well, tilted_geom, tilted_c0.operator(h, N))
        ratio = qm.norm**2 / tilted_c0.predictions[1].norm_sq(h)
        assert abs(ratio - 1.0) <= 0.5 * h


def test_dirichlet_form_matches_rate_prediction(tilted_geom, tilted_c0):
    well = tilted_c0.shallow_well
    ratios = []
    for h in (0.05, 0.1, 0.2):
        qm = build_quasimode(well, tilted_geom, tilted_c0.operator(h, N))
        forms = dirichlet_and_residuals(qm)
        phi_pred = tilted_c0.predictions[1].dirichlet(h)
        ratio = forms.dirichlet_phi / phi_pred
        assert 1.0 / (1.0 + 10.0 * h) <= ratio <= 1.0 + 10.0 * h
        ratios.append(ratio)
    # quadrature vs closed form converges as h decreases
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[0] == pytest.approx(1.0, abs=0.15)


def test_residual_ratio_is_linear_in_h(tilted_geom, tilted_c0):
    well = tilted_c0.shallow_well
    hs = np.array([0.05, 0.1, 0.2])
    rr = []
    for h in hs:
        qm = build_quasimode(well, tilted_geom,
                             tilted_c0.operator(float(h), N))
        forms = dirichlet_and_residuals(qm)
        rr.append(forms.residual_sq / forms.dirichlet_psi)
    rr = np.array(rr)
    # halving h never increases the ratio by more than 10%
    assert rr[0] <= 1.1 * rr[1] and rr[1] <= 1.1 * rr[2]
    slope = float(hs @ rr) / float(hs @ hs)
    r_sq = 1.0 - float(np.sum((rr - slope * hs) ** 2)) / float(np.sum(rr**2))
    assert r_sq >= 0.95
    # symmetric case: L* = L, so both residuals coincide
    forms = dirichlet_and_residuals(
        build_quasimode(well, tilted_geom, tilted_c0.operator(0.1, N)))
    assert forms.adjoint_residual_sq == pytest.approx(forms.residual_sq,
                                                      rel=1e-10)


def test_adjoint_residual_stays_order_one_nonreversible(tilted_geom_c1,
                                                        tilted_c1):
    # with rotation the adjoint residual does not decay like h; it sits in
    # a fixed band above the forward residual (measured 10.3 .. 18.3)
    well = tilted_c1.shallow_well
    for h in (0.1, 0.15, 0.2):
        qm = build_quasimode(well, tilted_geom_c1, tilted_c1.operator(h, N))
        forms = dirichlet_and_residuals(qm)
        adj = forms.adjoint_residual_sq / forms.dirichlet_psi
        fwd = forms.residual_sq / forms.dirichlet_psi
        assert 5.0 <= adj <= 40.0
        assert adj > fwd


def test_nonreversible_dirichlet_uses_transverse_rate(tilted_geom_c1,
                                                      tilted_c1):
    well = tilted_c1.shallow_well
    for h in (0.1, 0.2):
        qm = build_quasimode(well, tilted_geom_c1, tilted_c1.operator(h, N))
        forms = dirichlet_and_residuals(qm)
        phi_pred = tilted_c1.predictions[1].dirichlet(h)
        ratio = forms.dirichlet_phi / phi_pred
        assert 1.0 / (1.0 + 10.0 * h) <= ratio <= 1.0 + 10.0 * h


def test_build_rejects_foreign_grid_operator(tilted_geom, tilted_c0):
    well = tilted_c0.shallow_well
    with pytest.raises(QuasimodeError, match="grid"):
        build_quasimode(well, tilted_geom, tilted_c0.operator(0.1, 96))


def test_equal_depth_norm_matches_prediction(sym_double):
    # the two minima share m_h equally, so without the equal-depth factor
    # the ratio would be 1/2
    op = sym_double.operator(0.05, 192)
    well = sym_double.shallow_well
    geom = build_cutoffs(well, sym_double.wm, sym_double.data,
                         sym_double.land, op.grid)
    qm = build_quasimode(well, geom, op)
    ratio = qm.norm**2 / sym_double.predictions[1].norm_sq(0.05)
    assert abs(ratio - 1.0) <= 1e-3


# ---------------------------------------------------------------------------
# interaction and Gram structure

def test_triple_well_interaction_offdiagonals_vanish(triple):
    qms = _triple_quasimodes(triple, 0.15)
    res = interaction_matrix(qms)
    K = res.interaction
    diag = np.diag(K)
    off = np.abs(K - np.diag(diag))
    assert off.max() <= 1e-12 * np.max(np.abs(diag))
    # diagonal equals the standalone quadrature
    for j, qm in enumerate(qms):
        if qm.well.is_global:
            continue
        forms = dirichlet_and_residuals(qm)
        assert K[j, j] == pytest.approx(forms.dirichlet_phi, rel=1e-12)


def test_gram_identity_plus_exponentially_small(triple):
    offs = {}
    for h in (0.1, 0.2):
        res = interaction_matrix(_triple_quasimodes(triple, h))
        G = res.gram
        assert np.allclose(np.diag(G), 1.0, atol=1e-12)
        assert np.allclose(G, G.T, atol=1e-14)
        offs[h] = np.max(np.abs(G - np.eye(len(G))))
        assert offs[h] < 0.5
    # off-diagonal mass decays like e^{-c/h} with c > 0
    c_fit = (math.log(offs[0.2]) - math.log(offs[0.1])) / (1 / 0.1 - 1 / 0.2)
    assert c_fit > 0.15
    # the two non-global supports are disjoint, so that entry is exactly 0
    qms = _triple_quasimodes(triple, 0.15)
    res = interaction_matrix(qms)
    ng = [j for j, q in enumerate(qms) if not q.well.is_global]
    assert abs(res.gram[ng[0], ng[1]]) <= 1e-15
    assert not np.any(qms[ng[0]].support & qms[ng[1]].support)


def test_forms_build_the_weighted_matrix_once_per_call(triple,
                                                       weighted_builds):
    # L is derived from the flat form on each use of op.matrix, so each
    # form binds it once rather than once per product
    qms = _triple_quasimodes(triple, 0.15)
    assert weighted_builds == []
    interaction_matrix(qms)
    assert len(weighted_builds) == 1
    dirichlet_and_residuals(qms[0])
    assert len(weighted_builds) == 2


def test_equal_level_overlap_rejected(tilted_geom, tilted_c0):
    qm = build_quasimode(tilted_c0.shallow_well, tilted_geom,
                         tilted_c0.operator(0.1, N))
    with pytest.raises(QuasimodeError, match="decrease"):
        interaction_matrix([qm, qm])


def test_interaction_rejects_quasimodes_on_different_operators(tilted_geom,
                                                               tilted_c0):
    qm = build_quasimode(tilted_c0.shallow_well, tilted_geom,
                         tilted_c0.operator(0.1, N))
    qg = constant_quasimode(tilted_c0.wm.global_well,
                            tilted_c0.operator(0.2, N))
    with pytest.raises(QuasimodeError, match="different operators"):
        interaction_matrix([qg, qm])
