"""Critical-point search, stationarity identities, preset catalog."""

from __future__ import annotations

import numpy as np
import pytest

from kramers_lab import expr as ex
from kramers_lab.landscape import (
    Landscape,
    LandscapeError,
    MorseViolationError,
    find_critical_points,
    local_antisymmetric_factor,
    make_preset,
    validate_stationarity,
)


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# Oracle: x-coordinates of the tilted double well's critical points are the
# real roots of W'(x) = 4x^3 - 4x + 0.5, bracketed by sign changes.
TILTED_XS = sorted(
    bisect_root(lambda x: 4 * x**3 - 4 * x + 0.5, lo, hi)
    for lo, hi in [(-2.0, -0.5), (0.0, 0.5), (0.5, 2.0)]
)


def test_tilted_double_well_critical_points_match_bisection():
    land = make_preset("tilted_double_well")
    cps = find_critical_points(land)
    assert len(cps) == 3
    xs = sorted(cp.point[0] for cp in cps)
    np.testing.assert_allclose(xs, TILTED_XS, atol=1e-8)
    assert all(abs(cp.point[1]) < 1e-8 for cp in cps)
    by_x = {round(cp.point[0], 3): cp for cp in cps}
    # outer roots are minima, middle root is the saddle
    assert by_x[round(TILTED_XS[0], 3)].index == 0
    assert by_x[round(TILTED_XS[1], 3)].index == 1
    assert by_x[round(TILTED_XS[2], 3)].index == 0


@pytest.mark.parametrize(
    "name, n_minima, n_saddles",
    [("sym_double_well", 2, 1), ("tilted_double_well", 2, 1), ("triple_well", 3, 2)],
)
def test_preset_census(name, n_minima, n_saddles):
    cps = find_critical_points(make_preset(name))
    assert sum(cp.is_minimum for cp in cps) == n_minima
    assert sum(cp.is_saddle for cp in cps) == n_saddles
    assert len(cps) == n_minima + n_saddles
    # no duplicates within the dedup radius
    pts = np.array([cp.point for cp in cps])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) > 1e-3


def test_gradient_vanishes_and_hessian_is_symmetric():
    land = make_preset("triple_well", c=2.0)
    for cp in find_critical_points(land):
        assert np.linalg.norm(land.grad_V_at(cp.point[None, :])) < 1e-9
        np.testing.assert_allclose(cp.hessian, cp.hessian.T, atol=1e-12)
        # b must vanish at critical points (it is proportional to grad V here)
        assert np.linalg.norm(land.b_h_at(cp.point[None, :], 0.0)) <= 1e-8


def test_degenerate_potential_raises_morse_violation():
    land = Landscape(
        V=ex.parse("x^4 + y^2", 2),
        b=(ex.constant(0.0), ex.constant(0.0)),
        nu=(ex.constant(0.0), ex.constant(0.0)),
        halfwidth=2.0,
    )
    with pytest.raises(MorseViolationError):
        find_critical_points(land)


def test_no_critical_points_in_box_raises():
    land = Landscape(
        V=ex.parse("(x - 5)^2 + y^2", 2),
        b=(ex.constant(0.0), ex.constant(0.0)),
        nu=(ex.constant(0.0), ex.constant(0.0)),
        halfwidth=2.0,
    )
    with pytest.raises(LandscapeError):
        find_critical_points(land)


@pytest.mark.parametrize("name", ["sym_double_well", "tilted_double_well", "triple_well"])
@pytest.mark.parametrize("c", [0.0, 1.0, 2.0])
def test_stationarity_passes_on_presets(name, c):
    report = validate_stationarity(make_preset(name, c=c))
    assert report.passed, report


def test_stationarity_with_nu_drift(tilted_nu):
    land = tilted_nu.land
    assert validate_stationarity(land).passed
    zero = ex.constant(0.0)
    dropped = Landscape(V=land.V, b=land.b, nu=(zero, zero),
                        halfwidth=land.halfwidth)
    report = validate_stationarity(dropped)
    assert not report.passed
    assert report.max_b_dot_grad_V <= 1e-10
    assert report.max_div_nu == 0.0
    # without nu, div b - nu . grad V = y: its maximum is near the box edge
    assert 1.9 < report.max_div_b_mismatch <= 2.0


def test_stationarity_fails_on_planted_gradient_field():
    # b = grad V violates b . grad V = 0 wherever grad V != 0.
    land = make_preset("sym_double_well")
    bad = Landscape(
        V=land.V,
        b=tuple(ex.gradient(land.V, 2)),
        nu=(ex.constant(0.0), ex.constant(0.0)),
        halfwidth=land.halfwidth,
    )
    report = validate_stationarity(bad)
    assert not report.passed
    assert report.max_b_dot_grad_V > 1.0


def test_stationarity_fails_on_bad_divergence():
    # b = (x, y) has div b = 2 but nu = 0; also fails b . grad V = 0.
    land = make_preset("sym_double_well")
    bad = Landscape(
        V=land.V,
        b=(ex.parse("x", 2), ex.parse("y", 2)),
        nu=(ex.constant(0.0), ex.constant(0.0)),
        halfwidth=2.0,
    )
    report = validate_stationarity(bad)
    assert report.max_div_b_mismatch == pytest.approx(2.0)
    assert not report.passed


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
def test_local_antisymmetric_factor_recovers_rotation(c):
    land = make_preset("tilted_double_well", c=c)
    for cp in find_critical_points(land):
        J = local_antisymmetric_factor(land, cp)
        np.testing.assert_allclose(J, c * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                   atol=1e-9)


def test_local_antisymmetric_factor_rejects_gradient_field():
    land = make_preset("sym_double_well")
    bad = Landscape(
        V=land.V,
        b=tuple(ex.gradient(land.V, 2)),
        nu=(ex.constant(0.0), ex.constant(0.0)),
        halfwidth=2.0,
    )
    cp = find_critical_points(bad)[0]
    with pytest.raises(LandscapeError, match="antisym"):
        local_antisymmetric_factor(bad, cp)


def test_preset_drift_is_linear_in_c():
    base = make_preset("triple_well", c=1.0)
    doubled = make_preset("triple_well", c=2.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(20, 2))
    np.testing.assert_allclose(doubled.b_h_at(pts, 0.0),
                               2.0 * base.b_h_at(pts, 0.0), rtol=1e-14)
    assert validate_stationarity(doubled).passed


def test_equal_depth_minima_detected_to_tolerance():
    cps = find_critical_points(make_preset("sym_double_well"))
    minima = [cp for cp in cps if cp.is_minimum]
    assert abs(minima[0].value - minima[1].value) <= 1e-10
