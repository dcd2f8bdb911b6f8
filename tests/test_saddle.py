"""Transverse saddle data (mu, xi) and Eyring-Kramers prefactors."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from kramers_lab.analysis import Analysis
from kramers_lab.landscape import CriticalPoint, make_preset
from kramers_lab.saddle import (
    ConditioningError,
    SaddleError,
    UnsupportedCaseError,
    predict_spectrum,
    transverse_data,
)

SQ17 = math.sqrt(17.0)
SQ41 = math.sqrt(41.0)


def cp(hess, point=None, value=0.0):
    hess = np.asarray(hess, dtype=float)
    d = hess.shape[0]
    point = np.zeros(d) if point is None else np.asarray(point, dtype=float)
    index = int(np.sum(np.linalg.eigvalsh(hess) < 0))
    return CriticalPoint(point=point, value=value, hessian=hess, index=index)


def random_saddle_pair(rng):
    """Random (Hess, B) with Hess of index 1 and B = J Hess, J antisymmetric."""
    d = int(rng.integers(2, 9))
    eigs = np.concatenate([[-rng.uniform(0.3, 5.0)],
                           rng.uniform(0.3, 5.0, size=d - 1)])
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    H = (Q * eigs) @ Q.T
    H = 0.5 * (H + H.T)
    G = rng.normal(size=(d, d))
    J = 0.5 * (G - G.T)
    return H, J @ H


# ---------------------------------------------------------------------------
# frozen 2x2 examples

def test_reversible_case_mu_is_hessian_eigenvalue():
    data = transverse_data(cp(np.diag([-4.0, 2.0])), np.zeros((2, 2)))
    assert data.mu == pytest.approx(-4.0, rel=1e-14)
    assert data.lambda1 == pytest.approx(-4.0, rel=1e-14)
    np.testing.assert_allclose(data.xi, [1.0, 0.0], atol=1e-12)
    assert not data.oriented


@pytest.mark.parametrize("c, mu_exact", [
    (1.0, -1.0 - SQ17),
    (2.0, -1.0 - SQ41),
])
def test_rotational_drift_shifts_mu(c, mu_exact):
    H = np.diag([-4.0, 2.0])
    J0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = c * J0 @ H                      # b = c J0 grad V linearized at the saddle
    assert np.allclose(B.T, c * np.array([[0.0, 4.0], [2.0, 0.0]]))
    data = transverse_data(cp(H), B)
    assert data.mu == pytest.approx(mu_exact, rel=1e-12)
    assert abs(data.mu) >= 4.0
    assert np.linalg.det(data.M_V) == pytest.approx(8.0, rel=1e-10)
    q = float(np.linalg.solve(H, data.xi) @ data.xi)
    assert q * data.mu == pytest.approx(1.0, abs=1e-12)


def test_orientation_probe_fixes_sign():
    land = make_preset("sym_double_well")
    s = cp(np.diag([-4.0, 2.0]))
    B = np.zeros((2, 2))
    right = transverse_data(s, B, toward=[0.5, 0.0], land=land)
    left = transverse_data(s, B, toward=[-0.5, 0.0], land=land)
    assert right.oriented and left.oriented
    assert right.xi[0] > 0 > left.xi[0]
    with pytest.raises(ConditioningError):
        transverse_data(s, B, toward=[0.0, 0.7])   # orthogonal to xi


# ---------------------------------------------------------------------------
# structural invariants on random instances

def test_random_pairs_satisfy_all_invariants():
    rng = np.random.default_rng(7)
    for _ in range(500):
        H, B = random_saddle_pair(rng)
        data = transverse_data(cp(H), B)
        scale = max(1.0, np.linalg.norm(H + B.T, 2))
        assert data.mu < 0
        assert np.linalg.norm(data.xi) == pytest.approx(1.0, abs=1e-12)
        assert abs(data.mu) >= abs(data.lambda1) - 1e-10 * scale
        det_H = np.linalg.det(H)
        assert np.linalg.det(data.M_V) == pytest.approx(-det_H, rel=1e-10)
        assert np.linalg.eigvalsh(data.M_V)[0] > 0
        q = float(np.linalg.solve(H, data.xi) @ data.xi)
        assert q * data.mu == pytest.approx(1.0, abs=1e-10)
        # equality in |mu| >= |lambda_1| only without a transverse kick
        if np.linalg.norm(B.T @ data.xi) <= 1e-8:
            assert abs(data.mu - data.lambda1) <= 1e-8 * scale


def test_reversibility_limit():
    rng = np.random.default_rng(3)
    eigs = np.array([-1.7, 0.6, 2.4, 3.1])
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    H = (Q * eigs) @ Q.T
    H = 0.5 * (H + H.T)
    G = rng.normal(size=(4, 4))
    J = 0.5 * (G - G.T)
    v1 = np.linalg.eigh(H)[1][:, 0]
    gaps, misalign = [], []
    for eps in (1e-2, 1e-4, 1e-6):
        data = transverse_data(cp(H), eps * J @ H)
        gaps.append(abs(data.mu - data.lambda1))
        misalign.append(1.0 - abs(float(data.xi @ v1)))
    # mu -> lambda_1 quadratically in eps, xi -> v1 linearly
    assert gaps[0] < 0.5 and gaps[1] < 1e-6 and gaps[2] < 1e-9
    assert gaps[0] / max(gaps[1], 1e-300) > 1e3
    assert misalign[0] < 0.2 and misalign[1] < 1e-3 and misalign[2] < 1e-5


def test_orthogonal_conjugation_invariance():
    rng = np.random.default_rng(11)
    H, B = random_saddle_pair(rng)
    data = transverse_data(cp(H), B)
    Q, _ = np.linalg.qr(rng.normal(size=H.shape))
    data2 = transverse_data(cp(Q @ H @ Q.T), Q @ B @ Q.T)
    assert data2.mu == pytest.approx(data.mu, rel=1e-10)
    assert np.linalg.det(data2.M_V) == pytest.approx(
        np.linalg.det(data.M_V), rel=1e-9)


def test_premise_violations_raise():
    with pytest.raises(SaddleError):
        transverse_data(cp(np.diag([1.0, 2.0])), np.zeros((2, 2)))  # a minimum
    # two eigenvalues pushed below zero
    with pytest.raises(SaddleError, match="negative real part"):
        transverse_data(cp(np.diag([-4.0, 0.1])),
                        np.array([[0.0, 0.0], [0.0, -1.0]]))
    # complex pair with negative real part
    with pytest.raises(SaddleError):
        transverse_data(cp(np.diag([-1.5, 0.5])),
                        np.array([[0.0, 6.0], [-6.0, 0.0]]))
    # drift lifting the negative mode entirely
    with pytest.raises(SaddleError):
        transverse_data(cp(np.diag([-1.0, 1.0])),
                        np.array([[2.0, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# prefactors and spectrum predictions

@pytest.mark.parametrize("c, zeta_exact", [
    (0.0, 8.0 / (2.0 * math.pi) * 4.0 / math.sqrt(8.0)),
    (1.0, 8.0 / (2.0 * math.pi) * (1.0 + SQ17) / math.sqrt(8.0)),
])
def test_equal_depth_double_well_prefactor(c, zeta_exact):
    ana = Analysis(make_preset("sym_double_well", c=c))
    # two minima at one value: not generic, yet predicted
    assert not ana.wm.genericity.generic
    glob, pred = ana.predictions
    assert pred.well is ana.shallow_well
    assert pred.zeta == pytest.approx(zeta_exact, rel=1e-9)
    # the two minima share m_h equally (up to the last bits of their
    # Newton-refined Hessians), and the front factor is the sum of their
    # determinant roots
    assert pred.share == pytest.approx(0.5, abs=1e-13)
    assert glob.zeta == 0.0 and glob.share == 1.0


def test_tilted_prefactor_and_predictions(tilted_c0):
    well = tilted_c0.shallow_well
    preds = predict_spectrum(tilted_c0.wm, tilted_c0.data)
    assert [p.S for p in preds] == sorted((p.S for p in preds), reverse=True)
    assert preds[0].lam(0.1) == 0.0 and math.isinf(preds[0].S)
    assert preds[1].well is well and preds[1].share == 1.0
    zeta = preds[1].zeta
    assert zeta == pytest.approx(0.7847783, rel=1e-6)
    lam = preds[1].lam(0.1)
    assert lam == zeta * math.exp(-well.barrier / 0.1)
    assert lam == pytest.approx(0.0032638, rel=1e-4)
    # h -> 0 monotonicity
    assert lam < preds[1].lam(0.2)
    for h in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="h must lie in"):
            preds[1].lam(h)


def test_tilted_nonreversible_mu_ratio_and_orientation(tilted_c0, tilted_c1):
    (d0,) = tilted_c0.data.values()
    (d1,) = tilted_c1.data.values()
    assert d0.lambda1 == pytest.approx(-3.8063, abs=2e-4)
    assert d1.mu == pytest.approx(-4.90825, abs=2e-4)
    assert d1.abs_mu / d0.abs_mu == pytest.approx(1.28951, abs=1e-4)
    # E(m) is the shallow right-hand well: xi points to x > 0
    assert d0.oriented and d0.xi[0] > 0
    assert d1.oriented and d1.xi[0] > 0


def test_prefactor_is_additive_over_boundary_saddles(tilted_c0):
    wm, data = tilted_c0.wm, tilted_c0.data
    well = tilted_c0.shallow_well
    doubled = dataclasses.replace(well, saddles=well.saddles * 2,
                                  saddle_sides=well.saddle_sides * 2)
    wm2 = dataclasses.replace(wm, wells=tuple(
        doubled if w is well else w for w in wm.wells))
    assert predict_spectrum(wm2, data)[1].zeta == pytest.approx(
        2.0 * tilted_c0.predictions[1].zeta, rel=1e-14)


def test_triple_well_predictions_follow_rounds(triple):
    preds = predict_spectrum(triple.wm, triple.data)
    assert len(preds) == 3
    assert [p.well.round_index for p in preds] == [1, 2, 3]
    assert math.isinf(preds[0].S)
    assert preds[1].S == pytest.approx(0.361456, abs=1e-5)
    assert preds[2].S == pytest.approx(0.286557, abs=1e-5)
    assert all(p.lam(0.15) > 0 for p in preds[1:])


def test_global_well_has_no_prefactor(tilted_c0):
    glob = tilted_c0.predictions[0]
    assert glob.well is tilted_c0.wm.global_well
    assert glob.zeta == 0.0 and math.isinf(glob.S)
    assert glob.lam(0.1) == 0.0 and glob.lam(1.0) == 0.0
    assert glob.saddles == ()
