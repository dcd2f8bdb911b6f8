"""Graded-matrix assembly, Schur peeling, and cluster localization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kramers_lab import graded
from kramers_lab.graded import (
    Cluster,
    GradedError,
    GradedStructure,
    assemble_graded,
    default_K,
    localized_spectrum,
    measure_instances,
    peel,
    random_instance,
    selftest,
    spectrum_by_peeling,
)


def two_block(tau=0.1, h=0.01):
    return GradedStructure(blocks=(np.array([[1.0]]), np.array([[2.0]])),
                           tau=(tau,), h=h)


def test_single_block_is_identity_scaling():
    s = GradedStructure(blocks=(np.diag([1.0, 3.0]),), tau=(), h=0.0)
    M = assemble_graded(s, np.zeros((2, 2)))
    np.testing.assert_array_equal(M, np.diag([1.0, 3.0]))


def test_two_block_assembly_matches_hand_computation():
    s = two_block()
    M = assemble_graded(s, np.array([[0.0, 0.01], [0.01, 0.0]]))
    np.testing.assert_allclose(M, [[1.0, 0.001], [0.001, 0.02]], rtol=1e-15)


def test_peel_closed_form_and_reconstruction():
    s = two_block()
    M = assemble_graded(s, np.array([[0.0, 0.01], [0.01, 0.0]]))
    pf = peel(M, s)
    assert pf.J[0, 0] == pytest.approx(1.0)
    assert pf.Z[0, 0] == pytest.approx(0.02 - 1e-6, rel=1e-14)
    assert pf.substructure.p == 1 and pf.substructure.h == pytest.approx(1e-4, rel=1e-10)
    rebuilt = np.block([[pf.J, pf.B_upper], [pf.B_lower, pf.N]])
    np.testing.assert_array_equal(rebuilt, M)


def test_peel_zero_coupling_gives_scaled_tail_exactly():
    rng = np.random.default_rng(0)
    s, _ = random_instance(rng)
    E = np.zeros((s.size, s.size))
    E[: s.r[0], : s.r[0]] = 0.3 * s.h
    M = assemble_graded(s, E)
    pf = peel(M, s)
    np.testing.assert_array_equal(pf.Z, pf.N)


def test_coupling_norm_carries_the_scale_pattern():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s, E = random_instance(rng)
        pf = peel(assemble_graded(s, s.h * E), s)
        assert np.linalg.norm(pf.B_upper, 2) <= s.h * s.tau[0] * (1 + 1e-12)
        assert np.linalg.norm(pf.B_lower, 2) <= s.h * s.tau[0] * (1 + 1e-12)


def test_quadratic_two_cluster_example():
    tau, h = 0.05, 0.01
    s = two_block(tau=tau, h=h)
    M = assemble_graded(s, np.array([[0.0, h], [h, 0.0]]))
    np.testing.assert_allclose(M, [[1.0, tau * h], [tau * h, 2 * tau**2]],
                               rtol=1e-15)
    a, c = tau * h, 2 * tau**2
    lam_exact = np.array([
        ((1 + c) - math.sqrt((1 - c) ** 2 + 4 * a * a)) / 2,
        ((1 + c) + math.sqrt((1 - c) ** 2 + 4 * a * a)) / 2,
    ])
    rep = localized_spectrum(M, s)
    assert [c_.count for c_ in rep.clusters] == [1, 1]
    np.testing.assert_allclose(np.sort(rep.eigenvalues.real), lam_exact,
                               rtol=1e-12)
    centers = sorted(abs(c_.center) for c_ in rep.clusters)
    assert centers == pytest.approx([2 * tau**2, 1.0])


def test_localized_spectrum_batch_with_shrink_and_peel_agreement():
    report = selftest(measure_instances(200, 0))
    assert report["failures"] == 0
    assert report["min_shrink_ratio_h_over_h10"] >= 5.0
    assert report["max_peel_vs_dense_relative_error"] <= 1e-8
    assert report["smallest_K_capturing_all"] <= 10.0


def projector_rank(M, center: complex, radius: float, nodes: int = 64) -> int:
    """Rank of the Riesz projector onto the disc D(center, radius).

    Contour-integral cross-check for the disc-membership counts; meant for
    small instances (n <= 20), where the trapezoid rule on the circle is
    spectrally accurate.
    """
    M = np.asarray(M)
    n = M.shape[0]
    if n > 20:
        raise ValueError("projector cross-check is limited to n <= 20")
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    P = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for th in thetas:
        z = center + radius * np.exp(1j * th)
        P += np.linalg.solve(z * eye - M, eye) * radius * np.exp(1j * th)
    P /= nodes
    tr = np.trace(P)
    if abs(tr.imag) > 1e-6 or abs(tr.real - round(tr.real)) > 1e-6:
        raise GradedError(f"projector trace {tr} is not close to an integer; "
                          "contour may cross an eigenvalue")
    return int(round(tr.real))


def test_projector_rank_matches_disc_counts():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 8:
        s, E = random_instance(rng, p_max=3, r_max=3)
        if s.size > 12:
            continue
        M = assemble_graded(s, s.h * E)
        rep = localized_spectrum(M, s)
        for c in rep.clusters:
            assert projector_rank(M, c.center, c.radius) == c.count
        checked += 1


def test_refinement_improves_on_plain_peeling():
    rng = np.random.default_rng(9)
    s, E = random_instance(rng, p_max=3)
    M = assemble_graded(s, s.h * E)
    dense = np.sort_complex(np.linalg.eigvals(M))
    plain = np.sort_complex(np.concatenate(
        graded._plain_cluster_estimates(M, s)))
    refined = np.sort_complex(np.concatenate(spectrum_by_peeling(M, s)))
    err_plain = np.max(np.abs(plain - dense) / np.abs(dense))
    err_ref = np.max(np.abs(refined - dense) / np.abs(dense))
    assert err_ref <= 1e-10
    assert err_ref < err_plain


def test_diagonalizable_resolvent_bound():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        W = np.eye(n) + 0.4 * rng.normal(size=(n, n))
        vals = rng.uniform(-3, 3, size=n) + 1j * rng.uniform(-1, 1, size=n)
        M = W @ np.diag(vals) @ np.linalg.inv(W)
        cond = np.linalg.cond(W)
        for _ in range(100):
            z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            dist = np.min(np.abs(vals - z))
            if dist < 1e-6:
                continue
            sv = np.linalg.svd(M - z * np.eye(n), compute_uv=False)
            assert (1.0 / sv[-1]) * dist <= cond * 1.01


def test_structure_validation():
    M1, M2 = np.array([[1.0]]), np.array([[2.0]])
    with pytest.raises(GradedError, match="tau"):
        GradedStructure(blocks=(M1, M2), tau=(1.5,), h=0.01)
    with pytest.raises(GradedError, match="scale factors"):
        GradedStructure(blocks=(M1, M2), tau=(), h=0.01)
    with pytest.raises(GradedError, match="singular"):
        GradedStructure(blocks=(np.zeros((2, 2)), M2), tau=(0.1,), h=0.01)
    with pytest.raises(GradedError, match="diagonalizable"):
        GradedStructure(blocks=(np.array([[1.0, 1.0], [0.0, 1.0]]), M2),
                        tau=(0.1,), h=0.01)
    with pytest.raises(GradedError, match="shape"):
        assemble_graded(two_block(), np.zeros((3, 3)))
    with pytest.raises(GradedError, match="two blocks"):
        peel(np.array([[1.0]]),
             GradedStructure(blocks=(M1,), tau=(), h=0.01))


def test_localization_regime_guards():
    s = two_block(tau=0.2)
    M = assemble_graded(s, np.zeros((2, 2)))
    with pytest.raises(GradedError, match="tau"):
        localized_spectrum(M, s)
    s2 = two_block(h=0.05)
    with pytest.raises(GradedError, match="h ="):
        localized_spectrum(assemble_graded(s2, np.zeros((2, 2))), s2)
    # a perturbation far larger than the declared h throws eigenvalues out
    s3 = two_block(h=1e-4)
    M3 = assemble_graded(s3, np.full((2, 2), 0.5))
    with pytest.raises(GradedError, match="outside every cluster disc"):
        localized_spectrum(M3, s3)
    # nearly coincident block eigenvalues make the discs overlap
    s4 = GradedStructure(blocks=(np.diag([1.5, 1.55]), np.array([[2.0]])),
                         tau=(0.1,), h=0.01)
    with pytest.raises(GradedError, match="overlap"):
        localized_spectrum(assemble_graded(s4, np.zeros((3, 3))), s4)


def test_singular_leading_block_detected_at_peel():
    s = two_block()
    E = np.array([[-1.0, 0.0], [0.0, 0.0]])   # cancels M_1 exactly
    with pytest.raises(GradedError, match="singular"):
        peel(assemble_graded(s, E), s)


def test_default_K_formula():
    s = two_block()
    assert default_K(s) == pytest.approx(30.0)
