"""Finite-difference operator tests: assembly structure, spectra, decay."""

import math
import re

import numpy as np
import pytest

import kramers_lab.expr as ex
from kramers_lab.landscape import Landscape, make_preset
from kramers_lab.discretize import (
    DiscretizationError,
    Grid,
    OperatorMatrix,
    assemble,
    remove_weighted_mean,
    semigroup_decay,
    small_spectrum,
    solve_dirichlet,
)


def _flat_landscape(text, halfwidth, b=None):
    zero = ex.constant(0.0)
    return Landscape(
        V=ex.parse(text, 2),
        b=b if b is not None else (zero, zero),
        nu=(zero, zero),
        halfwidth=halfwidth,
    )


def _deep_interior(grid, depth=2):
    """Nodes whose stencil is untouched by the Dirichlet elimination."""
    m = np.zeros((grid.n, grid.n), dtype=bool)
    m[depth:-depth, depth:-depth] = True
    return m.ravel()


# ---------------------------------------------------------------------------
# Grid

def test_grid_layout():
    g = Grid(halfwidth=2.0, n=21)
    assert g.spacing == pytest.approx(0.2)
    assert g.size == 441
    pts = g.points()
    # row-major: index (i, j) holds (x_i, y_j)
    assert g.index(3, 5) == 3 * 21 + 5
    assert pts[g.index(3, 5)] == pytest.approx([-2.0 + 0.6, -2.0 + 1.0])
    assert g.node_of(pts[g.index(3, 5)]) == g.index(3, 5)
    assert g.ij_of(pts[g.index(3, 5)]) == (3, 5)
    assert g.boundary_mask().sum() == 4 * 21 - 4


def test_grid_guards():
    with pytest.raises(DiscretizationError):
        Grid(halfwidth=2.0, n=8)
    with pytest.raises(DiscretizationError):
        Grid(halfwidth=-1.0, n=32)


# ---------------------------------------------------------------------------
# Assembly structure

def test_flat_form_symmetric_without_drift():
    land = make_preset("tilted_double_well")
    op = assemble(land, 0.15, Grid(2.0, 64))
    A = op.flat
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
    # m_h weights are a normalized quadrature rule
    assert op.weights.sum() * op.quadrature == pytest.approx(1.0, abs=1e-12)


def test_weighted_matrix_is_the_conjugated_flat_form():
    # L = E P E^-1 / h with E = diag(e^{V/2h}), built here from the node
    # potential; the entrywise similarity keeps P's sparsity pattern
    import scipy.sparse as sp

    h = 0.3
    land = make_preset("tilted_double_well", c=1.0)
    op = assemble(land, h, Grid(2.0, 64))
    V = land.V_at(op.grid.points())
    E = sp.diags(np.exp(V / (2.0 * h)))
    E_inv = sp.diags(np.exp(-V / (2.0 * h)))
    ref = (E @ op.flat @ E_inv / h).tocsr()
    L = op.matrix
    assert L.nnz == op.flat.nnz
    gap = abs(L - ref).tocoo()
    assert np.all(gap.data <= 1e-13 * np.abs(ref[gap.row, gap.col]).A1)


def test_small_spectrum_never_builds_the_weighted_matrix(weighted_builds):
    op = assemble(make_preset("tilted_double_well", c=1.0), 0.3,
                  Grid(2.0, 64))
    small_spectrum(op, 4, vectors=True)
    assert weighted_builds == []
    # the count sees a construction, and nothing keeps L with the operator
    op.matrix
    assert weighted_builds == [op]
    assert "matrix" not in op.__dict__


def test_constant_in_kernel_without_drift():
    # derivatives of constants vanish: rows whose stencil does not touch the
    # eliminated boundary columns annihilate the constant vector exactly
    land = make_preset("tilted_double_well")
    op = assemble(land, 0.15, Grid(2.0, 64))
    r = op.matrix @ np.ones(op.grid.size)
    deep = _deep_interior(op.grid)
    res = np.sqrt(np.sum(r[deep] ** 2 * op.weights[deep]) * op.quadrature)
    assert res <= 1e-10


def test_constant_kernel_residual_is_second_order():
    # with a rotational drift the exponentially fitted row sums leave an
    # O(dx^2) defect; halving dx should shrink it about fourfold
    land = make_preset("tilted_double_well", c=1.0)
    res = []
    for n in (64, 128):
        op = assemble(land, 0.3, Grid(2.0, n))
        r = op.matrix @ np.ones(op.grid.size)
        deep = _deep_interior(op.grid)
        res.append(np.sqrt(np.sum(r[deep] ** 2 * op.weights[deep])
                           * op.quadrature))
    assert 2.5 <= res[0] / res[1] <= 6.0


def test_weighted_and_flat_spectra_agree():
    # eig(P) = h * eig(L): SciPy's own shift-invert solve of the flat form
    # on the interior nodes against small_spectrum's weighted eigenvalues
    import scipy.sparse.linalg as spla

    land = make_preset("tilted_double_well", c=1.0)
    h = 0.2
    op = assemble(land, h, Grid(2.0, 96))
    F = np.flatnonzero(~op.grid.boundary_mask())
    a = np.sort(spla.eigs(op.flat[F][:, F], k=6, sigma=0.0,
                          v0=np.ones(F.size),
                          return_eigenvectors=False).real) / h
    b = np.sort(small_spectrum(op, 6).eigenvalues.real)
    rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-8 * abs(b[-1]))
    assert rel.max() <= 1e-6


def test_accretivity_on_random_vectors():
    land = make_preset("tilted_double_well", c=1.0)
    op = assemble(land, 0.2, Grid(2.0, 96))
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = rng.standard_normal(op.grid.size)
        u /= op.norm(u)
        assert float(np.real(op.inner(op.matrix @ u, u))) >= -1e-10


def test_weighted_adjoint_is_drift_reversal():
    import scipy.sparse as sp

    g = Grid(2.0, 64)
    op_f = assemble(make_preset("tilted_double_well", c=1.0), 0.3, g)
    op_b = assemble(make_preset("tilted_double_well", c=-1.0), 0.3, g)
    W = sp.diags(op_f.weights)
    diff = abs((W @ op_f.matrix).T - W @ op_b.matrix).max()
    assert diff <= 1e-12 * abs(W @ op_f.matrix).max()
    # and the small spectra are complex conjugates of each other; the six
    # returned are closed under conjugation, so no pair is cut
    sf = np.sort_complex(small_spectrum(op_f, 6).eigenvalues)
    sb = np.sort_complex(np.conj(small_spectrum(op_b, 6).eigenvalues))
    tol = 1e-8 * np.abs(sf[-1])
    assert np.max(np.abs(sf - np.sort_complex(np.conj(sf)))) <= tol
    assert np.max(np.abs(sf - sb)) <= tol


# ---------------------------------------------------------------------------
# Small spectrum

def test_single_well_against_dense_oracle():
    # V = x^2 + y^2: flat form is symmetric, so a dense symmetric eigensolve
    # is available as an oracle for the shift-invert path
    land = _flat_landscape("x^2 + y^2", 4.0)
    h = 0.15
    op = assemble(land, h, Grid(4.0, 48))
    dense = np.sort(np.linalg.eigvalsh(op.flat.toarray()))[:6] / h
    s = small_spectrum(op, 6)
    got = np.sort(s.eigenvalues.real)
    assert np.max(np.abs(got - dense)) <= 1e-10 * dense[-1]
    assert np.max(np.abs(s.eigenvalues.imag)) <= 1e-12
    # one well: a single eigenvalue ~ 0, the next at the Hessian scale 2
    assert s.n0_observed == 1
    assert got[0] <= 1e-8
    assert 0.9 <= s.gap_witness / 2.0 <= 1.05


@pytest.mark.parametrize("name,n,expected_n0", [
    ("sym_double_well", 96, 2),
    ("tilted_double_well", 96, 2),
    ("triple_well", 128, 3),
])
def test_metastable_counting_matches_wells(name, n, expected_n0):
    land = make_preset(name)
    op = assemble(land, 0.15, Grid(land.halfwidth, n))
    s = small_spectrum(op, count=expected_n0 + 4)
    assert s.n0_observed == expected_n0
    cluster = np.sort(s.eigenvalues.real)[:expected_n0]
    assert cluster.max() < 0.1
    assert s.gap_witness > 1.0


def test_nu_drift_spectrum_matches_prediction(tilted_nu):
    """The h nu term of the drift in assembly: two wells, rate gate met."""
    h = 0.2
    s = tilted_nu.spectrum(h, 96)
    assert s.n0_observed == 2
    # constants stay in the kernel up to the O(dx^2) defect (|lambda_0| /
    # lambda_1 is 1e-4 here); losing either nu term takes it above 0.1
    assert abs(s.eigenvalues[0]) <= 1e-3 * s.eigenvalues[1].real
    ek = max(p.lam(h) for p in tilted_nu.predictions)
    assert abs(s.eigenvalues[1].real / ek - 1.0) <= 3.0 * math.sqrt(h)


def test_explicit_threshold_overrides_calibration():
    land = make_preset("tilted_double_well")
    op = assemble(land, 0.15, Grid(2.0, 96))
    s = small_spectrum(op, 6, threshold=0.5)
    assert s.n0_observed == 2
    assert s.threshold == 0.5
    assert s.gap_witness == pytest.approx(1.994, abs=0.05)


def test_grid_convergence_of_lambda2():
    land = make_preset("tilted_double_well")
    lam = []
    for n in (160, 224):
        op = assemble(land, 0.15, Grid(2.0, n))
        lam.append(np.sort(small_spectrum(op, 4).eigenvalues.real)[1])
    assert abs(lam[1] / lam[0] - 1.0) < 0.02


def test_eigenpairs_have_round_off_flat_residuals():
    import scipy.sparse.linalg as spla

    h = 0.2
    op = assemble(make_preset("tilted_double_well", c=1.0), h,
                  Grid(2.0, 96))
    s = small_spectrum(op, 6, vectors=True)
    # back to the flat form: x = v e^{-V/2h}, rescaled in the log domain
    P, lam = op.flat, h * s.eigenvalues
    mag = np.abs(s.vectors)
    t = np.log(mag + 1e-300) - op.V_nodes[:, None] / (2.0 * h)
    X = s.vectors / (mag + 1e-300) * np.exp(t - t.max(axis=0))
    res = (np.linalg.norm(P @ X - X * lam, axis=0)
           / (spla.norm(P, 1) * np.linalg.norm(X, axis=0)))
    assert res.max() <= 1e-13
    assert np.allclose([op.norm(v) for v in s.vectors.T], 1.0, rtol=1e-12)
    # the walls hold no unknowns: their eigenvalue 1/h is never returned,
    # so it cannot take the place of a conjugate partner
    assert np.all(np.abs(s.eigenvalues * h - 1.0) > 1e-9)
    ev = np.sort_complex(s.eigenvalues)
    assert np.max(np.abs(ev - np.sort_complex(np.conj(ev)))) \
        <= 1e-8 * np.abs(ev).max()


def test_a_conjugate_pair_comes_back_whole(tilted_c1):
    # count 6 cuts the pair 5.2532 -+ 2.4263i in two on this cell
    ev = tilted_c1.spectrum(0.1, 192).eigenvalues
    assert np.any(ev.imag != 0)
    for lam in ev[ev.imag != 0]:
        assert np.conj(lam) in ev
    # count 8 cuts a pair on this cell; the partner's eigenvector is the
    # conjugate of its sibling's
    op = assemble(make_preset("tilted_double_well", c=1.0), 0.2,
                  Grid(2.0, 96))
    s = small_spectrum(op, 8, vectors=True)
    assert s.eigenvalues.size == 9 and s.vectors.shape[1] == 9
    for i, lam in enumerate(s.eigenvalues):
        (j,) = np.flatnonzero(s.eigenvalues == np.conj(lam))
        assert np.array_equal(s.vectors[:, j], np.conj(s.vectors[:, i]))


def test_exactly_singular_matrix_takes_the_shifted_factor():
    import dataclasses

    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    op = assemble(make_preset("tilted_double_well"), 0.2, Grid(2.0, 32))
    # identity on the walls and diag(0, 1, 2, ...) on the interior nodes:
    # the zero pivot at the first interior node makes every LU ordering fail
    d = op.grid.boundary_mask().astype(float)
    d[d == 0] = np.arange(np.count_nonzero(d == 0))
    A = sp.diags(d).tocsc()
    with pytest.raises(RuntimeError, match="singular"):
        spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    s = small_spectrum(dataclasses.replace(op, flat=A), 6)
    assert np.allclose(op.h * s.eigenvalues, np.arange(6), rtol=0, atol=1e-9)


@pytest.mark.parametrize("count", [10, 20])
def test_large_counts_match_a_wide_krylov_reference(count):
    import scipy.sparse.linalg as spla

    h = 0.2
    op = assemble(make_preset("tilted_double_well", c=1.0), h,
                  Grid(2.0, 96))
    got = small_spectrum(op, count).eigenvalues
    # P is real, so a conjugate pair that count cut comes back whole
    assert got.size in (count, count + 1)
    # reference: SciPy's own shift-invert factor, a 120-vector Krylov
    # space, tighter tolerance and four extra eigenvalues
    F = np.flatnonzero(~op.grid.boundary_mask())
    ref = spla.eigs(op.flat[F][:, F], k=count + 4, sigma=0.0,
                    ncv=120, tol=1e-12, v0=np.ones(F.size),
                    return_eigenvectors=False) / h
    for lam in got:
        assert np.min(np.abs(ref - lam)) <= 1e-8 * max(abs(lam), 1e-3)
    # the returned values are the count nearest the shift
    assert np.abs(got).max() <= np.sort(np.abs(ref))[count - 1] * (1 + 1e-8)


# ---------------------------------------------------------------------------
# Dirichlet problems

@pytest.mark.parametrize("c", [0.0, 1.0])
def test_dirichlet_solve_satisfies_the_weighted_equation(c):
    op = assemble(make_preset("tilted_double_well", c=c), 0.2, Grid(2.0, 96))
    pts = op.grid.points()
    target = ((pts - (-1.0, 0.0)) ** 2).sum(axis=1) <= 0.3**2
    absorbing = target | op.grid.boundary_mask()
    L = op.matrix
    # the mean first-passage time, then a signed right-hand side
    for f in (np.ones(op.grid.size),
              np.random.default_rng(1).standard_normal(op.grid.size)):
        u = solve_dirichlet(op, target, f)
        assert np.all(u[absorbing] == 0.0)
        # componentwise backward error of L u = f on the free nodes
        scale = abs(L) @ np.abs(u) + np.abs(f)
        err = np.abs(L @ u - f)[~absorbing] / scale[~absorbing]
        assert err.max() <= 1e-13


# ---------------------------------------------------------------------------
# Semigroup decay

def test_ou_decay_rate_is_one():
    # exact OU generator spectrum is {0, 1, 2, ...} independent of h
    land = _flat_landscape("(x^2 + y^2) / 2", 4.0)
    op = assemble(land, 0.15, Grid(4.0, 96))
    u0 = remove_weighted_mean(op, op.grid.points()[:, 0].copy())
    rate = semigroup_decay(op, u0, T=4.0, dt=0.02)
    assert rate == pytest.approx(1.0, abs=0.03)


def test_semigroup_decay_builds_the_weighted_matrix_once(weighted_builds):
    land = _flat_landscape("(x^2 + y^2) / 2", 4.0)
    op = assemble(land, 0.15, Grid(4.0, 32))
    u0 = remove_weighted_mean(op, op.grid.points()[:, 0].copy())
    semigroup_decay(op, u0, T=1.0, dt=0.05)
    assert weighted_builds == [op]


def test_decay_rate_matches_lambda2_and_u0_independent():
    land = make_preset("tilted_double_well")
    op = assemble(land, 0.2, Grid(2.0, 64))
    lam2 = np.sort(small_spectrum(op, 4).eigenvalues.real)[1]
    pts = op.grid.points()
    rates = []
    for raw in [(pts[:, 0] > 0.12).astype(float), np.tanh(3 * pts[:, 0])]:
        u0 = remove_weighted_mean(op, raw)
        rates.append(semigroup_decay(op, u0, T=3.0 / lam2, dt=0.02 / lam2))
    assert rates[0] == pytest.approx(lam2, rel=1e-3)
    assert rates[1] == pytest.approx(rates[0], rel=1e-5)


def test_semigroup_guards():
    land = make_preset("tilted_double_well")
    op = assemble(land, 0.2, Grid(2.0, 64))
    rng = np.random.default_rng(0)
    rough = rng.standard_normal(op.grid.size)
    with pytest.raises(DiscretizationError, match="weighted mean"):
        semigroup_decay(op, np.ones(op.grid.size), T=10.0, dt=0.1)
    with pytest.raises(DiscretizationError, match="dt too large"):
        semigroup_decay(op, remove_weighted_mean(op, rough), T=60.0, dt=2.0)
    with pytest.raises(DiscretizationError, match="20 time steps"):
        semigroup_decay(op, remove_weighted_mean(op, rough), T=1.0, dt=0.5)


# ---------------------------------------------------------------------------
# Refusals

def test_peclet_refusal_suggests_refinement():
    land = make_preset("tilted_double_well", c=1.0)
    with pytest.raises(DiscretizationError, match="Peclet"):
        assemble(land, 0.1, Grid(2.0, 64))


def test_peclet_suggestion_passes_the_same_check():
    # |b_h| is sampled only at the nodes, so a finer grid can see a larger
    # peak; the refinement suggested from n = 32 must assemble
    land = make_preset("tilted_double_well", c=1.0)
    with pytest.raises(DiscretizationError, match=r"n >= \d+") as refusal:
        assemble(land, 0.3, Grid(2.0, 32))
    n = int(re.search(r"n >= (\d+)", str(refusal.value)).group(1))
    assert assemble(land, 0.3, Grid(2.0, n)).grid.n == n


def test_peclet_refusal_reads_above_one():
    # at n = 50 the Peclet number is 1.0025, which two decimals rounded to
    # nearest print as 1.00
    land = make_preset("tilted_double_well", c=1.0)
    with pytest.raises(DiscretizationError, match="n >= 60") as refusal:
        assemble(land, 0.3, Grid(2.0, 50))
    shown = re.search(r"Peclet number (\S+) > 1", str(refusal.value))
    assert float(shown.group(1)) > 1.0


def test_critical_point_near_boundary_refused():
    # left minimum sits at x ~ -1.057; a box of halfwidth 1.2 leaves less
    # than 4 grid steps of margin at n = 48
    land = _flat_landscape("(x^2 - 1)^2 + 0.5 * x + y^2", 1.2)
    with pytest.raises(DiscretizationError, match="boundary"):
        assemble(land, 0.2, Grid(1.2, 48))


def test_non_stationary_drift_refused():
    bad = _flat_landscape("x^2 + y^2", 2.0,
                          b=(ex.parse("x", 2), ex.constant(0.0)))
    with pytest.raises(DiscretizationError, match="admissible"):
        assemble(bad, 0.2, Grid(2.0, 32))


def test_stationarity_refusal_names_the_failing_residual(tilted_nu):
    # dropping nu keeps b . grad V = 0 and div nu = 0; only the third
    # identity, div b = nu . grad V, fails
    land = tilted_nu.land
    zero = ex.constant(0.0)
    dropped = Landscape(V=land.V, b=land.b, nu=(zero, zero),
                        halfwidth=land.halfwidth)
    with pytest.raises(DiscretizationError,
                       match=r"div b - nu\.grad V\| = [12]\.\d+e\+00; "
                             r"tolerance 1e-10"):
        assemble(dropped, 0.2, Grid(2.0, 32))


def test_parameter_validation():
    land = make_preset("sym_double_well")
    g = Grid(2.0, 32)
    with pytest.raises(DiscretizationError, match="h must"):
        assemble(land, 0.0, g)
    with pytest.raises(DiscretizationError, match="h must"):
        assemble(land, 1.5, g)
    with pytest.raises(ValueError, match="counts above 20"):
        small_spectrum(assemble(land, 0.2, g), count=25)
    with pytest.raises(ValueError, match="below 2"):
        small_spectrum(assemble(land, 0.2, g), count=1)
