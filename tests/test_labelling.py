"""Sublevel topology, separating saddles, and the labelling recursion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage

from kramers_lab import expr as ex
from kramers_lab.analysis import Analysis
from kramers_lab.landscape import Landscape, find_critical_points, make_preset
from kramers_lab.labelling import (
    LabellingError,
    SublevelTopology,
    flood_component,
    label_components,
    label_minima,
    separating_saddles,
)


def build(name, **kw):
    land = make_preset(name, **kw)
    cps = find_critical_points(land)
    topo = SublevelTopology(land, resolution=256)
    return land, cps, topo


# A four-well landscape with one *non*-separating saddle: two channels of
# different heights join the upper and lower well pairs, and the higher
# channel's saddle sees both of its descent pockets in an already-connected
# sublevel component.
QUARTET = Landscape(
    V=ex.parse("(x^2 - 1)^2 + (y^2 - 1)^2 + 0.1*y + 0.03*x", 2),
    b=(ex.constant(0.0), ex.constant(0.0)),
    nu=(ex.constant(0.0), ex.constant(0.0)),
    halfwidth=2.0,
)


# ---------------------------------------------------------------------------
# 1D oracle for separable potentials V = W(x) + y^2: the number of components
# of {V < a} equals the number of maximal intervals of {W < a}.

def interval_count(land, level, n=20001):
    xs = np.linspace(-land.halfwidth, land.halfwidth, n)
    w = land.V_at(np.stack([xs, np.zeros_like(xs)], axis=-1))
    below = w < level
    return int(np.sum(below[1:] & ~below[:-1]) + below[0])


@pytest.mark.parametrize("name", ["tilted_double_well", "triple_well"])
def test_component_counts_match_1d_oracle(name):
    land, cps, topo = build(name)
    values = sorted(cp.value for cp in cps)
    probes = [0.5 * (a + b) for a, b in zip(values, values[1:])]
    probes += [values[0] + 0.01, values[-1] + 0.5]
    for level in probes:
        _, n2d = topo.components(level)
        assert n2d == interval_count(land, level), f"level {level}"


def test_component_of_and_node_of():
    land, cps, topo = build("tilted_double_well")
    minima = [cp for cp in cps if cp.is_minimum]
    saddle = next(cp for cp in cps if cp.is_saddle)
    level = saddle.value - 0.01
    ids = {topo.component_of(m.point, level) for m in minima}
    assert len(ids) == 2 and 0 not in ids
    # above the saddle the wells merge
    assert topo.component_of(minima[0].point, saddle.value + 0.05) == \
        topo.component_of(minima[1].point, saddle.value + 0.05)


def test_all_preset_saddles_are_separating():
    for name in ("sym_double_well", "tilted_double_well", "triple_well"):
        _, cps, topo = build(name)
        seps = separating_saddles(cps, topo)
        assert len(seps) == sum(cp.is_saddle for cp in cps)
        assert all(s.separating for s in seps)


def test_rotated_tilted_well_labels_like_the_unrotated_one():
    # the tilted double well with its axes oblique to the grid,
    # u = 0.8x + 0.6y: a ball around the saddle cut slivers off its pockets
    zero = ex.constant(0.0)
    rotated = Landscape(
        V=ex.parse("((0.8*x+0.6*y)^2 - 1)^2 + 0.5*(0.8*x+0.6*y)"
                   " + (0.6*x-0.8*y)^2", 2),
        b=(zero, zero), nu=(zero, zero), halfwidth=2.0)
    ana = Analysis(rotated)
    assert len(ana.wm.wells) == 2
    lam = max(p.lam(0.2) for p in ana.predictions)
    plain = Analysis(make_preset("tilted_double_well"))
    # 0.0506099...
    assert lam == pytest.approx(max(p.lam(0.2) for p in plain.predictions),
                                rel=1e-9)


def test_quartet_has_one_non_separating_saddle():
    cps = find_critical_points(QUARTET)
    assert len(cps) == 9  # 4 minima, 4 index-1 saddles, 1 maximum
    topo = SublevelTopology(QUARTET, resolution=256)
    seps = separating_saddles(cps, topo)
    non_sep = [s for s in seps if not s.separating]
    assert len(non_sep) == 1
    # the high channel sits near (0, +1)
    np.testing.assert_allclose(non_sep[0].saddle.point, [0.0, 1.0], atol=0.05)


def test_quartet_labelling_structure():
    cps = find_critical_points(QUARTET)
    topo = SublevelTopology(QUARTET, resolution=256)
    wm = label_minima(cps, topo)
    assert len(wm.wells) == 4
    glob = wm.global_well
    np.testing.assert_allclose(glob.minimum.point, [-1, -1], atol=0.05)

    # rounds are ordered by decreasing saddle value, every other well has
    # exactly one boundary saddle here, and every adjacent component's
    # deepest minimum is the global one
    others = [w for w in wm.wells if not w.is_global]
    sigmas = [w.sigma for w in sorted(others, key=lambda w: w.round_index)]
    assert sigmas == sorted(sigmas, reverse=True)
    for w in others:
        assert len(w.saddles) == 1
        assert w.sigma == w.saddles[0].value
        assert w.barrier == pytest.approx(w.sigma - w.minimum.value)
        assert w.hat_minimum is glob.minimum
    # the non-separating saddle belongs to no j(m)
    j_all = {id(s) for w in wm.wells for s in w.saddles}
    non_sep = next(s for s in wm.separations if not s.separating)
    assert id(non_sep.saddle) not in j_all
    assert wm.genericity.generic


def test_tilted_double_well_labels():
    land, cps, topo = build("tilted_double_well")
    wm = label_minima(cps, topo)
    glob = wm.global_well
    assert glob.minimum.value == pytest.approx(-0.5147536, abs=1e-6)
    (other,) = [w for w in wm.wells if not w.is_global]
    assert other.sigma == pytest.approx(1.0315022, abs=1e-6)
    assert other.barrier == pytest.approx(0.5482507, abs=1e-6)
    assert len(other.saddles) == 1
    assert other.hat_minimum is glob.minimum
    assert math.isinf(other.prev_sigma)
    rep = wm.genericity
    assert rep.generic and rep.violations == ()


def test_triple_well_labels_and_rounds():
    land, cps, topo = build("triple_well")
    wm = label_minima(cps, topo)
    rounds = {w.round_index: w for w in wm.wells}
    assert set(rounds) == {1, 2, 3}
    assert rounds[1].minimum.point[0] == pytest.approx(-2.0347, abs=1e-3)
    # the deeper barrier (right well) is labelled first
    assert rounds[2].minimum.point[0] == pytest.approx(1.9588, abs=1e-3)
    assert rounds[3].minimum.point[0] == pytest.approx(-0.1536, abs=1e-3)
    assert rounds[2].barrier > rounds[3].barrier
    # round 3 sees round 2's sigma as its enclosing level
    assert rounds[3].prev_sigma == pytest.approx(rounds[2].sigma)
    assert rounds[2].hat_minimum is rounds[1].minimum
    assert rounds[3].hat_minimum is rounds[1].minimum
    assert wm.genericity.generic


def test_equal_depth_double_well_flagged():
    land, cps, topo = build("sym_double_well")
    wm = label_minima(cps, topo)
    # lexicographic tie-break picks the left minimum as global
    assert wm.global_well.minimum.point[0] == pytest.approx(-1.0, abs=1e-8)
    rep = wm.genericity
    assert not rep.generic
    (violation,) = rep.violations
    assert "tied deepest minima" in violation
    # the report is computed once per well map
    assert wm.genericity is rep


def test_wellmap_invariants_and_masks():
    for name in ("tilted_double_well", "triple_well"):
        land, cps, topo = build(name)
        wm = label_minima(cps, topo)
        assert sum(math.isinf(w.barrier) for w in wm.wells) == 1
        assert all(w.barrier > 0 for w in wm.wells)
        glob = wm.global_well
        assert wm.E_mask(glob).all()
        for w in wm.wells:
            if w.is_global:
                continue
            mask = wm.E_mask(w)
            assert mask[topo.grid.ij_of(w.minimum.point)]
            assert not mask[topo.grid.ij_of(glob.minimum.point)]


def test_grid_refinement_stability():
    land = make_preset("triple_well")
    cps = find_critical_points(land)
    results = []
    for res in (192, 384):
        topo = SublevelTopology(land, resolution=res)
        wm = label_minima(cps, topo)
        results.append([
            (w.round_index, tuple(np.round(w.minimum.point, 6)),
             round(w.sigma, 9) if math.isfinite(w.sigma) else math.inf,
             len(w.saddles))
            for w in sorted(wm.wells, key=lambda w: w.round_index)
        ])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# label_components against scipy.ndimage.label with face adjacency

def _assert_labels_like_ndimage(mask):
    labels, n = label_components(mask)
    ref, n_ref = ndimage.label(
        mask, structure=ndimage.generate_binary_structure(mask.ndim, 1))
    assert n == n_ref
    assert labels.dtype == ref.dtype == np.int32
    assert np.array_equal(labels, ref)


@pytest.mark.parametrize("shape", [(97,), (41, 37), (13, 11, 9)])
@pytest.mark.parametrize("fill", [0.3, 0.5, 0.6, 0.8])
def test_label_components_match_ndimage_on_random_masks(shape, fill):
    rng = np.random.default_rng([len(shape), int(10 * fill)])
    for _ in range(10):
        _assert_labels_like_ndimage(rng.random(shape) < fill)


@pytest.mark.parametrize("mask", [
    np.zeros((6, 5), dtype=bool),
    np.ones((6, 5), dtype=bool),
    np.eye(1, 30, 17, dtype=bool).reshape(6, 5),
    np.ones((1, 1), dtype=bool),
    np.ones(1, dtype=bool),
    np.ones((3, 1, 4), dtype=bool),
], ids=["empty", "full", "one-node", "1x1", "length-1", "3x1x4"])
def test_label_components_match_ndimage_on_edge_cases(mask):
    _assert_labels_like_ndimage(mask)


def _serpentine(n):
    """Every other row, joined at alternate ends: one path of ~n^2/2 nodes."""
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _spiral(n):
    """A one-node-wide path winding inwards from the corner (0, 0), its
    turns two nodes apart."""
    mask = np.zeros((n, n), dtype=bool)
    i = j = 0
    mask[0, 0] = True
    steps = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    lengths = [n - 1, n - 1, n - 1] + [n - 1 - 2 * (k // 2 + 1)
                                       for k in range(2 * n)]
    for k, length in enumerate(lengths):
        if length <= 0:
            break
        di, dj = steps[k % 4]
        for _ in range(length):
            i, j = i + di, j + dj
            mask[i, j] = True
    return mask


@pytest.mark.parametrize("mask, components", [
    (_serpentine(384), 1),
    (_spiral(383), 1),
    (np.indices((384, 384)).sum(axis=0) % 2 == 0, 384 * 384 // 2),
], ids=["serpentine-384", "spiral-383", "checkerboard-384"])
def test_label_components_match_ndimage_on_adversarial_masks(mask,
                                                             components):
    # long paths need many pointer-jumping rounds; a checkerboard has no
    # edge at all, so every mask node is its own component
    _assert_labels_like_ndimage(mask)
    assert label_components(mask)[1] == components


def test_flood_component_and_guards():
    land, cps, topo = build("tilted_double_well")
    saddle = next(cp for cp in cps if cp.is_saddle)
    mask = topo.values < saddle.value - 0.01
    comp = flood_component(mask, topo.grid.ij_of([-1.05, 0.0]))
    assert comp.sum() < mask.sum()
    with pytest.raises(LabellingError):
        flood_component(mask, topo.grid.ij_of([saddle.point[0], 1.9]))
    with pytest.raises(ValueError):
        SublevelTopology(land, resolution=8)
    # a saddle far stiffer across its descent ray than along it: the nodes
    # nearest the ray sit above V(s) - eps in the saddle's quadratic model
    # too, at every box size, so the refusal does not advise a smaller box
    for box in (2.0, 1.2):
        narrow = Landscape(V=ex.parse("0.01*(x^2-1)^2 + 50*y^2", 2),
                           b=(ex.constant(0.0), ex.constant(0.0)),
                           nu=(ex.constant(0.0), ex.constant(0.0)),
                           halfwidth=box)
        with pytest.raises(LabellingError, match="grid too coarse") as info:
            separating_saddles(find_critical_points(narrow),
                               SublevelTopology(narrow))
        msg = str(info.value)
        assert "Hessian eigenvalues -0.04 and 100" in msg
        assert "above it too" in msg
        assert "no box size resolves this saddle" in msg
        assert "shrink the box" not in msg
    # a valley that bends off the descent ray: the quadratic model puts the
    # node below V(s) - eps, so only higher-order terms cause the miss
    bent = Landscape(V=ex.parse("(x^2-1)^2 + 40*(y + x^2)^2", 2),
                     b=(ex.constant(0.0), ex.constant(0.0)),
                     nu=(ex.constant(0.0), ex.constant(0.0)),
                     halfwidth=2.0)
    with pytest.raises(LabellingError, match="grid too coarse") as info:
        separating_saddles(find_critical_points(bent), SublevelTopology(bent))
    assert "Hessian eigenvalues -4 and 80" in str(info.value)
    assert str(info.value).endswith("higher-order terms cause the miss; "
                                    "shrink the box")
