"""Sublevel-set topology and the recursive labelling of minima.

For a Morse potential the metastable hierarchy is encoded by *separating
saddles*: index-1 critical points s whose two descent pockets, each
sampled by one node a few grid steps from s along the unstable Hessian
eigenvector, lie in distinct connected components of the strict sublevel
set just below V(s).  Sweeping the separating saddle values
``sigma_2 > ... > sigma_N`` downwards (with a fictive ``sigma_1 = +inf``),
each round labels the new components of ``{V < sigma_i}`` that contain no
previously labelled minimum: the component E(m) is attached to its deepest
minimum m, to the boundary saddles j(m), to the saddle value sigma(m) and to
the barrier S(m) = sigma(m) - V(m).

Connectivity is computed on the box's uniform `grid.Grid` with face
adjacency (`label_components`: the connected components, found by a NumPy
union-find, of the graph that joins neighbouring mask nodes); levels are
only ever probed just below critical values, where the discrete topology
is stable.  Components that contain no critical minimum (sub-grid
shards along a level set) are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .grid import Grid
from .landscape import CriticalPoint, Landscape

__all__ = [
    "SublevelTopology", "SaddleSeparation", "LabelledWell", "WellMap",
    "GenericityReport", "LabellingError", "separating_saddles",
    "label_minima", "flood_component", "label_components",
]

VALUE_TIE_TOL = 1e-10   # two critical values closer than this count as equal
POCKET_STEPS = 3        # grid steps from a saddle to its pocket sample nodes


class LabellingError(RuntimeError):
    pass


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Face-adjacent components of a boolean array of one or more axes.

    Returns ``(labels, n)`` with int32 labels, 0 off the mask and 1..n on
    it, the components numbered in raster order of their first node.

    A union-find over the mask nodes, numbered in raster order: every round
    hooks the larger root of each edge whose ends have different roots
    under the smaller one, then pointer-jumps until every node points at a
    root.  Roots only ever point to lower nodes, so each component's root
    ends up its lowest node.
    """
    mask = np.asarray(mask, dtype=bool)
    count = int(np.count_nonzero(mask))
    index = np.full(mask.shape, -1, dtype=np.intp)
    index[mask] = np.arange(count)
    # one edge per pair of mask nodes that are neighbours along an axis
    heads, tails = [], []
    for k in range(mask.ndim):
        lo = (slice(None),) * k + (slice(None, -1),)
        hi = (slice(None),) * k + (slice(1, None),)
        both = mask[lo] & mask[hi]
        heads.append(index[lo][both])
        tails.append(index[hi][both])
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    root = np.arange(count)
    while True:
        a, b = root[heads], root[tails]
        split = a != b
        if not split.any():
            break
        heads, tails, a, b = heads[split], tails[split], a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # number the roots in raster order
    is_root = root == np.arange(count)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.cumsum(is_root)[root]
    return labels, int(np.count_nonzero(is_root))


def flood_component(mask: np.ndarray, seed: tuple[int, ...]) -> np.ndarray:
    """Connected component (face adjacency) of ``mask`` containing ``seed``."""
    if not mask[seed]:
        raise LabellingError(f"seed node {seed} is not inside the mask")
    labels, _ = label_components(mask)
    return labels == labels[seed]


class SublevelTopology:
    """V sampled on the box's uniform ``Grid``, with cached
    connected-component labellings of strict sublevel sets."""

    def __init__(self, land: Landscape, resolution: int = 256):
        self.grid = grid = Grid(land.halfwidth, resolution)
        self.values = land.V_at(grid.points()).reshape(grid.n, grid.n)
        self._labels_cache: dict[float, tuple[np.ndarray, int]] = {}

    def components(self, level: float) -> tuple[np.ndarray, int]:
        """Labelled components of {V < level}; label 0 is the complement."""
        if level in self._labels_cache:
            return self._labels_cache[level]
        if math.isinf(level) and level > 0:
            labels = np.ones_like(self.values, dtype=np.int32)
            out = (labels, 1)
        else:
            out = label_components(self.values < level)
        self._labels_cache[level] = out
        return out

    def component_of(self, point, level: float) -> int:
        labels, _ = self.components(level)
        return int(labels[self.grid.ij_of(point)])


# ---------------------------------------------------------------------------
# Separating saddles

@dataclass(frozen=True)
class SaddleSeparation:
    """Local/global separation data for one index-1 saddle."""

    saddle: CriticalPoint
    level: float                     # V(s) - eps used for the test
    pocket_points: tuple[np.ndarray, np.ndarray]   # one node in each pocket
    separating: bool


def separating_saddles(
    criticals: list[CriticalPoint],
    topo: SublevelTopology,
) -> list[SaddleSeparation]:
    """Classify every index-1 critical point as separating or not.

    Each descent pocket of a saddle s is sampled by one node: the node
    nearest s +- 3 dx e, with e the unit eigenvector of the Hessian's
    negative eigenvalue lambda_1.  Both nodes must lie below the level
    V(s) - eps, eps one grid-quantum of descent (0.5 |lambda_1| dx^2), else
    the grid is declared too coarse; a smaller box is advised only when V's
    quadratic model at s puts the node below that level, as a miss of the
    model scales with dx^2 like eps.  The saddle separates iff the two
    nodes fall in distinct components of {V < V(s) - eps}.
    """
    grid = topo.grid
    out = []
    for s in criticals:
        if not s.is_saddle:
            continue
        lam, vec = np.linalg.eigh(s.hessian)     # lam[0] is the negative one
        level = s.value - 0.5 * abs(lam[0]) * grid.spacing**2
        ray = POCKET_STEPS * grid.spacing * vec[:, 0]
        nodes = [grid.ij_of(s.point + ray), grid.ij_of(s.point - ray)]
        labels, _ = topo.components(level)
        for ij in nodes:
            if labels[ij] == 0:
                d = grid.axis[list(ij)] - s.point
                model = s.value + 0.5 * d @ s.hessian @ d - level
                raise LabellingError(
                    f"a descent pocket node {POCKET_STEPS} steps from the "
                    f"saddle at {s.point} sits {topo.values[ij] - level:.3g} "
                    f"above V(s) - eps; grid too coarse for the {grid.n}-node "
                    "labelling grid: the quadratic model of V at the saddle "
                    f"(Hessian eigenvalues {lam[0]:.4g} and {lam[1]:.4g}) "
                    f"puts the node {abs(model):.3g} " + (
                        "below it, so V's higher-order terms cause the miss; "
                        "shrink the box" if model < 0 else
                        "above it too: the node sits off the descent ray, "
                        "where its height scales with dx^2 as eps does, so "
                        "no box size resolves this saddle"))
        out.append(SaddleSeparation(
            saddle=s, level=level,
            pocket_points=tuple(grid.axis[list(ij)] for ij in nodes),
            separating=bool(labels[nodes[0]] != labels[nodes[1]]),
        ))
    return out


# ---------------------------------------------------------------------------
# Recursive labelling

@dataclass(frozen=True)
class LabelledWell:
    """One minimum with its labelling data.

    ``sigma`` and ``barrier`` are +inf for the global well.  ``saddle_sides``
    gives, for each saddle in j(m), a sample point of the E(m)-side descent
    pocket and one of the far side (used downstream to orient the unstable
    direction and to seed component fills on other grids).
    """

    minimum: CriticalPoint
    round_index: int
    sigma: float
    barrier: float
    saddles: tuple[CriticalPoint, ...]
    saddle_sides: tuple[tuple[CriticalPoint, np.ndarray, np.ndarray], ...]
    level: float                 # grid level realizing E(m); +inf for round 1
    prev_sigma: float            # sigma_{i-1} (+inf for rounds 1 and 2)
    hat_minimum: CriticalPoint | None

    @property
    def is_global(self) -> bool:
        return math.isinf(self.barrier)


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class WellMap:
    wells: tuple[LabelledWell, ...]
    separations: tuple[SaddleSeparation, ...]
    topo: SublevelTopology

    @property
    def global_well(self) -> LabelledWell:
        return next(w for w in self.wells if w.is_global)

    @cached_property
    def genericity(self) -> GenericityReport:
        """The paper's generic assumption: a unique deepest minimum in
        every labelled component, and disjoint j(m) sets."""
        violations: list[str] = []
        ij = self.topo.grid.ij_of
        for w in self.wells:
            # E(m) at its level; the global well's level +inf holds all
            labels, _ = self.topo.components(w.level)
            own = labels[ij(w.minimum.point)]
            values = sorted(x.minimum.value for x in self.wells
                            if labels[ij(x.minimum.point)] == own)
            if len(values) > 1 and values[1] - values[0] <= VALUE_TIE_TOL:
                violations.append(
                    f"component of minimum {w.minimum.point} has tied "
                    f"deepest minima (values {values[0]:.12g}, "
                    f"{values[1]:.12g})")
        for a, b in combinations(self.wells, 2):
            if {id(s) for s in a.saddles} & {id(s) for s in b.saddles}:
                violations.append(f"j(m) sets of minima {a.minimum.point} "
                                  f"and {b.minimum.point} overlap")
        return GenericityReport(generic=not violations,
                                violations=tuple(violations))

    def E_mask(self, well: LabelledWell) -> np.ndarray:
        """Grid mask of E(m) on the labelling grid."""
        if well.is_global:
            return np.ones_like(self.topo.values, dtype=bool)
        labels, _ = self.topo.components(well.level)
        return labels == labels[self.topo.grid.ij_of(well.minimum.point)]


def _deepest(minima: list[CriticalPoint]) -> CriticalPoint:
    """Minimum of smallest value; ties within VALUE_TIE_TOL broken
    lexicographically by coordinates."""
    best = min(m.value for m in minima)
    tied = [m for m in minima if m.value <= best + VALUE_TIE_TOL]
    return min(tied, key=lambda m: tuple(m.point))


def label_minima(
    criticals: list[CriticalPoint],
    topo: SublevelTopology,
) -> WellMap:
    """Run the labelling recursion over decreasing separating saddle values."""
    minima = [c for c in criticals if c.is_minimum]
    if not minima:
        raise LabellingError("no minima to label")
    seps = separating_saddles(criticals, topo)
    separating = [s for s in seps if s.separating]

    # Distinct saddle values, descending; saddles tied within tolerance share
    # a round.
    rounds: list[list[SaddleSeparation]] = []
    for sep in sorted(separating, key=lambda s: -s.saddle.value):
        if rounds and rounds[-1][0].saddle.value - sep.saddle.value <= VALUE_TIE_TOL:
            rounds[-1].append(sep)
        else:
            rounds.append([sep])

    wells: list[LabelledWell] = []
    labelled: list[CriticalPoint] = []

    # Round 1: the global minimum, E = the whole space.
    m0 = _deepest(minima)
    wells.append(LabelledWell(
        minimum=m0, round_index=1, sigma=math.inf, barrier=math.inf,
        saddles=(), saddle_sides=(), level=math.inf, prev_sigma=math.inf,
        hat_minimum=None,
    ))
    labelled.append(m0)

    prev_sigma = math.inf
    for i, group in enumerate(rounds, start=2):
        sigma = group[0].saddle.value
        level = min(sep.level for sep in group)
        labels, _ = topo.components(level)

        labelled_comps = {labels[topo.grid.ij_of(m.point)] for m in labelled}
        remaining = [m for m in minima
                     if not any(m is x for x in labelled)]
        by_comp: dict[int, list[CriticalPoint]] = {}
        for m in remaining:
            lab = labels[topo.grid.ij_of(m.point)]
            if lab == 0:
                continue  # this minimum sits above the current level
            by_comp.setdefault(int(lab), []).append(m)

        for lab, comp_minima in sorted(by_comp.items()):
            if lab in labelled_comps:
                continue
            m = _deepest(comp_minima)
            adjacent = []
            sides = []
            for sep in group:
                pa, pb = sep.pocket_points
                la = labels[topo.grid.ij_of(pa)]
                lb = labels[topo.grid.ij_of(pb)]
                if la == lab:
                    adjacent.append(sep)
                    sides.append((sep.saddle, pa, pb))
                elif lb == lab:
                    adjacent.append(sep)
                    sides.append((sep.saddle, pb, pa))
            if not adjacent:
                raise LabellingError(
                    f"component of minimum {m.point} appeared at level "
                    f"{sigma:.6g} without an adjacent separating saddle"
                )
            # The far side of any boundary saddle identifies the adjacent
            # component; its deepest minimum is m-hat.
            far_labels = {labels[topo.grid.ij_of(far)] for _, _, far in sides}
            hat = None
            candidates = [mm for mm in minima
                          if labels[topo.grid.ij_of(mm.point)] in far_labels]
            if candidates:
                hat = _deepest(candidates)
            wells.append(LabelledWell(
                minimum=m, round_index=i, sigma=sigma,
                barrier=sigma - m.value,
                saddles=tuple(sep.saddle for sep in adjacent),
                saddle_sides=tuple(sides),
                level=level, prev_sigma=prev_sigma,
                hat_minimum=hat,
            ))
            labelled.append(m)
        prev_sigma = sigma

    if len(labelled) != len(minima):
        missing = [m.point for m in minima if not any(m is x for x in labelled)]
        raise LabellingError(
            f"labelling incomplete; unreached minima at {missing} "
            "(no separating saddle isolates them; check the landscape or grid)"
        )
    return WellMap(wells=tuple(wells), separations=tuple(seps), topo=topo)
