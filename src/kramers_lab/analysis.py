"""The analysis chain of one landscape, each link built on first use.

critical points -> labelled wells (sigma(m), S(m), separating saddles) ->
transverse saddle data -> one prediction record per well (zeta(m) and
the quasimode asymptotics, for every h) -> discretized generator per
(h, n) -> its small spectrum per (h, n).  Every link is computed once
and kept for the life of the object, so the CLI stages and the tests that
share an ``Analysis`` never repeat a critical-point search, a labelling, an
assembly or an eigensolve.  ``solve_spectra`` fills the spectrum caches of
many analyses at once (``spectrum`` asks it for one), the solves fanned
out by ``forked.starmap``.

The prediction links need NumPy alone.  ``discretize``, and with it
``scipy.sparse``, is first imported by ``operator`` or ``solve_spectra``,
both in this process and before any fork: a run that only analyzes never
loads SciPy's sparse package, and the children ``solve_spectra`` forks
inherit the solver from their parent.  ``assemble`` and
``small_spectrum`` are looked up in ``discretize`` on each call, so a
wrapper installed there is the one called.

The package ``__init__`` does not import this module.  The benchmark's
tracer (``perfbench/traced_cli.py``) wraps the library functions before it
imports the CLI, and a module imported earlier would keep the functions
this one binds on import (``find_critical_points``, ``label_minima``,
``transverse_map``, ``predict_spectrum``) unwrapped, losing their spans
and counts without an error.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from . import forked
from .grid import Grid
from .labelling import LabelledWell, SublevelTopology, WellMap, label_minima
from .landscape import CriticalPoint, Landscape, find_critical_points
from .saddle import (SaddleSpectralData, WellPrediction, predict_spectrum,
                     transverse_map)

if TYPE_CHECKING:
    from .discretize import OperatorMatrix, SpectrumResult


class Analysis:
    """Cached analysis of ``land``; see the module docstring."""

    def __init__(self, land: Landscape):
        self.land = land
        self._operators: dict = {}   # (h, n) -> OperatorMatrix
        self._spectra: dict = {}     # (h, n) -> SpectrumResult

    @cached_property
    def criticals(self) -> list[CriticalPoint]:
        return find_critical_points(self.land)

    @cached_property
    def wm(self) -> WellMap:
        return label_minima(self.criticals, SublevelTopology(self.land))

    @cached_property
    def data(self) -> dict[int, SaddleSpectralData]:
        """Transverse data keyed by ``id()`` of the saddles in ``wm``."""
        return transverse_map(self.land, self.wm)

    @cached_property
    def predictions(self) -> list[WellPrediction]:
        """One ``predict_spectrum`` record per well, in round order."""
        return predict_spectrum(self.wm, self.data)

    @property
    def shallow_well(self) -> LabelledWell:
        """The non-global well labelled in the earliest round: the SDE
        start well, and the only non-global well of a double well."""
        wells = [w for w in self.wm.wells if not w.is_global]
        if not wells:
            raise ValueError("the landscape has a single well, so it has no "
                             "non-global well to start from")
        return min(wells, key=lambda w: w.round_index)

    def operator(self, h: float, n: int) -> OperatorMatrix:
        """The generator on the n x n grid: its flat form, from which the
        weighted matrix is derived on each use."""
        from .discretize import assemble

        key = (h, n)
        if key not in self._operators:
            grid = Grid(halfwidth=self.land.halfwidth, n=n)
            self._operators[key] = assemble(self.land, h, grid,
                                            criticals=self.criticals)
        return self._operators[key]

    def spectrum(self, h: float, n: int) -> SpectrumResult:
        """Small spectrum of the weighted generator, by ``solve_spectra``."""
        solve_spectra([(self, h, n)])
        return self._spectra[h, n]


def solve_spectra(requests) -> None:
    """Cache ``Analysis.spectrum(h, n)`` for every ``(analysis, h, n)``:
    two eigenvalues past the labelled wells' count, at least six.

    The spectra not yet cached are solved through ``forked.starmap``; the
    operators are assembled in this process.
    """
    from .discretize import small_spectrum

    todo = [(ana, h, n) for ana, h, n in dict.fromkeys(requests)
            if (h, n) not in ana._spectra]
    spectra = forked.starmap(small_spectrum, (
        (ana.operator(h, n), max(6, len(ana.wm.wells) + 2))
        for ana, h, n in todo))
    for (ana, h, n), res in zip(todo, spectra):
        ana._spectra[h, n] = res
