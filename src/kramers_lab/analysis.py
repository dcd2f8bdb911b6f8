"""The analysis chain of one landscape, each link built on first use.

critical points -> labelled wells (sigma(m), S(m), separating saddles) ->
transverse saddle data behind zeta(m) -> discretized generator per
(h, n, form) -> its small spectrum per (h, n).  Every link is computed once
and kept for the life of the object, so the CLI stages and the tests that
share an ``Analysis`` never repeat a critical-point search, a labelling, an
assembly or an eigensolve.

The package ``__init__`` does not import this module.  The benchmark's
tracer (``perfbench/traced_cli.py``) wraps the library functions before it
imports the CLI, and a module imported earlier would keep the unwrapped
ones, losing their spans and counts without an error.
"""

from __future__ import annotations

from functools import cached_property

from .discretize import (Grid, OperatorMatrix, SpectrumResult, assemble,
                         small_spectrum)
from .labelling import LabelledWell, SublevelTopology, WellMap, label_minima
from .landscape import CriticalPoint, Landscape, find_critical_points
from .saddle import SaddleSpectralData, transverse_map


class Analysis:
    """Cached analysis of ``land``; see the module docstring."""

    def __init__(self, land: Landscape):
        self.land = land
        self._operators: dict = {}   # (h, n, which) -> OperatorMatrix
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

    @property
    def shallow_well(self) -> LabelledWell:
        """The non-global well labelled in the earliest round: the SDE
        start well, and the only non-global well of a double well."""
        return min((w for w in self.wm.wells if not w.is_global),
                   key=lambda w: w.round_index)

    def operator(self, h: float, n: int,
                 which: str = "L-weighted") -> OperatorMatrix:
        key = (h, n, which)
        if key not in self._operators:
            grid = Grid(halfwidth=self.land.halfwidth, n=n)
            self._operators[key] = assemble(self.land, h, grid, which,
                                            criticals=self.criticals)
        return self._operators[key]

    def spectrum(self, h: float, n: int) -> SpectrumResult:
        """Small spectrum of the weighted generator, two eigenvalues past
        the labelled wells' count (at least six)."""
        key = (h, n)
        if key not in self._spectra:
            self._spectra[key] = small_spectrum(
                self.operator(h, n), count=max(6, len(self.wm.wells) + 2))
        return self._spectra[key]
