"""The analysis chain of one landscape, each link built on first use.

critical points -> labelled wells (sigma(m), S(m), separating saddles) ->
transverse saddle data behind zeta(m) -> discretized generator per
(h, n) -> its small spectrum per (h, n).  Every link is computed once
and kept for the life of the object, so the CLI stages and the tests that
share an ``Analysis`` never repeat a critical-point search, a labelling, an
assembly or an eigensolve.  ``solve_spectra`` fills the spectrum caches of
many analyses at once, one forked child per solve.

The package ``__init__`` does not import this module.  The benchmark's
tracer (``perfbench/traced_cli.py``) wraps the library functions before it
imports the CLI, and a module imported earlier would keep the unwrapped
ones, losing their spans and counts without an error.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from . import forked
from .discretize import (Grid, OperatorMatrix, SpectrumResult, assemble,
                         small_spectrum)
from .labelling import LabelledWell, SublevelTopology, WellMap, label_minima
from .landscape import CriticalPoint, Landscape, find_critical_points
from .saddle import SaddleSpectralData, transverse_map


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
        """The weighted generator ("L-weighted") on the n x n grid."""
        key = (h, n)
        if key not in self._operators:
            grid = Grid(halfwidth=self.land.halfwidth, n=n)
            self._operators[key] = assemble(self.land, h, grid, "L-weighted",
                                            criticals=self.criticals)
        return self._operators[key]

    def spectrum(self, h: float, n: int) -> SpectrumResult:
        """Small spectrum of the weighted generator, two eigenvalues past
        the labelled wells' count (at least six), solved in this process."""
        key = (h, n)
        if key not in self._spectra:
            self._spectra[key] = small_spectrum(*self._solve_args(h, n))
        return self._spectra[key]

    def _solve_args(self, h: float, n: int) -> tuple[OperatorMatrix, int]:
        """``small_spectrum``'s arguments, the same for ``spectrum`` and
        ``solve_spectra``: the weighted generator and the count."""
        return self.operator(h, n), max(6, len(self.wm.wells) + 2)


def solve_spectra(requests) -> None:
    """Cache ``Analysis.spectrum(h, n)`` for every ``(analysis, h, n)``.

    Each operator is assembled in this process, through
    ``Analysis.operator``, and each spectrum not yet cached is solved by
    ``small_spectrum`` in a forked child, at most ``forked.usable_cpus()``
    at once, so this process never holds an LU factor.  The children do:
    the machine's peak memory grows with ``usable_cpus()`` times one
    factor.  The solver and its arguments are those of
    ``Analysis.spectrum``, and so are the results.  A child's error is
    raised as ``forked.WorkerError`` after the other children are stopped.
    """
    cpus = forked.usable_cpus()
    live = deque()      # (analysis, key, child), oldest first

    def collect():
        ana, key, child = live[0]
        ana._spectra[key] = child.result()
        live.popleft()

    try:
        for ana, h, n in dict.fromkeys(requests):
            if (h, n) in ana._spectra:
                continue
            args = ana._solve_args(h, n)
            if len(live) == cpus:
                collect()
            live.append((ana, (h, n), forked.Forked(small_spectrum, *args)))
        while live:
            collect()
    finally:
        for *_, child in live:
            child.close()
