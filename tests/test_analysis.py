"""The analysis chain: its start well, and small spectra solved in forked
children."""

import gc
import multiprocessing
import time

import numpy as np
import pytest

from kramers_lab import discretize, forked
from kramers_lab import expr as ex
from kramers_lab.analysis import Analysis, solve_spectra
from kramers_lab.discretize import small_spectrum
from kramers_lab.landscape import Landscape


def test_one_well_landscape_has_no_shallow_well():
    zero = ex.constant(0.0)
    one = Analysis(Landscape(V=ex.parse("x^2 + y^2", 2),
                             b=(zero, zero), nu=(zero, zero), halfwidth=2.0))
    with pytest.raises(ValueError, match="^the landscape has a single well, "
                       "so it has no non-global well to start from$"):
        one.shallow_well


def test_forked_solves_match_in_process_solves(tilted_c0, tilted_c1):
    # fresh analyses: the shared ones may hold these spectra already
    fresh = [Analysis(ana.land) for ana in (tilted_c0, tilted_c1)]
    solve_spectra([(ana, 0.25, 96) for ana in fresh])
    for ana in fresh:
        direct = small_spectrum(ana.operator(0.25, 96),
                                max(6, len(ana.wm.wells) + 2))
        assert np.array_equal(ana._spectra[0.25, 96].eigenvalues,
                              direct.eigenvalues)
    assert multiprocessing.active_children() == []


def test_at_most_one_solve_child_per_cpu(tilted_c0, monkeypatch):
    alive = []
    init = forked.Forked.__init__

    def spy(self, *args):
        init(self, *args)
        alive.append(len(multiprocessing.active_children()))

    solve = discretize.small_spectrum

    def slow_solve(*args):
        time.sleep(0.5)     # keeps each child alive past the next fork
        return solve(*args)

    monkeypatch.setattr(forked.Forked, "__init__", spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    monkeypatch.setattr(discretize, "small_spectrum", slow_solve)
    ana = Analysis(tilted_c0.land)
    hs = (0.2, 0.25, 0.3)
    solve_spectra([(ana, h, 64) for h in hs])
    assert len(alive) == 3
    assert alive[:2] == [1, 2]
    assert max(alive) == 2
    assert multiprocessing.active_children() == []
    assert gc.get_freeze_count() == 0
    for h in hs:
        # two wells: the count solve_spectra asks for is six
        direct = small_spectrum(ana.operator(h, 64), 6)
        assert np.array_equal(ana._spectra[h, 64].eigenvalues,
                              direct.eigenvalues)
