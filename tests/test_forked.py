"""The one process primitive: results, gc frozen while children live, and
the windowed fan-out built on it."""

import gc
import multiprocessing
import threading
import time

import numpy as np
import pytest

from kramers_lab import forked
from kramers_lab.analysis import Analysis, solve_spectra
from kramers_lab.discretize import small_spectrum
from kramers_lab.forked import Forked, WorkerError


def test_gc_stays_frozen_until_the_last_child_is_reaped():
    outer = Forked(sum, [1, 2])
    inner = Forked(max, 3, 4)
    assert inner.result() == 4
    assert gc.get_freeze_count() > 0      # outer is still alive
    assert outer.result() == 3
    assert gc.get_freeze_count() == 0
    assert multiprocessing.active_children() == []


def test_unpicklable_result_keeps_its_traceback():
    # a lock cannot be pickled, so the child cannot send it back
    with pytest.raises(WorkerError, match="^TypeError: cannot pickle") as info:
        Forked(threading.Lock).result()
    cause = str(info.value.__cause__)
    assert "in _send_result" in cause
    assert "TypeError: cannot pickle '_thread.lock' object" in cause
    assert multiprocessing.active_children() == []
    assert gc.get_freeze_count() == 0


def _slower_first(i):
    time.sleep(0.1 * (5 - i))     # later calls finish first
    return i


def test_starmap_returns_results_in_input_order(monkeypatch):
    alive = []
    init = Forked.__init__

    def spy(self, *args):
        init(self, *args)
        alive.append(len(multiprocessing.active_children()))

    monkeypatch.setattr(Forked, "__init__", spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    assert forked.starmap(_slower_first, ((i,) for i in range(5))) == \
        [0, 1, 2, 3, 4]
    assert len(alive) == 5
    assert max(alive) == 2
    assert multiprocessing.active_children() == []
    assert gc.get_freeze_count() == 0


def _timed_sleep(seconds):
    start = time.monotonic()
    time.sleep(seconds)
    return start, time.monotonic()


def test_starmap_frees_the_slot_of_the_first_child_to_finish(monkeypatch):
    # the third call takes the second call's slot while the long first
    # call still runs, instead of waiting for the oldest child
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    (_, long_end), _, (third_start, _) = forked.starmap(
        _timed_sleep, [(2.0,), (0.05,), (0.05,)])
    assert third_start < long_end
    assert multiprocessing.active_children() == []


def test_one_cpu_solves_in_this_process(tilted_c0, monkeypatch):
    started = []
    init = Forked.__init__

    def spy(self, *args):
        started.append(args)
        init(self, *args)

    monkeypatch.setattr(Forked, "__init__", spy)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    ana = Analysis(tilted_c0.land)
    hs = (0.2, 0.25)
    solve_spectra([(ana, h, 64) for h in hs])
    assert started == []
    for h in hs:
        # two wells: the count solve_spectra asks for is six
        direct = small_spectrum(ana.operator(h, 64), 6)
        assert np.array_equal(ana._spectra[h, 64].eigenvalues,
                              direct.eigenvalues)
