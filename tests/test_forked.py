"""The one process primitive: results, the windowed fan-out built on it,
and gc frozen for each window."""

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
from kramers_lab.graded import measure_instances


def test_gc_stays_frozen_for_one_starmap_window(monkeypatch):
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    for _ in range(2):
        # the third child forks after one of the first two is reaped
        counts = forked.starmap(gc.get_freeze_count, [()] * 3)
        assert min(counts) > 0
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


@pytest.mark.parametrize("instances", [1, 2, 7])
def test_graded_ranges_do_not_change_the_measurements(instances,
                                                      monkeypatch):
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    alone = measure_instances(instances, 7001)
    assert len(alone) == instances
    for cpus in (2, 3):
        monkeypatch.setattr(forked, "usable_cpus", lambda: cpus)
        assert measure_instances(instances, 7001) == alone
        assert multiprocessing.active_children() == []
        assert gc.get_freeze_count() == 0
