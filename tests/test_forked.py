"""The one process primitive: results, and gc frozen while children live."""

import gc
import multiprocessing
import threading

import pytest

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
