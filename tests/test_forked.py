"""The one process primitive: results, and gc frozen while children live."""

import gc
import multiprocessing

from kramers_lab.forked import Forked


def test_gc_stays_frozen_until_the_last_child_is_reaped():
    outer = Forked(sum, [1, 2])
    inner = Forked(max, 3, 4)
    assert inner.result() == 4
    assert gc.get_freeze_count() > 0      # outer is still alive
    assert outer.result() == 3
    assert gc.get_freeze_count() == 0
    assert multiprocessing.active_children() == []
