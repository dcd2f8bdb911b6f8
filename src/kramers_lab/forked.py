"""Run calls in child processes beside this one and take their results.

``starmap`` is the one way the package starts a process.  It fans out the
small-spectrum solves (``analysis.solve_spectra``), the SDE shards
(``sde.simulate``) and the graded self-test's instance ranges
(``graded.measure_instances``), each call in a ``Forked`` child.

Children are forked where the OS can: a fork starts in milliseconds and
inherits its arguments, against about 1 s for spawn or forkserver, whose
children import the parent's ``__main__`` (the CLI, and SciPy with it)
again and are sent pickled arguments.  Each child is a plain Process with
a one-way Pipe rather than an executor, whose manager thread would live
in this process: a fork with a live thread can deadlock the child.
"""

from __future__ import annotations

import gc
import os
import traceback


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerError(RuntimeError):
    """A child process failed; the cause carries its traceback."""


class _RemoteTraceback(Exception):
    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _send_result(conn, fn, args) -> None:
    """Child body: send ``(fn(*args), None)`` or ``(None, traceback)``.

    A result that cannot be pickled is sent as the traceback of that
    error; ``send`` pickles before it writes, so nothing else was sent.
    """
    try:
        result = (fn(*args), None)
    except Exception:
        result = (None, traceback.format_exc())
    try:
        conn.send(result)
    except Exception:
        conn.send((None, traceback.format_exc()))
    conn.close()


class Forked:
    """``fn(*args)`` in a child process that runs beside this one."""

    def __init__(self, fn, *args):
        # imported here: runs that fork nothing need none of it
        import multiprocessing

        context = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn")
        self._conn, child_end = context.Pipe(duplex=False)
        self._proc = context.Process(target=_send_result,
                                     args=(child_end, fn, args), daemon=True)
        try:
            self._proc.start()
        except BaseException:
            self._proc = None
            self._conn.close()
            raise
        finally:
            child_end.close()

    def result(self):
        """The child's return value; its exception becomes WorkerError."""
        try:
            value, tb = self._conn.recv()
        except EOFError:            # it died before sending
            value = tb = None
        self._proc.join()
        code = self._proc.exitcode
        self.close()
        if tb is not None:
            raise WorkerError(tb.rstrip().splitlines()[-1]) \
                from _RemoteTraceback(tb)
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")
        return value

    def close(self) -> None:
        """Reap the child, terminating it if it still runs."""
        if self._proc is None:
            return
        self._proc.terminate()      # a no-op once it has been joined
        self._proc.join()
        self._proc = None
        self._conn.close()


def starmap(fn, arglists) -> list:
    """``fn(*args)`` for each item of ``arglists``, in input order.

    With one usable CPU the calls run in this process.  Otherwise each runs
    in a ``Forked`` child, at most ``usable_cpus()`` at once, so the
    machine's peak memory grows with that many calls' own.  A slot goes to
    the next call as soon as any child has sent its result, so a long call
    holds only its own CPU.  ``arglists`` is read as a slot is about to
    free: a generator builds the next arguments while the children run.
    The first failed call to report raises ``WorkerError`` after the other
    children are stopped.

    ``gc.freeze()`` before the first fork keeps every collector off the
    objects the processes share, so fewer copy-on-write pages get
    duplicated; the window unfreezes them when its last child is reaped.
    """
    cpus = usable_cpus()
    if cpus == 1:
        return [fn(*args) for args in arglists]
    from multiprocessing.connection import wait

    results, live = {}, {}      # input index -> result; pipe -> child

    def collect():
        i, child = live.pop(wait(list(live))[0])
        results[i] = child.result()

    gc.freeze()
    try:
        for i, args in enumerate(arglists):
            if len(live) == cpus:
                collect()
            child = Forked(fn, *args)
            live[child._conn] = (i, child)
        while live:
            collect()
    finally:
        for _, child in live.values():
            child.close()
        gc.unfreeze()
    return [results[i] for i in range(len(results))]
