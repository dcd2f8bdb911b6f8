"""Run the kramers-lab CLI in-process with spans around each module's public
functions, then write the spans and work counts to a JSON file.

Usage::

    python3 perfbench/traced_cli.py SPANS.json run CONFIG --seed N --out DIR

Everything after the spans path is passed to ``kramers_lab.cli.main``
unchanged.  ``kramers_lab`` must be importable (the benchmark puts the
checkout's ``src`` on ``PYTHONPATH``).

The CLI binds library functions with ``from .x import f``, so the wrappers
are installed module by module in dependency order, each before any module
that imports from it, and ``kramers_lab.cli`` is imported last.  The stage
dispatch table ``cli._STAGE_FUNCS`` is wrapped as well, giving one
``cli.stage.<name>`` span per stage.

Spans are ``[name, start, end, parent]`` rows kept in memory and written
once the CLI returns.  Work counts are taken from the values the wrapped
functions return, never from timers, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

_spans: list[list] = []
_stack: list[int] = []
_counts: dict[str, int] = {}


def _add(name: str, value: int) -> None:
    _counts[name] = _counts.get(name, 0) + int(value)


def _keep_max(name: str, value: int) -> None:
    _counts[name] = max(_counts.get(name, 0), int(value))


def _count_points(args, kwargs, out) -> None:
    _add("expr.evaluate_many.calls", 1)
    _add("expr.evaluate_many.points", len(out))


def _count_operator(args, kwargs, op) -> None:
    _keep_max("discretize.unknowns", op.matrix.shape[0])
    _keep_max("discretize.nnz", op.matrix.nnz)


def _count_solve(args, kwargs, res) -> None:
    _add("discretize.small_spectrum.calls", 1)


def _count_tubes(args, kwargs, geom) -> None:
    _add("quasimode.tube_nodes", sum(int(t.mask.sum()) for t in geom.tubes))


def _count_trial_steps(args, kwargs, stats) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    _add("sde.trial_steps", int(np.rint(stats.taus / cfg.dt).sum()))


def _count_instances(args, kwargs, report) -> None:
    _add("graded.instances", report["instances"])


# (module, attribute, span name, counter).  Module order is import order:
# every module comes after the modules it imports from.  SublevelTopology
# samples V on the labelling grid when it is built, which the CLI does just
# before calling label_minima, so both share the label_minima span name.
TARGETS = (
    ("expr", "evaluate_many", "expr.evaluate_many", _count_points),
    ("landscape", "find_critical_points", "landscape.find_critical_points",
     None),
    ("landscape", "validate_stationarity", "landscape.validate_stationarity",
     None),
    ("labelling", "SublevelTopology.__init__", "labelling.label_minima", None),
    ("labelling", "label_minima", "labelling.label_minima", None),
    ("saddle", "transverse_map", "saddle.transverse_map", None),
    ("saddle", "predict_spectrum", "saddle.predict_spectrum", None),
    ("discretize", "assemble", "discretize.assemble", _count_operator),
    ("discretize", "small_spectrum", "discretize.small_spectrum", _count_solve),
    ("quasimode", "build_cutoffs", "quasimode.build_cutoffs", _count_tubes),
    ("quasimode", "build_quasimode", "quasimode.build_quasimode", None),
    ("quasimode", "dirichlet_and_residuals",
     "quasimode.dirichlet_and_residuals", None),
    ("sde", "make_config", "sde.make_config", None),
    ("sde", "hitting_time_stats", "sde.hitting_time_stats", _count_trial_steps),
    ("graded", "selftest", "graded.selftest", _count_instances),
)


def _spanned(fn, name, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(_spans)
        _spans.append([name, time.perf_counter(), None,
                       _stack[-1] if _stack else None])
        _stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            _stack.pop()
            _spans[index][2] = time.perf_counter()
        if count is not None:
            count(args, kwargs, out)
        return out
    return wrapper


def install():
    """Wrap every target, import ``kramers_lab.cli`` and return it."""
    originals = []
    for module, attr, name, count in TARGETS:
        owner = importlib.import_module(f"kramers_lab.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals.append(getattr(owner, leaf))
        setattr(owner, leaf, _spanned(originals[-1], name, count))
    cli = importlib.import_module("kramers_lab.cli")
    unwrapped = [key for key, value in vars(cli).items()
                 if any(value is fn for fn in originals)]
    if unwrapped:
        raise RuntimeError("kramers_lab.cli bound these functions before "
                           f"their spans were installed: {unwrapped}")
    for stage, fn in list(cli._STAGE_FUNCS.items()):
        cli._STAGE_FUNCS[stage] = _spanned(fn, f"cli.stage.{stage}")
    return cli


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    cli = install()
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as f:
            json.dump({"spans": _spans, "counts": _counts}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
