"""Shared fixtures: one ``Analysis`` per preset for the whole session.

Building the well map and assembling 192-squared operators is the dominant
cost of the suite, so each preset's ``Analysis`` (critical points, well
map, saddle data, weighted operators and spectra per (h, n)) is built once
per session and shared between the module tests and the acceptance suite.
"""

import pytest

from kramers_lab import expr as ex
from kramers_lab.analysis import Analysis
from kramers_lab.discretize import OperatorMatrix
from kramers_lab.landscape import Landscape, make_preset


@pytest.fixture
def weighted_builds(monkeypatch):
    """The operators whose weighted matrix L is built from now on, one
    entry per build (``OperatorMatrix.matrix`` builds L on each use)."""
    built = []
    weighted = OperatorMatrix.matrix.fget
    monkeypatch.setattr(OperatorMatrix, "matrix",
                        property(lambda op: built.append(op) or weighted(op)))
    return built


@pytest.fixture(scope="session")
def tilted_c0():
    return Analysis(make_preset("tilted_double_well"))


@pytest.fixture(scope="session")
def tilted_c1():
    return Analysis(make_preset("tilted_double_well", c=1.0))


@pytest.fixture(scope="session")
def triple():
    return Analysis(make_preset("triple_well"))


@pytest.fixture(scope="session")
def sym_double():
    return Analysis(make_preset("sym_double_well"))


@pytest.fixture(scope="session")
def tilted_nu():
    """The tilted double well with an admissible nu != 0 drift.

    b = a J0 grad V and nu = -J0 grad a with a = 1 + x/2, so that
    b . grad V = 0, div nu = 0 and div b = grad a . J0 grad V = nu . grad V.
    """
    return Analysis(Landscape(
        V=ex.parse("(x^2 - 1)^2 + 0.5*x + y^2", 2),
        b=(ex.parse("(1 + x/2)*2*y", 2),
           ex.parse("-(1 + x/2)*(4*x^3 - 4*x + 0.5)", 2)),
        nu=(ex.parse("0", 2), ex.parse("0.5", 2)),
        halfwidth=2.0,
        name="tilted_nu",
    ))


@pytest.fixture(scope="session")
def sde_tilted(tilted_c0, tilted_c1):
    """2000-trial hitting runs at h = 0.2 with their dt-halved twins.

    These take a few minutes combined, so both the module tests and the
    acceptance suite draw from this single set of runs, stepped in one
    fan-out.
    """
    from kramers_lab.sde import (halved_dt, hitting_time_stats, make_config,
                                 simulate)

    cfgs = {}
    for tag, ana in (("c0", tilted_c0), ("c1", tilted_c1)):
        cfg = make_config(ana.land, ana.wm, 0.2,
                          start_well=ana.shallow_well, trials=2000, seed=0)
        cfgs[tag] = cfg
        cfgs[tag + "_half"] = halved_dt(cfg)
    runs = simulate(cfgs.values())
    return {tag: (cfg, hitting_time_stats(cfg, run))
            for (tag, cfg), run in zip(cfgs.items(), runs)}


@pytest.fixture(scope="session")
def sde_arrhenius(tilted_c0):
    """2000-trial runs at h = 0.15 and h = 0.25 for the slowdown trend,
    stepped in one fan-out."""
    from kramers_lab.sde import hitting_time_stats, make_config, simulate

    cfgs = {h: make_config(tilted_c0.land, tilted_c0.wm, h,
                           start_well=tilted_c0.shallow_well, trials=2000,
                           seed=0)
            for h in (0.15, 0.25)}
    runs = simulate(cfgs.values())
    return {h: hitting_time_stats(cfg, run)
            for (h, cfg), run in zip(cfgs.items(), runs)}
