"""Shared fixtures: one ``Analysis`` per preset for the whole session.

Building the well map and assembling 192-squared operators is the dominant
cost of the suite, so each preset's ``Analysis`` (critical points, well
map, saddle data, operators per (h, n, form)) is built once per session and
shared between the module tests and the acceptance suite.
"""

import pytest

from kramers_lab.analysis import Analysis
from kramers_lab.landscape import make_preset


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
def sde_tilted(tilted_c0, tilted_c1):
    """2000-trial hitting runs at h = 0.2 with their dt-halved twins.

    These take a few minutes combined, so both the module tests and the
    acceptance suite draw from this single set of runs.
    """
    from kramers_lab.sde import halved_dt, hitting_time_stats, make_config

    runs = {}
    for tag, ana in (("c0", tilted_c0), ("c1", tilted_c1)):
        cfg = make_config(ana.land, ana.wm, 0.2, trials=2000, seed=0)
        runs[tag] = (cfg, hitting_time_stats(cfg))
        half = halved_dt(cfg)
        runs[tag + "_half"] = (half, hitting_time_stats(half))
    return runs


@pytest.fixture(scope="session")
def sde_arrhenius(tilted_c0):
    """2000-trial runs at h = 0.15 and h = 0.25 for the slowdown trend."""
    from kramers_lab.sde import hitting_time_stats, make_config

    out = {}
    for h in (0.15, 0.25):
        cfg = make_config(tilted_c0.land, tilted_c0.wm, h, trials=2000, seed=0)
        out[h] = hitting_time_stats(cfg)
    return out
