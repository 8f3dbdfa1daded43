"""Shared fixtures: the mesh ladder is expensive, build it once."""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from tracefem.cli import _DEFAULTS, Pipeline

# Property tests draw the same examples on every run and keep no
# example database, so a tier-1 run is reproducible.  What hypothesis
# still stores (its cache of the constants in the tested modules) goes to
# a temporary directory removed at exit, so a run writes nothing under
# the checkout.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

LADDER = (48, 96, 192)      # cell sizes 1/16, 1/32, 1/64
BBOX = (-1.5, 1.5)
K_MAX = 128
# the unit circle, q_surf 10 and c_res 0.5 come from the defaults
CONFIG = dict(_DEFAULTS, bbox=BBOX, k_max=K_MAX)
# an off-centre circle with R != 1, well inside the bbox
OFF_CENTRE = dict(CONFIG, center=(0.13, -0.07), radius=0.8)


@pytest.fixture(scope="session")
def ladder():
    return {n: Pipeline(CONFIG, n) for n in LADDER}


@pytest.fixture(scope="session")
def setup48(ladder):
    return ladder[48]


@pytest.fixture(scope="session")
def setup96(ladder):
    return ladder[96]


@pytest.fixture(scope="session")
def setup192(ladder):
    return ladder[192]


@pytest.fixture(scope="session")
def off_centre96():
    return Pipeline(OFF_CENTRE, 96)


def _trajectory(ops, cfg, fold=None):
    """The RunResult of cfg on ops and its (nsteps + 1, n_dofs) trajectory,
    collected from the blocks run() hands out; each block also goes to
    fold, when given."""
    from tracefem.heatsolver import run
    blocks = []

    def keep(first, states):
        blocks.append(states.copy())
        if fold is not None:
            fold(first, states)

    result = run(ops, cfg, keep)
    return result, np.concatenate(blocks)


@pytest.fixture(scope="session")
def trajectory():
    return _trajectory


@pytest.fixture(scope="session")
def decay_runs(ladder):
    """Backward-Euler runs of u = e^-t cos(theta) with dt = h^2/4:
    (HeatRun, trajectory, error record) per mesh."""
    from tracefem.heatsolver import MANUFACTURED, ErrorFold, HeatRun
    man = MANUFACTURED["decaying_mode"](1.0)
    out = {}
    for n, s in ladder.items():
        dt = s.background.h_global ** 2 / 4.0
        cfg = HeatRun(manufactured=man, dt=dt, t_final=0.25)
        fold = ErrorFold(s.ops, cfg)
        _, hist = _trajectory(s.ops, cfg, fold)
        out[n] = (cfg, hist, fold.record())
    return out
