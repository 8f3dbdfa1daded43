"""Shared fixtures: the mesh ladder is expensive, build it once."""

import numpy as np
import pytest

from tracefem.cli import _DEFAULTS, Pipeline

LADDER = (48, 96, 192)      # cell sizes 1/16, 1/32, 1/64
BBOX = (-1.5, 1.5)
K_MAX = 128
# the unit circle, q_surf 10 and c_res 0.5 come from the defaults
CONFIG = dict(_DEFAULTS, bbox=BBOX, k_max=K_MAX)


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


def _trajectory(ops, cfg, fold=None):
    """The RunResult of cfg on ops and its (nsteps + 1, n_dofs) trajectory,
    collected from the chunks run() hands out; each chunk also goes to
    fold, when given."""
    from tracefem.heatsolver import run
    chunks = []

    def keep(first, states):
        chunks.append(states.copy())
        if fold is not None:
            fold(first, states)

    result = run(ops, cfg, keep)
    return result, np.concatenate(chunks)


@pytest.fixture(scope="session")
def trajectory():
    return _trajectory


@pytest.fixture(scope="session")
def decay_runs(ladder):
    """Backward-Euler runs of u = e^-t cos(theta) with dt = h^2/4:
    (result, trajectory, error record) per mesh."""
    from tracefem.heatsolver import MANUFACTURED, ErrorFold, HeatRun
    man = MANUFACTURED["decaying_mode"]
    out = {}
    for n, s in ladder.items():
        dt = s.background.h_global ** 2 / 4.0
        cfg = HeatRun(scheme="BDF1", dt=dt, t_final=0.25,
                      u0=lambda th: np.cos(th), f=None, manufactured=man)
        fold = ErrorFold(s.ops, cfg, man)
        result, hist = _trajectory(s.ops, cfg, fold)
        out[n] = (result, hist, fold.record())
    return out
