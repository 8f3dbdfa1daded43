"""Shared fixtures: the mesh ladder is expensive, build it once."""

import warnings

import numpy as np
import pytest

from tracefem.cli import _DEFAULTS, Pipeline
from tracefem.cutquad import TangencyWarning

warnings.simplefilter("ignore", TangencyWarning)

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


@pytest.fixture(scope="session")
def decay_runs(ladder):
    """Backward-Euler runs of u = e^-t cos(theta) with dt = h^2/4."""
    from tracefem.heatsolver import (MANUFACTURED, HeatRun, accumulate_errors,
                                     run)
    man = MANUFACTURED["decaying_mode"]
    out = {}
    for n, s in ladder.items():
        dt = s.background.h_global ** 2 / 4.0
        cfg = HeatRun(scheme="BDF1", dt=dt, t_final=0.25,
                      u0=lambda th: np.cos(th), f=None, manufactured=man)
        result = run(s.ops, cfg)
        record = accumulate_errors(s.ops, result, man)
        out[n] = (result, record)
    return out
