"""Oracles: the separable data and the split error functionals.

The shipped manufactured solutions are products time(t) * profile(theta).
Their value, theta- and t-derivatives and forcing, taken through
``Separable`` and through the profile tabulated at the surface nodes as
the Riesz data take it, must equal the closed forms bit for bit
(``test_stacked_oracle`` checks the Riesz data against the per-node sums).

The functions prefixed ``node_`` are the L2* and H1* error functionals
as node quadratures, || v - trace x ||^2_w + s_j(x, x), that the split at
the projection of the profile replaced.  They live here only as a
reference.  The split must agree with them to 1e-13 relative on every
state of BDF1, BDF2 and Crank-Nicolson runs on the mesh ladder and on an
off-centre circle with R = 0.8, and exactly for the projection of the
data at t = 0, where the time factor is 1 and x is the tabulated
projection itself.
"""

import numpy as np
import pytest

from tracefem.heatsolver import BLOCK, MANUFACTURED
from tracefem.operators import Separable, _form, _root

from helpers import blockwise
from test_stacked_oracle import NSTEPS, _config

RTOL = 1e-13
PLACEMENTS = ["setup48", "setup96", "setup192", "off_centre96"]

CLOSED = {
    "decaying_mode": dict(
        value=lambda th, t: np.exp(-t) * np.cos(th),
        dtheta=lambda th, t: -np.exp(-t) * np.sin(th),
        dt_value=lambda th, t: -np.exp(-t) * np.cos(th),
        forcing=None),
    "forced_mode_2": dict(
        value=lambda th, t: np.cos(t) * np.cos(2 * th),
        dtheta=lambda th, t: -2.0 * np.cos(t) * np.sin(2 * th),
        dt_value=lambda th, t: -np.sin(t) * np.cos(2 * th),
        forcing=lambda th, t: (4.0 * np.cos(t) - np.sin(t)) * np.cos(2 * th)),
}
TIMES = np.concatenate([[0.0, 0.3125, 1.7], 0.01 * np.arange(1, BLOCK)])


def _separables(man):
    return dict(value=man.value, dtheta=Separable(man.time, man.dprofile),
                dt_value=man.dt_value, forcing=man.forcing)


def _tabulated(ops, v, t):
    """time * profile through the profile tabulated at the nodes, as the
    Riesz data form it; (k, n_nodes) for times t (k,)."""
    g, a = ops._separate(v, t)
    vals = a[:, None] * ops._profile(g)
    return vals if np.ndim(t) else vals[0]


@pytest.mark.parametrize("data", sorted(MANUFACTURED))
def test_separable_data_equal_closed_forms(setup96, data):
    ops = setup96.ops
    theta = ops.topology.theta
    parts = _separables(MANUFACTURED[data])
    for name, closed in CLOSED[data].items():
        v = parts[name]
        if closed is None:
            assert v is None
            continue
        stacked = closed(theta, TIMES[:, None])
        assert stacked.shape == (len(TIMES), len(theta))
        assert np.array_equal(v(theta, TIMES[:, None]), stacked), name
        assert np.array_equal(_tabulated(ops, v, TIMES), stacked), name
        for t in TIMES:
            assert np.array_equal(v(theta, t), closed(theta, t)), (name, t)
            assert np.array_equal(_tabulated(ops, v, t),
                                  closed(theta, t)), (name, t)


# -- the node-quadrature reference ---------------------------------------------

def _at_nodes(ops, v, t):
    theta = ops.topology.theta
    if t is None:
        return np.asarray(v(theta))
    return np.asarray(v(theta, np.asarray(t, dtype=float)[..., None]))


def node_error_l2_star(ops, v, x, t=None):
    xs = np.atleast_2d(x)
    diff = _at_nodes(ops, v, t) - (ops.trace @ xs.T).T
    return _root(diff ** 2 @ ops.topology.w
                 + _form(ops.system.S[0], xs), x)


def node_error_h1_star(ops, dv, x, t=None):
    xs = np.atleast_2d(x)
    dvds = _at_nodes(ops, dv, t) / ops.topology.surface.radius
    diff = dvds - (ops.dtrace @ xs.T).T
    return _root(diff ** 2 @ ops.topology.w
                 + _form(ops.system.S[1], xs), x)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("scheme, data", [
    ("BDF1", "decaying_mode"), ("BDF1", "forced_mode_2"),
    ("BDF2", "forced_mode_2"), ("CrankNicolson", "forced_mode_2")])
def test_split_matches_node_quadrature(request, trajectory, placement,
                                       scheme, data):
    ops = request.getfixturevalue(placement).ops
    man = MANUFACTURED[data]
    dtheta = Separable(man.time, man.dprofile)
    result, hist = trajectory(ops, _config(scheme, man))
    t = result.times
    assert len(hist) == NSTEPS + 1
    pairs = [
        (lambda b: ops.error_l2_star(man.value, hist[b], t[b]),
         lambda b: node_error_l2_star(ops, man.value, hist[b], t[b])),
        (lambda b: ops.error_h1_star(man.value, man.dprofile, hist[b], t[b]),
         lambda b: node_error_h1_star(ops, dtheta, hist[b], t[b])),
    ]
    for split, node in pairs:
        new, old = blockwise(split, len(hist)), blockwise(node, len(hist))
        assert np.all(np.abs(new - old) <= RTOL * old), \
            np.max(np.abs(new - old) / old)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("data", sorted(MANUFACTURED))
def test_split_exact_at_projection(request, placement, data):
    # converge's proj_l2_star and the project subcommand: x = P_h u(0)
    ops = request.getfixturevalue(placement).ops
    man = MANUFACTURED[data]
    x = ops.project(man.value, 0.0)
    assert np.array_equal(x, ops._table(man.profile)[0])
    assert ops.error_l2_star(man.value, x, 0.0) \
        == node_error_l2_star(ops, man.value, x, 0.0)
    assert ops.error_h1_star(man.value, man.dprofile, x, 0.0) \
        == node_error_h1_star(ops, Separable(man.time, man.dprofile), x, 0.0)
    # a function of theta alone: the time factor is 1
    g, dg = man.profile, man.dprofile
    x = ops.project(g)
    assert ops.error_l2_star(g, x) == node_error_l2_star(ops, g, x)
    assert ops.error_h1_star(g, dg, x) == node_error_h1_star(ops, dg, x)
