"""Oracles: the separable data and the split error functionals.

The shipped manufactured solutions are products time(t) * profile(theta).
Their value, theta- and t-derivatives and forcing, each its time factors
times its profile tabulated at the surface nodes as the Riesz data take
it, must equal the closed forms bit for bit (``test_stacked_oracle``
checks that the Riesz data of 1 are M 1 and that a stack of times gives
each row bit for bit as that time alone).

The functions prefixed ``node_`` are the L2* and H1* error functionals
as node quadratures, || v - trace x ||^2_w + s_j(x, x), that the split at
the projection of the profile replaced.  They live here only as a
reference.  The split must agree with them to 1e-13 relative on every
state of BDF1, BDF2 and Crank-Nicolson runs on the mesh ladder and on an
off-centre circle with R = 0.8, and exactly for the projection of the
data at t = 0, where the time factor is 1 and x is the tabulated
projection itself.  The operators take a profile g and time factors a
(k,); the references take the same pair and form the rows a_i g at the
nodes.
"""

import numpy as np
import pytest

from tracefem.heatsolver import BLOCK, MANUFACTURED
from tracefem.operators import _form

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


def _parts(man):
    """(time factor, profile) of the value, its theta- and t-derivatives
    and the forcing (None when f = 0)."""
    return dict(value=(man.time, man.profile),
                dtheta=(man.time, man.dprofile),
                dt_value=(man.dtime, man.profile),
                forcing=None if man.ftime is None else (man.ftime,
                                                        man.profile))


@pytest.mark.parametrize("data", sorted(MANUFACTURED))
def test_separable_data_equal_closed_forms(setup96, data):
    # the time factors times the tabulated profile, as the Riesz data
    # form them, for all times at once and for a stack of one time
    ops = setup96.ops
    theta = ops.topology.theta
    parts = _parts(MANUFACTURED[data](1.0))
    for name, closed in CLOSED[data].items():
        if closed is None:
            assert parts[name] is None
            continue
        time, g = parts[name]
        a = time(TIMES)
        stacked = closed(theta, TIMES[:, None])
        assert stacked.shape == (len(TIMES), len(theta))
        assert np.array_equal(a[:, None] * ops._profile(g), stacked), name
        for i, t in enumerate(TIMES):
            assert np.array_equal(time(TIMES[i:i + 1])[:, None]
                                  * ops._profile(g),
                                  closed(theta, t)[None]), (name, t)


# -- the node-quadrature reference ---------------------------------------------

def _at_nodes(ops, g, a):
    """The rows a_i g at the surface nodes, (k, n_nodes) for a (k,)."""
    return a[:, None] * g(ops.topology.theta)


def node_error_l2_star(ops, g, x, a):
    diff = _at_nodes(ops, g, a) - (ops.trace @ x.T).T
    return np.sqrt(diff ** 2 @ ops.topology.w + _form(ops.system.S[0], x))


def node_error_h1_star(ops, dg, x, a):
    dvds = _at_nodes(ops, dg, a) / ops.topology.surface.radius
    diff = dvds - (ops.dtrace @ x.T).T
    return np.sqrt(diff ** 2 @ ops.topology.w + _form(ops.system.S[1], x))


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("scheme, data", [
    ("BDF1", "decaying_mode"), ("BDF1", "forced_mode_2"),
    ("BDF2", "forced_mode_2"), ("CrankNicolson", "forced_mode_2")])
def test_split_matches_node_quadrature(request, trajectory, placement,
                                       scheme, data):
    ops = request.getfixturevalue(placement).ops
    man = MANUFACTURED[data](1.0)
    g, dg = man.profile, man.dprofile
    result, hist = trajectory(ops, _config(scheme, man))
    a = man.time(result.times)
    assert len(hist) == NSTEPS + 1
    pairs = [
        (lambda b: ops.error_l2_star(g, hist[b], a[b]),
         lambda b: node_error_l2_star(ops, g, hist[b], a[b])),
        (lambda b: ops.error_h1_star(g, dg, hist[b], a[b]),
         lambda b: node_error_h1_star(ops, dg, hist[b], a[b])),
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
    man = MANUFACTURED[data](1.0)
    g, dg, a = man.profile, man.dprofile, man.time(np.zeros(1))
    assert np.array_equal(a, [1.0])
    x = ops.project(g, a)
    assert np.array_equal(x[0], ops._table(g)[0])
    assert np.array_equal(ops.error_l2_star(g, x, a),
                          node_error_l2_star(ops, g, x, a))
    assert np.array_equal(ops.error_h1_star(g, dg, x, a),
                          node_error_h1_star(ops, dg, x, a))
