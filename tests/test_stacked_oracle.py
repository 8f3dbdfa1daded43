"""Oracles: the stacked time functionals by what they must equal, and the
streamed run against the whole trajectory.

No copy of the per-step code the stacking replaced lives here: a copy
agrees with what it was copied from, defects included.  For P1 data the
answers are closed forms.  With X and Y the vertex coordinates, the
traces of X and Y at the surface nodes are the nodes' coordinates, their
tangential derivatives -sin and cos, and the Riesz data of 1 are M 1.
For g_x = c_x + R cos and g_y = c_y + R sin the node parts of the split
errors vanish and the stabilization is left: E_L2*[g_x, X]^2 +
E_L2*[g_y, Y]^2 = sum h_T |T|, and the same sums of E_H1* (with g'/R)
and E_H^-1* (with the coefficients of g, through G) are sum |T| / h_T
and sum h_T^3 |T|; E_L2*[a cos, 0]^2 = a^2 pi R.  ``check_identities``
asks these, and that each stacked functional returns for a row what it
returns for that row alone, on the ladder, off-centre and tangent to a
grid line.  Fed x_n = e^-t_n X, the error fold of u = e^-t cos on the
centred unit circle returns the trapezoid and midpoint sums of the
closed forms (``test_fold_identity``).

``whole_run`` is the definition of the block-verified run: it keeps the
whole trajectory and solves and checks each step on its own
(``helpers.step_*``).  Its states must equal the run's for block-sized
and odd runs, each handed out once, when a solve in a block comes back
inexact once or always; a solve that stays inexact raises before the
consumer sees any state of its block.  ``replay`` hands its
states to a consumer in the run's split: the error record and the heat
files of a run must be those of its replay bit for bit.
"""

import math

import numpy as np
import pytest

import helpers
from tracefem import cli, heatsolver
from tracefem.cli import Pipeline, cmd_heat
from tracefem.cutquad import arc_cover_defect
from tracefem.errors import SolveFailure
from tracefem.mesh import twice_area
from tracefem.operators import ONE, DiscreteOperators
from tracefem.heatsolver import (BLOCK, MANUFACTURED, ErrorFold, HeatRun,
                                 HeatStepper, accumulate_errors, run,
                                 step_count)

from conftest import CONFIG
from helpers import max_regularity_ratio, step_bdf1, step_bdf2, step_cn

RTOL = 1e-13
TOL = 1e-12                  # the closed forms
# The stack dependence of the split errors, relative per row: x' S_j x
# cancels terms many times its size (see operators._form), so the order
# of its sum shows.  Measured on the runs of check_identities: at most
# 3.6e-13 (error_l2_star, BDF2 decaying_mode, n=192) and 1.2e-13
# (error_h1_star); every other functional moves by at most 1.7e-15.
SPLIT_STACK = 1e-12
NSTEPS = 37                  # not a multiple of the block size
T_FINAL = 0.37
PLACEMENTS = ["setup48", "setup96", "setup192", "off_centre96", "tangent48"]


@pytest.fixture(scope="module")
def tangent48():
    # tangent to the grid lines x = +-1 of the n=48 mesh between vertices
    return Pipeline(dict(CONFIG, center=(0.0, 0.0365)), 48)


def _config(scheme, man, nsteps=NSTEPS):
    t_final = T_FINAL * nsteps / NSTEPS
    return HeatRun(manufactured=man, dt=t_final / nsteps, t_final=t_final,
                   scheme=scheme)


# -- the whole-trajectory reference -------------------------------------------

def run_blocks(nsteps):
    """The slices of the states a run of nsteps hands its consumer: state 0
    alone, then the blocks of heatsolver.BLOCK steps."""
    block = heatsolver.BLOCK
    return [slice(0, 1)] + [slice(a + 1, min(a + block, nsteps) + 1)
                            for a in range(0, nsteps, block)]


def whole_run(ops, cfg):
    """(history, times) of cfg: every state kept in one array.  u(0) is
    projected as the function theta -> a(0) g(theta), so the run's own
    projection of the profile g with the factor a(0) is checked bit for
    bit."""
    block = heatsolver.BLOCK
    dt = cfg.dt
    nsteps = int(np.ceil(cfg.t_final / dt - 1e-12))
    history = np.empty((nsteps + 1, ops.system.n_dofs))
    man = cfg.manufactured
    history[0] = ops.project(lambda th: man.time(0.0) * man.profile(th),
                             ONE)[0]
    stepper = HeatStepper(ops, cfg.scheme, dt, cfg.stabilized_time_derivative)
    bdf1 = HeatStepper(ops, "BDF1", dt, cfg.stabilized_time_derivative)

    def data(t):
        if man.ftime is None:
            return np.zeros((len(t), 1))
        return ops.riesz_data(man.profile, man.ftime(t))

    b = data(np.zeros(1))[0] if cfg.scheme == "CrankNicolson" else 0.0
    for n in range(nsteps):
        if n % block == 0:
            ends = data(dt * np.arange(n + 1, min(n + block, nsteps) + 1))
        b_prev, b = b, ends[n % block]
        if cfg.scheme == "CrankNicolson":
            history[n + 1] = step_cn(stepper, history[n], 0.5 * (b_prev + b))
        elif cfg.scheme == "BDF2" and n > 0:
            history[n + 1] = step_bdf2(stepper, history[n], history[n - 1], b)
        else:               # BDF1, and BDF2's first step
            history[n + 1] = step_bdf1(bdf1, history[n], b)
    return history, dt * np.arange(nsteps + 1)


def replay(ops, cfg, consume):
    """Hand consume whole_run's states in the run's split; returns them."""
    hist, _ = whole_run(ops, cfg)
    for b in run_blocks(len(hist) - 1):
        consume(b.start, hist[b])
    return hist


# -- what the stacked functionals must equal ---------------------------------

def _close(got, want):
    return abs(got - want) <= TOL * abs(want)


def check_identities(ops):
    """The closed forms of the module docstring on one placement, and the
    stack independence of each functional on the first BLOCK + 1 states
    of two runs."""
    topo, mesh, system = ops.topology, ops.mesh, ops.system
    (cx, cy), r = topo.surface.center, topo.surface.radius
    assert np.abs(ops.trace @ mesh.coords - topo.pts).max() <= TOL
    assert np.abs(ops.dtrace @ mesh.coords - np.column_stack(
        [-np.sin(topo.theta), np.cos(topo.theta)])).max() <= TOL
    m_one = system.M @ np.ones(mesh.n_dofs)
    assert np.abs(ops.riesz_data(np.ones_like, ONE)[0] - m_one).max() \
        <= TOL * m_one.max()

    area = 0.5 * np.abs(twice_area(mesh.coords[mesh.elements]))
    # (g, g', its P1 interpolant) of x and of y on Gamma
    xy = [(lambda th: cx + r * np.cos(th), lambda th: -r * np.sin(th),
           mesh.coords[None, :, 0]),
          (lambda th: cy + r * np.sin(th), lambda th: r * np.cos(th),
           mesh.coords[None, :, 1])]
    assert _close(sum(ops.error_l2_star(g, v, ONE)[0] ** 2
                      for g, _, v in xy), np.sum(mesh.h_T * area))
    assert _close(sum(ops.error_h1_star(g, dg, v, ONE)[0] ** 2
                      for g, dg, v in xy), np.sum(area / mesh.h_T))
    assert _close(sum(ops.error_hm1_star(ops.probe.coefficients(g, ONE),
                                         v)[0] ** 2 for g, _, v in xy),
                  np.sum(mesh.h_T ** 3 * area))
    a = np.array([0.5, -1.3, 2.0])
    cos_sq = ops.error_l2_star(np.cos, np.zeros((3, mesh.n_dofs)), a) ** 2
    want = a * a * np.pi * r
    assert np.all(np.abs(cos_sq - want) <= TOL * want)

    for scheme, data in (("BDF2", "decaying_mode"),
                         ("CrankNicolson", "forced_mode_2")):
        man = MANUFACTURED[data](r)
        g, dg = man.profile, man.dprofile
        hist, t = whole_run(ops, _config(scheme, man))
        x, a, da = hist[:BLOCK + 1], man.time(t), man.dtime(t)
        coef = ops.probe.coefficients(g, da)
        for f, bound in [
                (lambda s: ops.riesz_data(g, a[s]), 0.0),
                (lambda s: ops.project(g, a[s]), 0.0),
                (lambda s: ops.probe.coefficients(g, da[s]), 0.0),
                (lambda s: ops.l2_star(x[s]), 1e-14),
                (lambda s: ops.dual_norm(x[s]), 1e-14),
                (lambda s: ops.hm1_star(x[s]), 1e-14),
                (lambda s: ops.error_hm1_star(coef[s], x[s]), 1e-14),
                (lambda s: ops.error_l2_star(g, x[s], a[s]), SPLIT_STACK),
                (lambda s: ops.error_h1_star(g, dg, x[s], a[s]), SPLIT_STACK)]:
            stacked = f(slice(0, len(x)))
            one = np.concatenate([f(slice(i, i + 1)) for i in range(len(x))])
            assert np.all(np.abs(stacked - one) <= bound * np.abs(one))


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_identities(request, placement):
    check_identities(request.getfixturevalue(placement).ops)


@pytest.mark.parametrize("n", [48, 96])
def test_riesz_data_bit_identical(ladder, n):
    # the Riesz data of a stack of forcing times: each row bit for bit
    # the data of its time alone, and those of 1 are M 1
    ops = ladder[n].ops
    force = MANUFACTURED["forced_mode_2"](1.0)
    g, c = force.profile, force.ftime
    m_one = ops.system.M @ np.ones(ops.mesh.n_dofs)
    assert np.abs(ops.riesz_data(np.ones_like, ONE)[0] - m_one).max() \
        <= TOL * m_one.max()
    times = np.concatenate([[0.0, 0.3125, 1.7], 0.01 * np.arange(1, BLOCK)])
    stacked = ops.riesz_data(g, c(times))
    assert stacked.shape == (len(times), ops.mesh.n_dofs)
    for i, row in enumerate(stacked):
        assert np.array_equal(row, ops.riesz_data(g, c(times[i:i + 1]))[0])


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_riesz_workspace_bit_identical(request, placement):
    # fresh operators: the first stack grows the node-major workspace,
    # the later ones reuse it.  Each result is bit for bit trace' as a
    # CSR copy applied to a fresh (n_nodes, k) array, and a result stays
    # as it was after the calls that follow.
    s = request.getfixturevalue(placement)
    ops = DiscreteOperators(s.system, s.ops.k_max)
    force = MANUFACTURED["forced_mode_2"](1.0)
    g, c = force.profile, force.ftime
    trace_t = ops.trace.T.tocsr()
    w, theta = ops.topology.w, ops.topology.theta
    done, start = [], 0
    for k in (16, 1, 5, 16, 3):
        a = c(0.01 * np.arange(start, start + k))
        start += k
        vals = np.asarray(g(theta), dtype=float)[:, None] * a
        vals *= w[:, None]
        out = ops.riesz_data(g, a)
        assert np.array_equal(out, (trace_t @ vals).T)
        done.append((out, out.copy()))
    for out, kept in done:
        assert np.array_equal(out, kept)


def test_trace_operators_match_gathers(setup96):
    # Row n of trace and of dtrace gathers the three vertices of node n's
    # element.  On one triangle a P1 function is fixed by 1, X and Y, so
    # rows that give 1 -> 1, 0 and [X Y] -> the node, the unit tangent
    # are the P1 value and tangential derivative there.
    ops = setup96.ops
    topo, mesh = ops.topology, ops.mesh
    host = np.sort(mesh.elements[topo.elem], axis=1)
    for op in (ops.trace, ops.dtrace):
        op = op.tocsr()
        assert np.array_equal(np.diff(op.indptr), np.full(len(host), 3))
        assert np.array_equal(np.sort(op.indices.reshape(-1, 3), axis=1),
                              host)
    ones = np.ones(mesh.n_dofs)
    assert np.abs(ops.trace @ ones - 1.0).max() <= TOL
    assert np.abs(ops.dtrace @ ones).max() <= TOL
    assert np.abs(ops.trace @ mesh.coords - topo.pts).max() <= TOL
    assert np.abs(ops.dtrace @ mesh.coords - np.column_stack(
        [-topo.normal[:, 1], topo.normal[:, 0]])).max() <= TOL


@pytest.mark.parametrize("split", ["blocks", "whole"])
@pytest.mark.parametrize("n", [48, 96])
def test_fold_identity(ladder, n, split):
    # On the centred unit circle, u = e^-t cos is e^-t X on Gamma: the
    # node parts of E_L2* and E_H1* vanish, and du/dt - d_n X at the step
    # midpoint has the one mode cos of H^-1 norm^2 pi / 2.
    ops = ladder[n].ops
    cfg = _config("BDF1", MANUFACTURED["decaying_mode"](1.0))
    x, dt = ops.mesh.coords[:, 0], cfg.dt
    t = dt * np.arange(NSTEPS + 1)
    fold = ErrorFold(ops, cfg)
    states = np.exp(-t)[:, None] * x
    for b in run_blocks(NSTEPS) if split == "blocks" else [slice(0, None)]:
        fold(b.start, states[b])
    s0, s1, sm1 = (x @ (ops.system.S[j] @ x) for j in (0, 1, -1))
    trap = np.ones(NSTEPS + 1)
    trap[[0, -1]] = 0.5
    d = np.diff(np.exp(-t)) / dt
    mid = (-np.exp(-0.5 * (t[:-1] + t[1:])) - d) ** 2 * np.pi / 2
    want = dict(e_l2_initial=np.sqrt(s0),
                int_l2_sq=dt * trap @ np.exp(-2 * t) * s0,
                int_h1_sq=dt * trap @ np.exp(-2 * t) * s1,
                int_hm1_dt_sq=dt * np.sum(mid + d ** 2 * sm1))
    want["e_total"] = np.sqrt(s0 + want["int_hm1_dt_sq"] + want["int_h1_sq"])
    rec = fold.record()
    for name, value in want.items():
        assert _close(getattr(rec, name), value), name


def test_step_count_is_not_a_block_multiple():
    assert NSTEPS % BLOCK and (NSTEPS + 1) % BLOCK


@pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
def test_blocked_forcing_history_bit_identical(setup48, trajectory,
                                               monkeypatch, scheme):
    # run() takes the forcing's Riesz data BLOCK step ends at a time:
    # taken one step end at a time, they give the same states
    cfg = _config(scheme, MANUFACTURED["forced_mode_2"](1.0))
    blocked = trajectory(setup48.ops, cfg)[1]
    stacked = DiscreteOperators.riesz_data
    monkeypatch.setattr(DiscreteOperators, "riesz_data", lambda ops, g, a: (
        np.concatenate([stacked(ops, g, a[i:i + 1]) for i in range(len(a))])))
    assert np.array_equal(trajectory(setup48.ops, cfg)[1], blocked)


# A trigonometric polynomial of degree K_TRIG in theta, times the factor
# e^-t, with |v| <= V_TRIG (the sum of its coefficients) for t >= 0,
# evaluated in C_TRIG roundings after its angle products.
K_TRIG, V_TRIG, C_TRIG = 5, 2.5, 16


def _trig(theta):
    return (0.5 + np.cos(theta) - 0.7 * np.sin(3.0 * theta)
            + 0.3 * np.cos(5.0 * theta - 1.0))


@pytest.mark.parametrize("placement", ["setup48", "setup96", "setup192",
                                       "off_centre96"])
def test_function_coefficients_within_cut_rule_bound(request, placement):
    """The exact-circle coefficients against the cut-node ones, within a
    bound argued from the two rules, not measured from their difference.

    Let v be the trigonometric polynomial ``_trig`` of degree K, |v| <= V,
    and e_m a basis function of frequency at most k_max, |e_m| <= s with
    s = 1 / sqrt(pi R).  Then g = v e_m has degree at most N = K + k_max
    and |g| <= V s, and Bernstein's inequality gives |g^(r)| <= N^r V s.
    With W = 2 pi R (or the computed arc length, if larger) and u the unit
    roundoff, the difference of (v, e_m)_Gamma between the two routes is
    bounded, for every mode and time, by the sum of:

    * Gauss-Legendre.  The q-point rule on an arc of angular length L has
      error R L^(2q+1) (q!)^4 / ((2q+1) ((2q)!)^3) |g^(2q)(xi)|
      (Abramowitz & Stegun 25.4.30, scaled from [-1, 1]); summed over the
      arcs, R c_q N^(2q) V s sum_a L_a^(2q+1).
    * The cover.  The arcs cover [0, 2 pi) up to ``arc_cover_defect``
      delta, which changes the integral by at most R delta V s.
    * Rounding on the cut nodes (first order; Theta = max |theta|).  The
      computed angles are off by at most 4 u Theta, which moves g by
      N V s 4 u Theta; e_m is evaluated at the rounded k theta, off by
      u k_max Theta, plus 3 roundings; v at the rounded j theta, off by
      u K Theta, plus C roundings of at most u V each; the weights carry
      5 roundings and each product 2; the sum of n_nodes terms adds
      gamma_n = n u / (1 - n u) of the sum of their magnitudes, itself at
      most W V s.  Together W V s (u (5 N Theta + C + 10) + gamma_n),
      using k_max + K = N.
    * Rounding of the exact-circle rule.  The trapezoid rule on
      M = 4 k_max + 4 angles is exact for g, as N < M.  The angles
      2 pi j / M are off by at most 3 u 2 pi, which with the evaluation of
      v costs u V (8 pi K + C).  Each output of a mixed-radix FFT of
      length M = prod p_i sums every input along one path of a p_i-term
      sum and a twiddle product per pass, so it is off by at most
      u sum_i (p_i + 4) <= u (M + 4 log2 M) times sum_j |v_j| <= M V; the
      scale W s / M adds 5 roundings.  Together
      W V s u (8 pi K + C + M + 4 log2 M + 5).
    """
    ops = request.getfixturevalue(placement).ops
    topo, probe = ops.topology, ops.probe
    u = np.finfo(float).eps / 2
    r, k_max, q = probe.radius, probe.k_max, topo.q_surf
    n_top, s = K_TRIG + k_max, 1.0 / np.sqrt(np.pi * r)
    w_total = max(2.0 * np.pi * r, topo.total_length)
    arc = topo.arc_ends[:, 1] - topo.arc_ends[:, 0]
    c_q = math.factorial(q) ** 4 / ((2 * q + 1) * math.factorial(2 * q) ** 3)
    gauss = r * c_q * np.sum(arc * (n_top * arc) ** (2 * q)) * V_TRIG * s
    cover = r * arc_cover_defect(topo) * V_TRIG * s
    n_nodes, theta_max = len(topo.w), np.abs(topo.theta).max()
    m = 4 * k_max + 4
    rounding = w_total * V_TRIG * s * (
        u * (5 * n_top * theta_max + C_TRIG + 10)
        + n_nodes * u / (1 - n_nodes * u)
        + u * (8 * np.pi * K_TRIG + C_TRIG + m + 4 * np.log2(m) + 5))
    a = np.exp(-np.linspace(0.0, 2.0, 9))
    old = (topo.w * a[:, None] * _trig(topo.theta)) @ probe.eval_basis(
        topo.theta)
    new = ops.probe.coefficients(_trig, a)
    assert np.abs(new - old).max() <= gauss + cover + rounding


def _blocked_and_per_step(monkeypatch, ratio):
    """ratio() by blocks of BLOCK and one step at a time agree to RTOL."""
    blocked = ratio()
    with monkeypatch.context() as m:
        m.setattr(helpers, "BLOCK", 1)
        assert abs(ratio() - blocked) <= RTOL * blocked


@pytest.mark.parametrize("n", [48, 96])
def test_max_regularity_ratio_matches(ladder, decay_runs, monkeypatch, n):
    ops = ladder[n].ops
    cfg, states, _ = decay_runs[n]
    for hist in (states, states[:1]):                   # no step at all
        _blocked_and_per_step(monkeypatch, lambda: max_regularity_ratio(
            ops, hist, cfg.dt, u0=np.cos))


def test_max_regularity_ratio_with_forcing_matches(setup48, trajectory,
                                                   monkeypatch):
    ops = setup48.ops
    man = MANUFACTURED["forced_mode_2"](1.0)
    cfg = _config("BDF1", man)
    hist = trajectory(ops, cfg)[1]
    _blocked_and_per_step(monkeypatch, lambda: max_regularity_ratio(
        ops, hist, cfg.dt, u0=lambda th: man.time(0.0) * man.profile(th),
        f=(man.profile, man.ftime)))


# -- the streamed run against the whole trajectory ---------------------------

# The step block as shipped, and small enough that some runs end in a block
# of a single step.
SMALL_BLOCK = 5
BLOCKS = [None, SMALL_BLOCK]
STREAM_STEPS = 301           # not a multiple of BLOCK
STREAM_NSTEPS = [STREAM_STEPS, 264, 288, 256]
STREAM_CASES = [("BDF1", "decaying_mode"), ("BDF1", "forced_mode_2"),
                ("BDF2", "forced_mode_2"), ("CrankNicolson", "forced_mode_2")]


def _block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(heatsolver, "BLOCK", block)


def test_stream_sizes():
    # with the shipped block the streamed runs end in part-full and in
    # full blocks, with the small one in a block of one step
    rests = [n % BLOCK for n in STREAM_NSTEPS]
    assert 0 in rests and any(rests)
    assert 1 in [n % SMALL_BLOCK for n in STREAM_NSTEPS]
    assert STREAM_STEPS % BLOCK and STREAM_STEPS % SMALL_BLOCK == 1


@pytest.mark.parametrize("block", BLOCKS, ids=["shipped", "small"])
@pytest.mark.parametrize("scheme, data", STREAM_CASES)
@pytest.mark.parametrize("nsteps", STREAM_NSTEPS)
def test_streamed_errors_bit_identical(setup48, monkeypatch, block, scheme,
                                       data, nsteps):
    # 264 steps: the last block is half full; 288 and 256 steps: it is
    # full; 301 and 256 steps: the last small block holds one step
    _block(monkeypatch, block)
    ops = setup48.ops
    cfg = _config(scheme, MANUFACTURED[data](1.0), nsteps)
    fold = ErrorFold(ops, cfg)
    assert len(replay(ops, cfg, fold)) == nsteps + 1
    assert accumulate_errors(ops, cfg) == fold.record()


@pytest.mark.parametrize("scheme, data", [
    ("BDF1", "decaying_mode"), ("BDF2", "forced_mode_2"),
    ("CrankNicolson", "forced_mode_2")])
def test_error_fold_any_split(setup48, scheme, data):
    # the whole history in one call, one state a call and the run's
    # blocks fold to the same record
    ops = setup48.ops
    cfg = _config(scheme, MANUFACTURED[data](1.0), STREAM_STEPS)
    hist, _ = whole_run(ops, cfg)
    whole = ErrorFold(ops, cfg)
    whole(0, hist)
    single = ErrorFold(ops, cfg)
    for i in range(len(hist)):
        single(i, hist[i:i + 1])
    blocks = accumulate_errors(ops, cfg)
    for rec in (whole.record(), single.record()):
        for name in ("e_l2_initial", "int_h1_sq", "int_hm1_dt_sq",
                     "int_l2_sq", "e_total"):
            a, b = getattr(rec, name), getattr(blocks, name)
            assert abs(a - b) <= RTOL * abs(b), (name, a, b)


def check_heat_series(tmp_path, monkeypatch, n, scheme, data, nsteps):
    """heat's files of a run and of its replay are the same bytes, and
    each row of the series holds its state's values alone: t = dt n
    exactly, l2_star and mean to RTOL, e_l2_star to SPLIT_STACK."""
    cfg = dict(CONFIG, n_cells=[n], scheme=scheme, data=data,
               t_final=T_FINAL * nsteps / NSTEPS, dt_rule=T_FINAL / NSTEPS)
    streamed, replayed = tmp_path / "streamed", tmp_path / "replayed"
    for out in (streamed, replayed):
        out.mkdir()
    assert cmd_heat(cfg, str(streamed)) == 0
    runs = []
    monkeypatch.setattr(cli, "run", lambda ops, hr, consume: runs.append(
        (ops, hr, replay(ops, hr, consume))))
    assert cmd_heat(cfg, str(replayed)) == 0
    for name in ("heat.csv", "heat.dat"):
        assert (streamed / name).read_bytes() == (replayed / name).read_bytes()

    [(ops, hr, hist)] = runs
    assert len(hist) == nsteps + 1
    new = np.loadtxt(streamed / "heat.csv", delimiter=",", skiprows=1)
    t = hr.dt * np.arange(nsteps + 1)
    assert np.array_equal(new[:, 0], t)
    l2 = np.array([np.sqrt(max(x @ (ops.system.M_star @ x), 0.0))
                   for x in hist])
    assert np.abs(new[:, 1] - l2).max() <= RTOL * l2.max()
    m_one = ops.system.M @ np.ones(ops.system.n_dofs)
    mean = np.array([float(m_one @ x) for x in hist])
    assert np.abs(new[:, 2] - mean).max() <= RTOL * 2 * np.pi
    man = hr.manufactured
    err = np.concatenate([ops.error_l2_star(man.profile, hist[i:i + 1],
                                            man.time(t[i:i + 1]))
                          for i in range(len(hist))])
    assert np.all(np.abs(new[:, 3] - err) <= SPLIT_STACK * err)


@pytest.mark.parametrize("block", BLOCKS, ids=["shipped", "small"])
@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("scheme, data", STREAM_CASES)
def test_streamed_heat_series_bit_identical(tmp_path, monkeypatch, block, n,
                                            scheme, data):
    _block(monkeypatch, block)
    check_heat_series(tmp_path, monkeypatch, n, scheme, data, STREAM_STEPS)


@pytest.mark.parametrize("scheme, data", STREAM_CASES)
def test_streamed_heat_series_block_multiple(tmp_path, monkeypatch, scheme,
                                             data):
    # 256 steps, a multiple of BLOCK as in every shipped config: the last
    # block is full
    check_heat_series(tmp_path, monkeypatch, 48, scheme, data, 256)


# -- the block-verified run against the per-step checked one -----------------

SCHEME_DATA = [(scheme, data) for scheme in ("BDF1", "BDF2", "CrankNicolson")
               for data in ("decaying_mode", "forced_mode_2")]


class _InexactLU:
    """An LU whose solves of the right-hand sides that ``pick`` selects
    come back 1e-6 off in every entry, far outside the residual rule."""

    def __init__(self, lu, pick):
        self.lu, self.pick, self.picked = lu, pick, 0

    def solve(self, b):
        x = self.lu.solve(b)
        if self.pick(b):
            self.picked += 1
            return x + 1e-6
        return x


def _inexact_steps(monkeypatch, pick):
    """Every HeatStepper made from now on solves through an _InexactLU
    with ``pick``; returns the list they are appended to."""
    lus = []
    init = heatsolver.HeatStepper.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.factor.lu = _InexactLU(self.factor.lu, pick)
        lus.append(self.factor.lu)

    monkeypatch.setattr(heatsolver.HeatStepper, "__init__", patched)
    return lus


def _rhs_of_step(monkeypatch, ops, cfg, step):
    """The right-hand side the run solves at ``step`` (0-based)."""
    seen = []
    lus = _inexact_steps(monkeypatch, lambda b: seen.append(b.copy()))
    run(ops, cfg, lambda first, states: None)
    monkeypatch.undo()
    assert len(seen) == step_count(cfg) and len(lus) >= 1
    return seen[step]


def _same(target):
    return lambda b: b.shape == target.shape and np.array_equal(b, target)


@pytest.mark.parametrize("scheme, data", SCHEME_DATA)
@pytest.mark.parametrize("nsteps", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_block_run_equals_checked_steps(setup48, trajectory, scheme, data,
                                        nsteps):
    cfg = _config(scheme, MANUFACTURED[data](1.0), nsteps)
    hist, _ = whole_run(setup48.ops, cfg)
    assert len(hist) == nsteps + 1
    assert np.array_equal(trajectory(setup48.ops, cfg)[1], hist)


@pytest.mark.parametrize("scheme, data", SCHEME_DATA)
def test_block_run_across_chunks(setup48, scheme, data):
    # the consumer gets state 0 alone, then the states of each block of
    # 16 steps, the last one part-full: every state once, in order
    cfg = _config(scheme, MANUFACTURED[data](1.0), 150)
    hist, _ = whole_run(setup48.ops, cfg)
    got = []
    run(setup48.ops, cfg, lambda first, states: got.append((first,
                                                             states.copy())))
    assert [first for first, _ in got] == [0] + list(range(1, 151, BLOCK))
    assert [len(s) for _, s in got] == [1] + [BLOCK] * 9 + [6]
    assert np.array_equal(np.concatenate([s for _, s in got]), hist)


@pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
@pytest.mark.parametrize("refined", [False, True],
                         ids=["re-stepped", "refined"])
@pytest.mark.parametrize("step", [1, BLOCK, BLOCK + 5, 2 * BLOCK - 1])
def test_inexact_solve_in_block(setup48, monkeypatch, trajectory, scheme,
                                refined, step):
    # The bare solve of one step comes back inexact: the second step of
    # the run (BDF2's first unchecked one), or the first, a middle or the
    # last step of block 1.  Once only: the checked re-step solves it
    # exactly, as the per-step run does.  Always: the checked solve
    # refines it, in both runs alike.
    ops = setup48.ops
    cfg = _config(scheme, MANUFACTURED["forced_mode_2"](1.0), 2 * BLOCK + 3)
    target = _rhs_of_step(monkeypatch, ops, cfg, step)
    if refined:
        pick = _same(target)
    else:
        once = iter([True])
        pick = lambda b: _same(target)(b) and next(once, False)
    lus = _inexact_steps(monkeypatch, pick)
    _, hist = trajectory(ops, cfg)
    assert sum(lu.picked for lu in lus) == (2 if refined else 1)
    monkeypatch.undo()
    if refined:
        lus = _inexact_steps(monkeypatch, _same(target))
    ref, _ = whole_run(ops, cfg)
    assert not refined or sum(lu.picked for lu in lus) == 1
    assert np.array_equal(hist, ref)


@pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
def test_persistent_failure_hides_its_block(setup48, monkeypatch, scheme):
    # step 24 of block 1 (states 17-32) fails however often it is
    # solved: the consumer gets state 0 and block 0 and nothing of block 1
    ops = setup48.ops
    cfg = _config(scheme, MANUFACTURED["forced_mode_2"](1.0), 3 * BLOCK)
    ref, _ = whole_run(ops, cfg)
    target = _rhs_of_step(monkeypatch, ops, cfg, BLOCK + 8)
    _inexact_steps(monkeypatch, lambda b: b.ndim == 2 or _same(target)(b))
    got = []
    with pytest.raises(SolveFailure, match="heat step matrix"):
        run(ops, cfg, lambda first, states: got.append((first,
                                                         states.copy())))
    assert [first for first, _ in got] == [0, 1]
    assert np.array_equal(np.concatenate([s for _, s in got]),
                          ref[:BLOCK + 1])
