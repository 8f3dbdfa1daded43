"""Oracles: the stacked time functionals against the per-step path, and
the streamed run against the whole-trajectory one.

The functions prefixed ``old_`` are the per-step error functionals, the
``bincount`` Riesz data taken one step end at a time, the einsum
gathers of P1 values and tangential gradients at the surface nodes, the
Fourier coefficients summed over the cut nodes against a whole
(n_nodes, n_modes) basis table and the per-step maximal-regularity ratio
that the sparse trace operators, the exact-circle rfft and the block
loop replaced.  They live here only as a reference.  Error records, time
series, node values and the ratio must agree to 1e-13 relative; the
per-step error record forms each step's Fourier coefficients by the
exact-circle rule one step at a time, so it checks the stacking.  The
cut-node coefficients must agree with the exact-circle ones within the
bound argued in ``test_function_coefficients_within_cut_rule_bound``,
and to 1e-13 relative on the ladder.  The Riesz data (of one time or of
stacked times), the forced trajectories and the Fourier basis must agree
bit for bit.  The references take one state x (n_dofs,) and one time
factor a at a time; the operators take stacks, so a reference step calls
them with a stack of one.

The functions prefixed ``whole_`` are the run that kept the whole
(nsteps + 1, n_dofs) trajectory, the error pass over it and the heat
series taken from it, stacked as the run hands its states out (state 0
alone, then the step blocks), which the streamed run, the error fold and
the heat consumer replaced: every error record field and every heat
column must be equal to them, with the step block as shipped and small.
The error fold must give the same record, to 1e-13 relative, whatever
split of the states it is fed.  ``whole_run`` also checks each step's
solve on its own (``helpers.step_*``), so it is the oracle of the
block-verified run as well: its states must be equal to the run's for
block-sized and odd runs, each state handed out once, when one solve in a
block comes back inexact and when a step's solve only passes after
refinement.  A solve that stays inexact must raise before the consumer
sees any state of its block.
"""

import math

import numpy as np
import pytest

from tracefem import heatsolver
from tracefem.cli import _heat_run, cmd_heat
from tracefem.cutquad import arc_cover_defect
from tracefem.errors import SolveFailure
from tracefem.operators import ONE
from tracefem.heatsolver import (BLOCK, MANUFACTURED, ErrorFold, ErrorRecord,
                                 HeatRun, HeatStepper, accumulate_errors, run,
                                 step_count)

from conftest import CONFIG
from helpers import (blockwise, l2_gamma_of_function, laplacian,
                     max_regularity_ratio, step_bdf1, step_bdf2, step_cn)

RTOL = 1e-13
NSTEPS = 37                  # not a multiple of the block size
T_FINAL = 0.37


# -- the per-step reference implementation -----------------------------------

def _node_dofs(ops):
    return ops.mesh.elements[ops.topology.elem]


def _at_nodes(ops, g, a):
    """a g at the surface nodes for one factor a; (k, n_nodes) for
    factors a (k,)."""
    return np.asarray(a, dtype=float)[..., None] * g(ops.topology.theta)


def old_riesz_data(ops, g, a):
    topo = ops.topology
    contrib = topo.bary * (topo.w * _at_nodes(ops, g, a))[:, None]
    return np.bincount(_node_dofs(ops).ravel(), weights=contrib.ravel(),
                       minlength=ops.mesh.n_dofs)


def old_trace_values(ops, x):
    return np.einsum("ni,ni->n", ops.topology.bary, x[_node_dofs(ops)])


def old_trace_tangential_gradient(ops, x):
    nrm = ops.topology.normal
    gh = np.einsum("ei,eid->ed", x[ops.mesh.elements],
                   ops.mesh.grad)[ops.topology.elem]
    gn = np.einsum("nd,nd->n", gh, nrm)
    return gh - gn[:, None] * nrm


def old_eval_basis(probe, theta):
    out = np.empty((len(theta), probe.n_modes))
    out[:, 0] = 1.0 / np.sqrt(2.0 * np.pi * probe.radius)
    scale = 1.0 / np.sqrt(np.pi * probe.radius)
    for k in range(1, probe.k_max + 1):
        out[:, 2 * k - 1] = scale * np.cos(k * theta)
        out[:, 2 * k] = scale * np.sin(k * theta)
    return out


def old_function_coefficients(ops, g, a):
    return (ops.topology.w * _at_nodes(ops, g, a)) @ old_eval_basis(
        ops.probe, ops.topology.theta)


def old_max_regularity_ratio(ops, history, dt, u0=None, f=None):
    nsteps = len(history) - 1
    lap_sq = np.array([ops.hm1_star(laplacian(ops, history[n:n + 1]))[0] ** 2
                       for n in range(len(history))])
    trap = np.ones(len(history))
    trap[0] = trap[-1] = 0.5
    lap_int = float(np.sqrt(dt * trap @ lap_sq))
    dtu_sq = [ops.hm1_star((history[n + 1:n + 2] - history[n:n + 1])
                           / dt)[0] ** 2
              for n in range(nsteps)]
    dtu_int = float(np.sqrt(dt * np.sum(dtu_sq)))
    den = 0.0
    if u0 is not None:
        den += l2_gamma_of_function(ops, u0)
    if f is not None:
        g, c = f
        f_sq = np.array([np.sum(old_function_coefficients(ops, g, c(n * dt))
                                ** 2
                                * ops.probe.Hm1_gram)
                         for n in range(len(history))])
        den += float(np.sqrt(dt * trap @ f_sq))
    return (lap_int + dtu_int) / den


def old_run_history(ops, cfg):
    dt = cfg.dt
    stepper = HeatStepper(ops, cfg.scheme, dt)
    bdf1 = HeatStepper(ops, "BDF1", dt)
    man = cfg.manufactured
    g, c = man.profile, man.ftime
    hist = [ops.project(lambda th: man.time(0.0) * g(th), ONE)[0]]
    b = old_riesz_data(ops, g, c(0.0))
    for n in range(int(np.ceil(cfg.t_final / dt - 1e-12))):
        b_prev, b = b, old_riesz_data(ops, g, c((n + 1) * dt))
        if cfg.scheme == "CrankNicolson":
            u = step_cn(stepper, hist[n], 0.5 * (b_prev + b))
        elif cfg.scheme == "BDF2" and n > 0:
            u = step_bdf2(stepper, hist[n], hist[n - 1], b)
        else:
            u = step_bdf1(bdf1, hist[n], b)
        hist.append(u)
    return np.array(hist)


def old_error_l2_star(ops, g, x, a):
    vals = _at_nodes(ops, g, a)
    err2 = float(ops.topology.w @ (vals - old_trace_values(ops, x)) ** 2)
    return float(np.sqrt(err2 + max(x @ (ops.system.S[0] @ x), 0.0)))


def old_error_h1_star(ops, dg, x, a):
    topo = ops.topology
    tangent = np.column_stack([-topo.normal[:, 1], topo.normal[:, 0]])
    dvds = _at_nodes(ops, dg, a) / topo.surface.radius
    diff = dvds[:, None] * tangent - old_trace_tangential_gradient(ops, x)
    acc = float(topo.w @ (diff ** 2).sum(axis=1))
    return float(np.sqrt(acc + max(x @ (ops.system.S[1] @ x), 0.0)))


def old_error_hm1_star(ops, g, x, a):
    c = ops.function_coefficients(g, np.array([a]))[0] - ops.probe.G.T @ x
    hm1 = np.sum(c ** 2 * ops.probe.Hm1_gram)
    return float(np.sqrt(hm1 + max(x @ (ops.system.S[-1] @ x), 0.0)))


def old_accumulate_errors(ops, cfg, history, man):
    dt = cfg.dt
    hist = list(history)
    times = dt * np.arange(len(hist))
    trap = np.ones(len(hist))
    trap[0] = trap[-1] = 0.5
    g = man.profile
    e0 = old_error_l2_star(ops, g, hist[0], man.time(times[0]))
    h1_sq = np.array([old_error_h1_star(ops, man.dprofile, x, man.time(t)) ** 2
                      for x, t in zip(hist, times)])
    l2_sq = np.array([old_error_l2_star(ops, g, x, man.time(t)) ** 2
                      for x, t in zip(hist, times)])
    hm1_sq = np.empty(len(hist) - 1)
    for n in range(len(hist) - 1):
        dudt = (hist[n + 1] - hist[n]) / dt
        t_mid = 0.5 * (times[n] + times[n + 1])
        hm1_sq[n] = old_error_hm1_star(ops, g, dudt, man.dtime(t_mid)) ** 2
    int_h1 = float(dt * trap @ h1_sq)
    int_l2 = float(dt * trap @ l2_sq)
    int_hm1 = float(dt * np.sum(hm1_sq))
    return ErrorRecord(
        e_l2_initial=e0, int_h1_sq=int_h1,
        int_hm1_dt_sq=int_hm1, int_l2_sq=int_l2,
        e_total=float(np.sqrt(e0 ** 2 + int_hm1 + int_h1)))


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
            u = step_cn(stepper, history[n], 0.5 * (b_prev + b))
        elif cfg.scheme == "BDF2":
            if n == 0:
                u = step_bdf1(bdf1, history[n], b)
            else:
                u = step_bdf2(stepper, history[n], history[n - 1], b)
        else:
            u = step_bdf1(stepper, history[n], b)
        history[n + 1] = u
    return history, dt * np.arange(nsteps + 1)


def whole_accumulate_errors(ops, cfg, hist, times, man):
    """The record of the run's blocks, each adding its partial sums of the
    squared errors in run order."""
    dt = cfg.dt
    t_mid = 0.5 * (times[:-1] + times[1:])
    trap = np.ones(len(hist))
    trap[0] = trap[-1] = 0.5
    g, a = man.profile, man.time(times)
    e0 = ops.error_l2_star(g, hist[:1], a[:1])[0]
    coef = ops.function_coefficients(g, man.dtime(t_mid))
    h1_sum = l2_sum = hm1_sum = 0.0
    for b in run_blocks(len(hist) - 1):
        h1_sum += float(trap[b] @ ops.error_h1_star(
            g, man.dprofile, hist[b], a[b]) ** 2)
        l2_sum += float(trap[b] @ ops.error_l2_star(g, hist[b], a[b]) ** 2)
        if b.start:
            # a block's steps end in its states and start one state earlier
            s = slice(b.start - 1, b.stop - 1)
            hm1_sum += float(np.sum(ops.error_hm1_star(
                coef[s], np.diff(hist[s.start:s.stop + 1], axis=0) / dt) ** 2))
    int_h1, int_l2, int_hm1 = dt * h1_sum, dt * l2_sum, dt * hm1_sum
    return ErrorRecord(
        e_l2_initial=e0, int_h1_sq=int_h1,
        int_hm1_dt_sq=int_hm1, int_l2_sq=int_l2,
        e_total=float(np.sqrt(e0 ** 2 + int_hm1 + int_h1)))


def whole_heat_rows(ops, hist, times, man):
    """t, l2_star, mean, e_l2_star of every state."""
    m_one = ops.system.M @ np.ones(ops.system.n_dofs)
    blocks = run_blocks(len(hist) - 1)
    l2 = np.concatenate([ops.l2_star(hist[b]) for b in blocks])
    mean = np.concatenate([hist[b] @ m_one for b in blocks])
    err = np.concatenate([ops.error_l2_star(man.profile, hist[b],
                                            man.time(times[b]))
                          for b in blocks])
    return np.column_stack([times, l2, mean, err])


# -- tests -------------------------------------------------------------------

def _config(scheme, man, nsteps=NSTEPS):
    t_final = T_FINAL * nsteps / NSTEPS
    return HeatRun(manufactured=man, dt=t_final / nsteps, t_final=t_final,
                   scheme=scheme)


def test_step_count_is_not_a_block_multiple():
    assert NSTEPS % BLOCK and (NSTEPS + 1) % BLOCK


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("scheme, data", [
    ("BDF1", "decaying_mode"), ("BDF1", "forced_mode_2"),
    ("BDF2", "forced_mode_2"), ("CrankNicolson", "forced_mode_2")])
def test_error_records_match(ladder, trajectory, n, scheme, data):
    ops = ladder[n].ops
    man = MANUFACTURED[data](1.0)
    cfg = _config(scheme, man)
    _, hist = trajectory(ops, cfg)
    assert hist.shape == (NSTEPS + 1, ops.system.n_dofs)
    new = accumulate_errors(ops, cfg)
    old = old_accumulate_errors(ops, cfg, hist, man)
    for name in ("e_l2_initial", "int_h1_sq", "int_hm1_dt_sq", "int_l2_sq",
                 "e_total"):
        a, b = getattr(new, name), getattr(old, name)
        assert abs(a - b) <= RTOL * abs(b), (name, a, b)


@pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
def test_blocked_forcing_history_bit_identical(setup48, trajectory, scheme):
    # run() takes the forcing's Riesz data BLOCK step ends at a time
    man = MANUFACTURED["forced_mode_2"](1.0)
    cfg = _config(scheme, man)
    assert np.array_equal(trajectory(setup48.ops, cfg)[1],
                          old_run_history(setup48.ops, cfg))


@pytest.mark.parametrize("n", [48, 96])
def test_riesz_data_bit_identical(ladder, n):
    ops = ladder[n].ops
    force = MANUFACTURED["forced_mode_2"](1.0)
    g, c = force.profile, force.ftime
    assert np.array_equal(ops.riesz_data(np.sin, ONE)[0],
                          old_riesz_data(ops, np.sin, 1.0))
    times = np.concatenate([[0.0, 0.3125, 1.7], 0.01 * np.arange(1, BLOCK)])
    stacked = ops.riesz_data(g, c(times))
    assert stacked.shape == (len(times), ops.mesh.n_dofs)
    for i, (t, row) in enumerate(zip(times, stacked)):
        single = ops.riesz_data(g, c(times[i:i + 1]))[0]
        assert np.array_equal(single, old_riesz_data(ops, g, c(t)))
        assert np.array_equal(row, single)


def _bump(theta):
    return np.exp(np.cos(theta - 0.3))


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("g, a", [
    (lambda th: np.exp(np.sin(th)), ONE),
    (_bump, np.array([1.3])),
    (_bump, 1.0 + np.linspace(0.0, 2.0, 37)),
    (_bump, 1.0 + np.linspace(0.0, 2.0, 300)),     # many blocks of times
], ids=["no-t", "scalar-t", "37-times", "300-times"])
def test_function_coefficients_match_table(ladder, n, g, a):
    ops = ladder[n].ops
    new = ops.function_coefficients(g, a)
    old = old_function_coefficients(ops, g, a)
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= RTOL * np.abs(old).max()


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
    new = ops.function_coefficients(_trig, a)
    old = old_function_coefficients(ops, _trig, a)
    assert np.abs(new - old).max() <= gauss + cover + rounding


@pytest.mark.parametrize("n", [48, 96])
def test_max_regularity_ratio_matches(ladder, decay_runs, n):
    ops = ladder[n].ops
    cfg, states, _ = decay_runs[n]
    u0 = np.cos
    for hist in (states, states[:1]):                   # no step at all
        new = max_regularity_ratio(ops, hist, cfg.dt, u0=u0)
        old = old_max_regularity_ratio(ops, hist, cfg.dt, u0=u0)
        assert abs(new - old) <= RTOL * old


def test_max_regularity_ratio_with_forcing_matches(setup48, trajectory):
    ops = setup48.ops
    man = MANUFACTURED["forced_mode_2"](1.0)
    cfg = _config("BDF1", man)
    u0 = lambda th: man.time(0.0) * man.profile(th)
    f = (man.profile, man.ftime)
    args = (ops, trajectory(ops, cfg)[1], cfg.dt)
    new = max_regularity_ratio(*args, u0=u0, f=f)
    old = old_max_regularity_ratio(*args, u0=u0, f=f)
    assert abs(new - old) <= RTOL * old


def test_trace_operators_match_gathers(setup96):
    ops = setup96.ops
    x = np.random.default_rng(3).standard_normal(ops.system.n_dofs)
    assert np.abs(ops.trace @ x - old_trace_values(ops, x)).max() \
        <= RTOL * np.abs(x).max()
    topo = ops.topology
    tangent = np.column_stack([-topo.normal[:, 1], topo.normal[:, 0]])
    grad = old_trace_tangential_gradient(ops, x)
    dvds = np.einsum("nd,nd->n", grad, tangent)
    assert np.abs(ops.dtrace @ x - dvds).max() <= RTOL * np.abs(grad).max()
    assert np.array_equal(ops.probe.eval_basis(topo.theta),
                          old_eval_basis(ops.probe, topo.theta))


# -- the streamed run against the whole trajectory -----------------------------

# The step block as shipped, and small enough that some runs end in a block
# of a single step.
SMALL_BLOCK = 5
BLOCKS = [None, SMALL_BLOCK]
STREAM_STEPS = 301           # not a multiple of BLOCK
STREAM_NSTEPS = [STREAM_STEPS, 264, 288, 256]


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
@pytest.mark.parametrize("scheme, data", [
    ("BDF1", "decaying_mode"), ("BDF1", "forced_mode_2"),
    ("BDF2", "forced_mode_2"), ("CrankNicolson", "forced_mode_2")])
@pytest.mark.parametrize("nsteps", STREAM_NSTEPS)
def test_streamed_errors_bit_identical(setup48, monkeypatch, block, scheme,
                                       data, nsteps):
    # 264 steps: the last block is half full; 288 and 256 steps: it is
    # full; 301 and 256 steps: the last small block holds one step
    _block(monkeypatch, block)
    ops = setup48.ops
    man = MANUFACTURED[data](1.0)
    cfg = _config(scheme, man, nsteps)
    hist, times = whole_run(ops, cfg)
    assert len(hist) == nsteps + 1
    new = accumulate_errors(ops, cfg)
    old = whole_accumulate_errors(ops, cfg, hist, times, man)
    assert new == old


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


def _heat_cfg(n, scheme, data, nsteps):
    return dict(CONFIG, n_cells=[n], scheme=scheme, data=data,
                t_final=T_FINAL * nsteps / NSTEPS, dt_rule=T_FINAL / NSTEPS)


@pytest.mark.parametrize("block", BLOCKS, ids=["shipped", "small"])
@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("scheme, data", [
    ("BDF1", "decaying_mode"), ("BDF1", "forced_mode_2"),
    ("BDF2", "forced_mode_2"), ("CrankNicolson", "forced_mode_2")])
def test_streamed_heat_series_bit_identical(ladder, tmp_path, monkeypatch,
                                            block, n, scheme, data):
    _block(monkeypatch, block)
    man = MANUFACTURED[data](1.0)
    cfg = _heat_cfg(n, scheme, data, STREAM_STEPS)
    assert cmd_heat(cfg, str(tmp_path)) == 0
    new = np.loadtxt(tmp_path / "heat.csv", delimiter=",", skiprows=1)
    ops = ladder[n].ops
    hist, times = whole_run(ops, _heat_run(cfg, ladder[n], man))
    assert len(hist) == STREAM_STEPS + 1
    old = whole_heat_rows(ops, hist, times, man)
    assert np.array_equal(new, old)
    # and the per-step series within the stacked-functional tolerance
    m_star = ops.system.M_star
    l2 = np.array([np.sqrt(max(x @ (m_star @ x), 0.0)) for x in hist])
    assert np.abs(new[:, 1] - l2).max() <= RTOL * l2.max()
    m_one = ops.system.M @ np.ones(ops.system.n_dofs)
    mean = np.array([float(m_one @ x) for x in hist])
    assert np.abs(new[:, 2] - mean).max() <= RTOL * 2 * np.pi


@pytest.mark.parametrize("scheme, data", [
    ("BDF1", "decaying_mode"), ("BDF1", "forced_mode_2"),
    ("BDF2", "forced_mode_2"), ("CrankNicolson", "forced_mode_2")])
def test_streamed_heat_series_block_multiple(setup48, tmp_path, scheme, data):
    # 256 steps, a multiple of BLOCK as in every shipped config.  Against
    # the series stacked in blocks of BLOCK from state 0, as the states
    # were handed out before state 0 came alone, only rows 0 and N, whose
    # stacks differ, move: within 1e-14 relative (l2_star, e_l2_star) and
    # 1e-15 absolute (mean), and so both stay of the series taken one
    # state at a time.
    nsteps = 256
    man = MANUFACTURED[data](1.0)
    cfg = _heat_cfg(48, scheme, data, nsteps)
    assert cmd_heat(cfg, str(tmp_path)) == 0
    new = np.loadtxt(tmp_path / "heat.csv", delimiter=",", skiprows=1)
    ops = setup48.ops
    hist, times = whole_run(ops, _heat_run(cfg, setup48, man))
    assert len(hist) == nsteps + 1 and nsteps % BLOCK == 0
    assert np.array_equal(new, whole_heat_rows(ops, hist, times, man))
    m_one = ops.system.M @ np.ones(ops.system.n_dofs)
    old = np.column_stack([
        times, blockwise(lambda b: ops.l2_star(hist[b]), len(hist)),
        hist @ m_one, blockwise(lambda b: ops.error_l2_star(
            man.profile, hist[b], man.time(times[b])), len(hist))])
    assert np.array_equal(new[1:-1], old[1:-1])
    moved = [0, nsteps]
    one = np.array([[times[i], ops.l2_star(hist[i:i + 1])[0],
                     float(hist[i] @ m_one),
                     ops.error_l2_star(man.profile, hist[i:i + 1],
                                       man.time(times[i:i + 1]))[0]]
                    for i in moved])
    for a, b in ((new[moved], old[moved]), (new[moved], one),
                 (old[moved], one)):
        assert np.array_equal(a[:, 0], b[:, 0])
        assert np.all(np.abs(a[:, [1, 3]] - b[:, [1, 3]])
                      <= 1e-14 * np.abs(b[:, [1, 3]])), (a, b)
        assert np.abs(a[:, 2] - b[:, 2]).max() <= 1e-15, (a, b)


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
