"""Time stepping for the stabilized surface heat equation.

One implicit step solves [(c0/dt) Mt + A + S1] u_new = rhs where Mt is
the stabilized mass M + S0 (default) or the plain surface mass M, with
BDF1/BDF2/Crank-Nicolson coefficient choices; ``step_matrix`` builds it
for the stepper and for ``diagnostics``.  A run is the scheme on a
manufactured solution u: it starts from the stabilized projection
P_h u(0), is forced by the f that u induces, and keeps no trajectory.  The
steps go in blocks of BLOCK: a block is stepped with bare LU solves, then
all its solves are verified by one multi-vector residual product, and
from its first failing step it is stepped again with checked solves, so
a step costs one right-hand side product and one LU solve.  A consumer
(the error fold, the heat series, the VTK writer) gets the initial state
alone and then the states of each verified block, read in place from the
step array before it is reused.  Each block forms its own times, so
memory does not grow with the number of steps.  A manufactured solution
is separable, u = a(t) g(theta), and so are its data: the run and the
error fold evaluate the time factors a block of steps at a time and pass
them with the profile g, which the operators tabulate once per mesh.
Each step block of the error fold forms the Fourier coefficients of
du/dt at its own step midpoints and adds its squared errors to three
running sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .operators import _Factor

# Steps per verified block and per stacked data/functional evaluation.
BLOCK = 16

# scheme -> c0, the coefficient of Mt/dt in the one-step matrix
SCHEMES = {"BDF1": 1.0, "BDF2": 1.5, "CrankNicolson": 1.0}


@dataclass
class Manufactured:
    """Exact solution u = a(t) g(theta) on a circle of radius R with the
    data it induces: du/dt = a' g, du/dtheta = a g' and, g being an
    eigenmode of the circle Laplacian, the forcing f = c(t) g.  Each is a
    profile with a time factor, passed apart to the operators; the H1
    error takes g'."""

    time: object                  # a(t)
    dtime: object                 # a'(t)
    profile: object               # g(theta)
    dprofile: object              # g'(theta)
    ftime: object = None          # c(t), None when f = 0


# The profiles are module functions, so the Manufactured of every radius
# share them and the operators tabulate each once per mesh.
def _minus_sin(theta):
    return -np.sin(theta)


def _cos_2(theta):
    return np.cos(2 * theta)


def _minus_2_sin_2(theta):
    return -2.0 * np.sin(2 * theta)


# data -> the Manufactured on a circle of radius R, where cos(k theta) is
# an eigenmode of -Laplace with eigenvalue k^2 / R^2.  The factors divide
# by R^2, which is exact for R = 1.
MANUFACTURED = {
    # u = e^(-t/R^2) cos(theta), f = 0.
    "decaying_mode": lambda radius: Manufactured(
        time=lambda t: np.exp(-t / radius ** 2),
        dtime=lambda t: -np.exp(-t / radius ** 2) / radius ** 2,
        profile=np.cos,
        dprofile=_minus_sin,
    ),
    # u = cos(t) cos(2 theta): f = (4 cos(t) / R^2 - sin t) cos(2 theta).
    "forced_mode_2": lambda radius: Manufactured(
        time=np.cos,
        dtime=lambda t: -np.sin(t),
        profile=_cos_2,
        dprofile=_minus_2_sin_2,
        ftime=lambda t: 4.0 / radius ** 2 * np.cos(t) - np.sin(t),
    ),
}


@dataclass
class HeatRun:
    """The scheme on the manufactured solution u: initial state
    P_h u(0), forcing f, errors against u."""

    manufactured: Manufactured
    dt: float
    t_final: float
    scheme: str = "BDF1"
    stabilized_time_derivative: bool = True


@dataclass
class RunResult:
    dt: float
    nsteps: int

    @property
    def times(self):
        """The times 0, dt, ..., nsteps dt of the run, formed on read."""
        return self.dt * np.arange(self.nsteps + 1)


def step_matrix(system, scheme, dt, stabilized_time_derivative):
    """The one-step matrix (c0/dt) Mt + A_*, Mt/dt + A_*/2 for CN."""
    if scheme not in SCHEMES:
        raise InvalidConfig("unknown scheme %r" % scheme)
    mt = system.M_star if stabilized_time_derivative else system.M
    if scheme == "CrankNicolson":
        return mt / dt + 0.5 * system.A_star
    return SCHEMES[scheme] * mt / dt + system.A_star


class HeatStepper:
    """Factorized one-step solver for a fixed scheme and dt."""

    def __init__(self, operators, scheme, dt, stabilized_time_derivative=True):
        system = operators.system
        mat = step_matrix(system, scheme, dt, stabilized_time_derivative)
        self.factor = _Factor(mat, "heat step matrix")
        self.scheme = scheme
        self.dt = float(dt)
        self.mt = system.M_star if stabilized_time_derivative else system.M
        if scheme == "CrankNicolson":
            self.cn_rhs = self.mt / dt - 0.5 * system.A_star

    def rhs(self, u, u_prev, b_prev, b):
        """Right-hand side of the step from u (u_prev the state before it)
        with data b_prev and b at the start and the end of the step."""
        if self.scheme == "CrankNicolson":
            return self.cn_rhs @ u + 0.5 * (b_prev + b)
        if self.scheme == "BDF2":
            return self.mt @ (2.0 * u - 0.5 * u_prev) / self.dt + b
        return self.mt @ u / self.dt + b


def step_count(config):
    """The number of steps of a run, ceil(t_final / dt); a count below 1
    (t_final within 1e-12 dt of 0), not finite or beyond np.intp is an
    InvalidConfig.  Step n ends at time dt * n."""
    dt = config.dt
    if dt <= 0 or config.t_final <= 0:
        raise InvalidConfig("dt and t_final must be positive")
    nsteps = np.ceil(config.t_final / dt - 1e-12)
    if not 1 <= nsteps < np.iinfo(np.intp).max:
        # + 0.0: a count of -0.0 prints as 0
        raise InvalidConfig("dt %g and t_final %g give %g steps, not between "
                            "1 and what an array can index"
                            % (dt, config.t_final, nsteps + 0.0))
    return int(nsteps)


def run(operators, config, consume):
    """March the scheme from P_h u(0) to t_final, forced by f, with u and
    f those of config.manufactured.

    The steps go in blocks of BLOCK, aligned to multiples of BLOCK in the
    run.  A block is stepped with bare LU solves and then verified at once
    by the residual rule of ``_Factor.failing``, one multi-vector product
    for all its steps; from its first failing step it is stepped again
    through the checked ``_Factor.solve`` (one refinement step, then
    SolveFailure), so the states are those of checked steps.
    consume(first, states) gets states (k, n_dofs), ``first`` being the
    index of states[0] in the run: once the initial state alone (first
    0), then once per block that passed its k <= BLOCK new states (first
    1, 1 + BLOCK, ...).  ``states`` is a view of the step array, reused
    after the call, so a consumer copies what it keeps.  Returns the
    RunResult of dt and the step count, which forms the times on read.
    """
    nsteps = step_count(config)
    dt = config.dt
    ops = operators
    n_dofs = ops.system.n_dofs
    stepper = HeatStepper(ops, config.scheme, dt,
                          config.stabilized_time_derivative)
    factor = stepper.factor
    # BDF2 starts with one backward Euler step, checked on its own
    startup = (HeatStepper(ops, "BDF1", dt, config.stabilized_time_derivative)
               if config.scheme == "BDF2" else None)
    man = config.manufactured
    # x holds the two states before the block, then its states, and b the
    # data at the block's start, then at its step ends: step j of the
    # block goes from x[j + 1] to x[j + 2] with data b[j] and b[j + 1] at
    # its ends and right-hand side rhs[j].  A block's last two states and
    # last data start the next block, so each time's data is evaluated once.
    x = np.zeros((BLOCK + 2, n_dofs))
    b = np.zeros((BLOCK + 1, n_dofs))
    rhs = np.empty((BLOCK, n_dofs))
    x[1:2] = ops.project(man.profile, man.time(np.zeros(1)))
    consume(0, x[1:2])
    if man.ftime is not None:
        b[:1] = ops.riesz_data(man.profile, man.ftime(np.zeros(1)))

    def march(lo, k, solve):
        """Steps lo, ..., k - 1 of the block."""
        for j in range(lo, k):
            rhs[j] = stepper.rhs(x[j + 1], x[j], b[j], b[j + 1])
            x[j + 2] = solve(rhs[j])

    for n in range(0, nsteps, BLOCK):
        k = min(BLOCK, nsteps - n)
        if man.ftime is not None:
            b[1:k + 1] = ops.riesz_data(
                man.profile, man.ftime(dt * np.arange(n + 1, n + k + 1)))
        lo = 0
        if n == 0 and startup is not None:
            rhs[0] = startup.rhs(x[1], x[0], b[0], b[1])
            x[2] = startup.factor.solve(rhs[0])
            lo = 1
        march(lo, k, factor.lu.solve)
        bad = factor.failing(rhs[lo:k].T, x[lo + 2:k + 2].T)
        if bad.any():
            march(lo + int(np.argmax(bad)), k, factor.solve)
        consume(n + 1, x[2:k + 2])
        x[:2], b[0] = x[k:k + 2], b[k]
    return RunResult(dt=dt, nsteps=nsteps)


@dataclass
class ErrorRecord:
    """Error functionals of one run against a manufactured solution."""

    e_l2_initial: float
    int_h1_sq: float              # time integral of E_H1*^2
    int_hm1_dt_sq: float          # time integral of E_Hm1*[du/dt, .]^2
    int_l2_sq: float              # time integral of E_L2*^2
    e_total: float

    @property
    def e_l2l2(self):
        return float(np.sqrt(self.int_l2_sq))


class ErrorFold:
    """Consumer of a run that folds its states into the error functionals.

    E^2 = E_L2*[u(0), u_h(0)]^2 + int_I E_Hm1*[du/dt, d_t u_h]^2
        + int_I E_H1*[u, u_h]^2, with trapezoid time integrals, backward
    differences for d_t u_h (paired with du/dt at step midpoints), plus
    the companion integral int_I E_L2*^2, against config.manufactured.
    Each call evaluates the L2* and H1* errors of the states it is given
    and the H^-1* error of the steps that end in them, the first from the
    last state folded before (a copy of it is kept), with the Fourier
    coefficients of du/dt at those step midpoints, and adds their squares
    to three running sums (trapezoid weights for H1* and L2*), not a value
    per step.  Feed it every state of the run in order, in any split (the
    run's blocks, single states, all at once; the sums then differ at the
    rounding level), then read ``record``.
    """

    def __init__(self, operators, config):
        self.ops = operators
        self.man = config.manufactured
        self.dt = config.dt
        self.nsteps = step_count(config)
        self.h1_sum = self.l2_sum = self.hm1_sum = 0.0
        self.e0 = None
        self.last = None              # (1, n_dofs): the last state folded

    def __call__(self, first, states):
        ops, man, dt = self.ops, self.man, self.dt
        stop = first + len(states)
        index = np.arange(first, stop)
        a = man.time(dt * index)
        # the trapezoid weights: 1/2 at the run's ends, states 0 and nsteps
        trap = np.where((index == 0) | (index == self.nsteps), 0.5, 1.0)
        self.h1_sum += float(trap @ ops.error_h1_star(
            man.profile, man.dprofile, states, a) ** 2)
        l2 = ops.error_l2_star(man.profile, states, a)
        self.l2_sum += float(trap @ l2 ** 2)
        if first == 0:
            self.e0 = float(l2[0])
        # steps lo, ..., stop - 2 end in states; held[0] is state lo
        held = np.concatenate([self.last, states]) if first else states
        lo = stop - len(held)
        if lo < stop - 1:
            t = dt * np.arange(lo, stop)
            coef = ops.probe.coefficients(
                man.profile, man.dtime(0.5 * (t[:-1] + t[1:])))
            self.hm1_sum += float(np.sum(ops.error_hm1_star(
                coef, np.diff(held, axis=0) / dt) ** 2))
        self.last = states[-1:].copy()

    def record(self):
        int_h1, int_hm1 = self.dt * self.h1_sum, self.dt * self.hm1_sum
        return ErrorRecord(
            e_l2_initial=self.e0, int_h1_sq=int_h1, int_hm1_dt_sq=int_hm1,
            int_l2_sq=self.dt * self.l2_sum,
            e_total=float(np.sqrt(self.e0 ** 2 + int_hm1 + int_h1)),
        )


def accumulate_errors(operators, config):
    """ErrorRecord of the run of config against config.manufactured, its
    states folded as they are stepped (see ErrorFold)."""
    fold = ErrorFold(operators, config)
    run(operators, config, fold)
    return fold.record()
