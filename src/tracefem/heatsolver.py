"""Time stepping for the stabilized surface heat equation.

One implicit step solves [(c0/dt) Mt + A + S1] u_new = rhs where Mt is
the stabilized mass M + S0 (default) or the plain surface mass M, with
BDF1/BDF2/Crank-Nicolson coefficient choices.  Runs start from the
stabilized projection of the initial datum and keep the trajectory as
one (nsteps + 1, n_dofs) array; the forcing's Riesz data, the time
series and the error functionals of a manufactured solution are
evaluated on blocks of steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .operators import _Factor

BLOCK = 8                     # steps per stacked data/functional evaluation

# scheme -> c0, the coefficient of Mt/dt in the one-step matrix
SCHEMES = {"BDF1": 1.0, "BDF2": 1.5, "CrankNicolson": 1.0}


def blockwise(fn, n):
    """Concatenate fn(b) over slices b of range(n) of at most BLOCK steps,
    which bound the (k, n_nodes) temporaries of a stacked functional;
    empty for n = 0."""
    return np.concatenate([np.empty(0)] + [fn(slice(a, min(a + BLOCK, n)))
                                           for a in range(0, n, BLOCK)])


@dataclass
class Manufactured:
    """Exact solution u(theta, t) on the circle with the data it induces."""

    value: object                 # u(theta, t)
    dtheta: object                # du/dtheta
    dt_value: object              # du/dt
    forcing: object = None        # f(theta, t), None when zero


def _decay(theta, t):
    return np.exp(-t) * np.cos(theta)


MANUFACTURED = {
    # u = e^-t cos(theta): eigenmode of the circle Laplacian, f = 0.
    "decaying_mode": Manufactured(
        value=_decay,
        dtheta=lambda th, t: -np.exp(-t) * np.sin(th),
        dt_value=lambda th, t: -np.exp(-t) * np.cos(th),
        forcing=None,
    ),
    # u = cos(t) cos(2 theta) on the unit circle: f = (4 cos t - sin t) cos(2 theta).
    "forced_mode_2": Manufactured(
        value=lambda th, t: np.cos(t) * np.cos(2 * th),
        dtheta=lambda th, t: -2.0 * np.cos(t) * np.sin(2 * th),
        dt_value=lambda th, t: -np.sin(t) * np.cos(2 * th),
        forcing=lambda th, t: (4.0 * np.cos(t) - np.sin(t)) * np.cos(2 * th),
    ),
}


@dataclass
class HeatRun:
    scheme: str = "BDF1"
    dt: float = 1e-2
    t_final: float = 0.5
    stabilized_time_derivative: bool = True
    u0: object = None             # u0(theta)
    f: object = None              # f(theta, t), None when zero
    manufactured: Manufactured | None = None


@dataclass
class RunResult:
    config: HeatRun
    history: np.ndarray = None    # (nsteps + 1, n_dofs) trajectory
    times: np.ndarray | None = None
    l2_star_history: np.ndarray | None = None
    mean_history: np.ndarray | None = None


class HeatStepper:
    """Factorized one-step solver for a fixed scheme and dt."""

    def __init__(self, operators, scheme, dt, stabilized_time_derivative=True):
        if scheme not in SCHEMES:
            raise InvalidConfig("unknown scheme %r" % scheme)
        self.ops = operators
        self.scheme = scheme
        self.dt = float(dt)
        self.stabilized = bool(stabilized_time_derivative)
        system = operators.system
        self.mt = system.M_star if self.stabilized else system.M
        self.k1 = system.A_star
        if scheme == "CrankNicolson":
            mat = self.mt / dt + 0.5 * self.k1
            self.cn_rhs = self.mt / dt - 0.5 * self.k1
        else:
            mat = SCHEMES[scheme] * self.mt / dt + self.k1
        self.factor = _Factor(mat.tocsc(), "heat step matrix")

    def step_bdf1(self, u, b_next):
        return self.factor.solve(self.mt @ u / self.dt + b_next)

    def step_bdf2(self, u, u_prev, b_next):
        rhs = self.mt @ (2.0 * u - 0.5 * u_prev) / self.dt + b_next
        return self.factor.solve(rhs)

    def step_cn(self, u, b_mid):
        rhs = self.cn_rhs @ u + b_mid
        return self.factor.solve(rhs)


def run(operators, config):
    """March the scheme from P_h u0 to t_final; returns the full history."""
    dt = config.dt
    if dt <= 0 or config.t_final <= 0:
        raise InvalidConfig("dt and t_final must be positive")
    nsteps = int(np.ceil(config.t_final / dt - 1e-12))
    ops = operators
    system = ops.system

    history = np.empty((nsteps + 1, system.n_dofs))
    history[0] = ops.project(config.u0) if config.u0 is not None else 0.0
    stepper = HeatStepper(ops, config.scheme, dt,
                          config.stabilized_time_derivative)
    f = config.f
    if config.scheme == "BDF2":
        # startup: one backward Euler step
        bdf1 = HeatStepper(ops, "BDF1", dt, config.stabilized_time_derivative)

    def data(t):
        t = np.asarray(t, dtype=float)
        return np.zeros(t.shape + (1,)) if f is None else ops.riesz_data(f, t)

    # One call gives the data of the next BLOCK step ends, a row each.
    # Crank-Nicolson averages the data at both ends of a step; the start
    # of step n is the end of step n - 1, so each time is evaluated once.
    b = data(0.0) if config.scheme == "CrankNicolson" else 0.0
    for n in range(nsteps):
        if n % BLOCK == 0:
            ends = data(dt * np.arange(n + 1, min(n + BLOCK, nsteps) + 1))
        b_prev, b = b, ends[n % BLOCK]
        if config.scheme == "CrankNicolson":
            u = stepper.step_cn(history[n], 0.5 * (b_prev + b))
        elif config.scheme == "BDF2":
            if n == 0:
                u = bdf1.step_bdf1(history[n], b)
            else:
                u = stepper.step_bdf2(history[n], history[n - 1], b)
        else:
            u = stepper.step_bdf1(history[n], b)
        history[n + 1] = u

    m_one = system.M @ np.ones(system.n_dofs)
    return RunResult(
        config=config,
        history=history,
        times=dt * np.arange(nsteps + 1),
        l2_star_history=blockwise(lambda b: ops.l2_star(history[b]),
                                  nsteps + 1),
        mean_history=history @ m_one,
    )


@dataclass
class ErrorRecord:
    """Error functionals of one run against a manufactured solution."""

    h: float
    dt: float
    e_l2_initial: float
    int_h1_sq: float              # time integral of E_H1*^2
    int_hm1_dt_sq: float          # time integral of E_Hm1*[du/dt, .]^2
    int_l2_sq: float              # time integral of E_L2*^2
    e_total: float

    @property
    def e_l2l2(self):
        return float(np.sqrt(self.int_l2_sq))


def accumulate_errors(operators, result, manufactured=None):
    """Total error functional of a run.

    E^2 = E_L2*[u(0), u_h(0)]^2 + int_I E_Hm1*[du/dt, d_t u_h]^2
        + int_I E_H1*[u, u_h]^2, with trapezoid time integrals, backward
    differences for d_t u_h (paired with du/dt at step midpoints), plus
    the companion integral int_I E_L2*^2.
    """
    man = manufactured if manufactured is not None else result.config.manufactured
    ops = operators
    dt = result.config.dt
    hist = np.asarray(result.history)
    times = result.times
    t_mid = 0.5 * (times[:-1] + times[1:])
    trap = np.ones(len(hist))
    trap[0] = trap[-1] = 0.5

    e0 = ops.error_l2_star(man.value, hist[0], times[0])
    h1_sq = blockwise(lambda b: ops.error_h1_star(
        man.value, man.dtheta, hist[b], times[b]) ** 2, len(hist))
    l2_sq = blockwise(lambda b: ops.error_l2_star(
        man.value, hist[b], times[b]) ** 2, len(hist))
    coef = ops.function_coefficients(man.dt_value, t_mid)
    hm1_sq = blockwise(lambda b: ops.error_hm1_star(
        coef[b], np.diff(hist[b.start:b.stop + 1], axis=0) / dt) ** 2,
        len(hist) - 1)

    int_h1 = float(dt * trap @ h1_sq)
    int_l2 = float(dt * trap @ l2_sq)
    int_hm1 = float(dt * np.sum(hm1_sq))
    total = float(np.sqrt(e0 ** 2 + int_hm1 + int_h1))
    return ErrorRecord(
        h=ops.system.mesh.h, dt=dt,
        e_l2_initial=e0, int_h1_sq=int_h1, int_hm1_dt_sq=int_hm1,
        int_l2_sq=int_l2, e_total=total,
    )


@dataclass
class ConvergenceTable:
    """Rows of (h, dt, errors) with least-squares fitted rates."""

    rows: list = field(default_factory=list)

    def add(self, row):
        self.rows.append(row)

    def rate(self, column):
        """Fitted slope of log(column) vs log(h) over all rows."""
        if len(self.rows) < 3:
            raise InvalidConfig("rate fit needs at least 3 rows")
        h = np.array([r["h"] for r in self.rows])
        e = np.array([r[column] for r in self.rows])
        return float(np.polyfit(np.log(h), np.log(e), 1)[0])

    def column(self, name):
        return [r[name] for r in self.rows]
