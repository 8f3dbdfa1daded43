import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tracefem
from tracefem.cli import Pipeline, cmd_heat, fit_rate
from tracefem.errors import InvalidConfig
from tracefem.heatsolver import (BLOCK, MANUFACTURED, ErrorFold, HeatRun,
                                 HeatStepper, accumulate_errors, run,
                                 step_count, step_matrix)
from tracefem.operators import ONE, DiscreteOperators

from conftest import CONFIG
from helpers import constant, traced_peak

DECAY = MANUFACTURED["decaying_mode"](1.0)
FORCED = MANUFACTURED["forced_mode_2"](1.0)


class TestStepping:
    @pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
    def test_constant_steady_state(self, setup48, trajectory, scheme):
        cfg = HeatRun(manufactured=constant(1.0), dt=0.05, t_final=0.3,
                      scheme=scheme)
        _, hist = trajectory(setup48.ops, cfg)
        for x in hist:
            assert np.abs(x - 1.0).max() <= 1e-10

    def test_zero_data(self, setup48, trajectory):
        cfg = HeatRun(manufactured=constant(0.0), dt=0.1, t_final=0.3)
        _, hist = trajectory(setup48.ops, cfg)
        for x in hist:
            assert np.abs(x).max() == 0.0

    def test_decay_rate(self, setup192, trajectory):
        # e^-t cos(theta) at t = 0.5 with dt = 1/512 on the finest mesh
        s = setup192
        cfg = HeatRun(manufactured=DECAY, dt=1.0 / 512.0, t_final=0.5)
        _, hist = trajectory(s.ops, cfg)
        coef = (s.ops.probe.G.T @ hist[-1])[1] / np.sqrt(np.pi)
        assert abs(coef - np.exp(-0.5)) / np.exp(-0.5) <= 0.02

    def test_mass_conservation(self, setup48, trajectory):
        cfg = HeatRun(manufactured=DECAY, dt=0.01, t_final=0.2)
        _, hist = trajectory(setup48.ops, cfg)
        mean = hist @ (setup48.system.M @ np.ones(setup48.system.n_dofs))
        drift = np.abs(mean - mean[0])
        scale = max(np.abs(mean).max(), 2 * np.pi)
        assert drift.max() <= 1e-11 * scale

    def test_dissipation_all_dt(self, setup48, trajectory):
        h = setup48.mesh.h
        for dt in (h * h, h, 1.0):
            cfg = HeatRun(manufactured=DECAY, dt=dt,
                          t_final=max(4 * dt, 0.1))
            _, hist = trajectory(setup48.ops, cfg)
            l2_star = setup48.ops.l2_star(hist)
            assert np.diff(l2_star).max() <= 1e-12 * l2_star[0]

    def test_invalid_scheme(self, setup48):
        with pytest.raises(InvalidConfig):
            run(setup48.ops, HeatRun(manufactured=DECAY, dt=0.1,
                                     t_final=0.2, scheme="RK4"),
                lambda first, states: None)

    @pytest.mark.parametrize("stabilized", [True, False])
    @pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
    def test_factors_the_step_matrix(self, setup48, scheme, stabilized):
        # the stepper factors step_matrix, the matrix diagnostics takes
        # kappa of, entry for entry
        stepper = HeatStepper(setup48.ops, scheme, 0.01, stabilized)
        want = step_matrix(setup48.system, scheme, 0.01, stabilized)
        assert np.array_equal(stepper.factor.mat.toarray(), want.toarray())

    def test_time_grid_needs_a_step(self):
        # t_final within 1e-12 dt of 0 rounds to no step; just above it, one
        assert step_count(HeatRun(manufactured=DECAY, dt=1.0,
                                  t_final=2e-12)) == 1
        for dt, t_final in ((1.0, 1e-13), (float("nan"), 1.0)):
            with pytest.raises(InvalidConfig, match="steps, not between 1"):
                step_count(HeatRun(manufactured=DECAY, dt=dt,
                                   t_final=t_final))

    def test_history_length(self, setup48, trajectory):
        cfg = HeatRun(manufactured=DECAY, dt=0.05, t_final=0.25)
        result, hist = trajectory(setup48.ops, cfg)
        assert len(hist) == len(result.times) == 6     # ceil(.25/.05) + 1

    def test_bdf2_and_cn_track_decay(self, setup96, trajectory):
        for scheme in ("BDF2", "CrankNicolson"):
            cfg = HeatRun(manufactured=DECAY, dt=0.01, t_final=0.3,
                          scheme=scheme)
            _, hist = trajectory(setup96.ops, cfg)
            coef = (setup96.ops.probe.G.T @ hist[-1])[1] / np.sqrt(np.pi)
            assert abs(coef - np.exp(-0.3)) <= 0.02

    @pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
    def test_each_forcing_time_once(self, setup48, scheme):
        # the forcing's time factor at t = 0 and at every step end, over
        # two full blocks and a part block, each evaluated once and in order
        times = []

        def recorded(t):
            times.extend(np.atleast_1d(t).tolist())
            return FORCED.ftime(t)

        man = replace(FORCED, ftime=recorded)
        cfg = HeatRun(manufactured=man, dt=1.0 / 64.0,
                      t_final=(2 * BLOCK + 3) / 64.0, scheme=scheme)
        run(setup48.ops, cfg, lambda first, states: None)
        assert times == list(cfg.dt * np.arange(step_count(cfg) + 1))
        assert len(times) == 2 * BLOCK + 4

    def test_stabilized_vs_unstabilized_close(self, setup48, setup96,
                                              trajectory):
        # both variants are consistent; their gap shrinks under refinement
        diffs = []
        for s in (setup48, setup96):
            dt = s.background.h_global
            runs = []
            for stab in (True, False):
                cfg = HeatRun(manufactured=DECAY, dt=dt, t_final=0.5,
                              stabilized_time_derivative=stab)
                runs.append(trajectory(s.ops, cfg)[1])
            d = runs[0] - runs[1]
            gap = [e @ (s.system.M @ e) for e in d]    # ||e||^2_L2(Gamma)
            diffs.append(np.sqrt(dt * np.sum(gap)))
        assert diffs[1] <= 0.6 * diffs[0]


class TestErrorAccumulation:
    def test_forced_solution_tracks(self, setup48, setup96):
        errs = []
        for s in (setup48, setup96):
            dt = s.background.h_global / 2
            cfg = HeatRun(manufactured=FORCED, dt=dt, t_final=0.5)
            rec = accumulate_errors(s.ops, cfg)
            errs.append(rec.e_l2l2)
        assert errs[1] < errs[0]

    def test_synthetic_projection_history(self, setup48, decay_runs):
        # errors of the projected exact solution are strictly positive
        # and the solver stays within a modest factor of them
        s = setup48
        cfg, _, record = decay_runs[48]
        proj = s.ops.project(DECAY.profile, DECAY.time(
            cfg.dt * np.arange(step_count(cfg) + 1)))
        fold = ErrorFold(s.ops, cfg)
        fold(0, proj)
        rec_proj = fold.record()
        assert rec_proj.e_total > 0.0
        assert record.e_total <= 25.0 * rec_proj.e_total

    def test_rates_on_ladder(self, ladder, decay_runs):
        recs = [decay_runs[n][2] for n in sorted(decay_runs)]
        h = [ladder[n].mesh.h for n in sorted(decay_runs)]
        e = [rec.e_total for rec in recs]
        assert fit_rate(h, e) >= 0.9
        assert fit_rate(h, [rec.e_l2l2 for rec in recs]) >= 0.9
        assert all(a > b for a, b in zip(e, e[1:]))

    @pytest.mark.parametrize("data", sorted(MANUFACTURED))
    def test_first_state_is_projected_u0(self, setup48, data):
        # the run projects u(0) as the profile with the factor a(0): the
        # same bits as projecting the function theta -> a(0) g(theta)
        man = MANUFACTURED[data](1.0)
        ops = setup48.ops
        first = []
        run(ops, HeatRun(manufactured=man, dt=0.05, t_final=0.05),
            lambda i, states: first.append(states.copy()) if i == 0 else None)
        assert np.array_equal(first[0][0],
                              ops.project(lambda th: man.time(0.0)
                                          * man.profile(th), ONE)[0])

    def test_initial_error_is_projection_error(self, ladder, decay_runs):
        # converge writes e_l2_initial as proj_l2_star: on the shipped
        # ladder it equals the error of a projection made on its own
        g, a = DECAY.profile, DECAY.time(np.zeros(1))
        for n, s in ladder.items():
            x = s.ops.project(g, a)
            assert decay_runs[n][2].e_l2_initial == \
                s.ops.error_l2_star(g, x, a)[0]

    def test_rate_fit_needs_three(self):
        with pytest.raises(InvalidConfig):
            fit_rate([0.1, 0.05], [1.0, 0.5])

    @pytest.mark.parametrize("h", [[0.1, 0.1, 0.05], [0.1, 0.1, 0.1, 0.1]])
    def test_rate_fit_needs_three_distinct(self, h):
        # a repeated size adds no abscissa to the fit
        with pytest.raises(InvalidConfig, match="3 distinct mesh sizes"):
            fit_rate(h, np.linspace(1.0, 0.5, len(h)))

    def test_memory_below_basis_table(self, setup96):
        # The error pass holds no (n_nodes, n_modes) Fourier basis table:
        # its peak traced allocation stays below half of one.  Fresh
        # operators, so nothing is cached by earlier tests; their probe is
        # built before the measurement, which covers the pass alone.
        s = setup96
        ops = DiscreteOperators(s.system, s.ops.k_max)
        ops.probe
        cfg = HeatRun(manufactured=FORCED, dt=0.01, t_final=0.37)
        peak = traced_peak(lambda: accumulate_errors(ops, cfg))[0]
        table = len(ops.topology.w) * ops.probe.n_modes * 8
        assert peak < table / 2, (peak, table)

    def test_memory_flat_in_steps(self, setup48):
        # Stepping and the error pass keep no trajectory and no per-step
        # coefficient table: a run twice as long, both of many step
        # blocks, peaks less than 10 % higher.
        s = setup48
        peaks = []
        for t_final in (0.3, 0.6):        # 301 and 601 steps
            cfg = HeatRun(manufactured=FORCED, dt=0.3 / 301, t_final=t_final)
            peaks.append(traced_peak(lambda: accumulate_errors(s.ops, cfg))[0])
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_memory_per_step(self):
        # The error fold keeps running sums, not a value per step: from 10^3
        # to 10^4 steps the peak grows by at most 2 B a step.  The probe is
        # built and the operators are warmed by a short run first.  That
        # run is shorter than a block, so the 10^3-step peak also holds the
        # first full-block allocations and this pair cannot see an array of
        # 8 B a step; test_memory_per_step_long does.
        peaks = fold_peaks(0.1, (10 ** 3, 10 ** 4))
        assert peaks[1] - peaks[0] <= 2 * (10 ** 4 - 10 ** 3), peaks

    def test_heat_memory_per_step(self, tmp_path):
        # heat keeps its series as numbers and formats its files 512 rows
        # at a time: from 2,000 to 20,000 steps the peak grows by at most
        # 96 B a step (34 measured, 32 of them the series; 54 with chunks
        # of 4,096 rows).  Holding the series as lists and as text lines
        # too, it grew by 340.  A short run first warms the imports and
        # caches.
        cfg = dict(CONFIG, n_cells=[16], t_final=1.0)
        cmd_heat(dict(cfg, dt_rule=0.01), str(tmp_path))
        peaks = []
        for nsteps in (2000, 20000):
            peaks.append(traced_peak(lambda: cmd_heat(
                dict(cfg, dt_rule=1.0 / nsteps), str(tmp_path)))[0])
        assert peaks[1] - peaks[0] <= 96 * (20000 - 2000), peaks


# The error record of a forced run of 2^17 steps at n_cells 16, printed
# as the repr of its five fields.
THREAD_RUN = """
import json, sys
from dataclasses import astuple
from tracefem.cli import Pipeline
from tracefem.heatsolver import MANUFACTURED, HeatRun, accumulate_errors
ops = Pipeline(json.loads(sys.argv[1]), 16).ops
man = MANUFACTURED["forced_mode_2"](1.0)
print(repr(astuple(accumulate_errors(ops, HeatRun(
    manufactured=man, dt=2.0 ** -17, t_final=1.0)))))
"""


def fold_peaks(warm_up, lengths):
    """Traced peaks of accumulate_errors over runs of the given step
    counts to t = 1 at n=16, after the probe is built and the operators
    are warmed by a run to t = warm_up with dt = 0.01."""
    ops = Pipeline(CONFIG, 16).ops
    ops.probe
    accumulate_errors(ops, HeatRun(manufactured=FORCED, dt=0.01,
                                   t_final=warm_up))
    peaks = []
    for nsteps in lengths:
        cfg = HeatRun(manufactured=FORCED, dt=1.0 / nsteps, t_final=1.0)
        peaks.append(traced_peak(lambda: accumulate_errors(ops, cfg))[0])
    return peaks


@pytest.mark.slow
def test_memory_per_step_long():
    # Neither the fold nor the run keeps a value per step: after a warm-up
    # longer than a block, from 10^4 to 10^5 steps the peak grows by at
    # most 2 B a step (0.4-0.5 measured; 14.3 when the run kept its times).
    # Below 10^4 steps the peak still grows by some 40 KB, about 56 B a
    # block that scipy's index check in trace.T leaves for a full
    # collection.
    peaks = fold_peaks(0.2, (10 ** 4, 10 ** 5))
    assert peaks[1] - peaks[0] <= 2 * (10 ** 5 - 10 ** 4), peaks


@pytest.mark.slow
def test_error_record_thread_free():
    # the record is the same to the last bit under 1 and 2 BLAS threads
    src = str(pathlib.Path(tracefem.__file__).parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_RUN, json.dumps(CONFIG)], env=env,
            capture_output=True, text=True, check=True)
        out.append(proc.stdout)
    assert out[0] == out[1], out
