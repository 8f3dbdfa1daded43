import tracemalloc

import numpy as np
import pytest

from tracefem.errors import InvalidConfig
from tracefem.heatsolver import (MANUFACTURED, ConvergenceTable, HeatRun,
                                 accumulate_errors, run)
from tracefem.operators import DiscreteOperators


def _cos(th):
    return np.cos(th)


class TestStepping:
    @pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "CrankNicolson"])
    def test_constant_steady_state(self, setup48, scheme):
        cfg = HeatRun(scheme=scheme, dt=0.05, t_final=0.3,
                      u0=lambda th: np.ones_like(th))
        result = run(setup48.ops, cfg)
        for x in result.history:
            assert np.abs(x - 1.0).max() <= 1e-10

    def test_zero_data(self, setup48):
        cfg = HeatRun(dt=0.1, t_final=0.3, u0=None)
        result = run(setup48.ops, cfg)
        for x in result.history:
            assert np.abs(x).max() == 0.0

    def test_decay_rate(self, setup192):
        # e^-t cos(theta) at t = 0.5 with dt = 1/512 on the finest mesh
        s = setup192
        cfg = HeatRun(scheme="BDF1", dt=1.0 / 512.0, t_final=0.5, u0=_cos)
        result = run(s.ops, cfg)
        coef = (s.probe.G.T @ result.history[-1])[1] / np.sqrt(np.pi)
        assert abs(coef - np.exp(-0.5)) / np.exp(-0.5) <= 0.02

    def test_mass_conservation(self, setup48):
        cfg = HeatRun(dt=0.01, t_final=0.2, u0=_cos)
        result = run(setup48.ops, cfg)
        drift = np.abs(result.mean_history - result.mean_history[0])
        scale = max(np.abs(result.mean_history).max(), 2 * np.pi)
        assert drift.max() <= 1e-11 * scale

    def test_dissipation_all_dt(self, setup48):
        h = setup48.mesh.h
        for dt in (h * h, h, 1.0):
            cfg = HeatRun(dt=dt, t_final=max(4 * dt, 0.1), u0=_cos)
            result = run(setup48.ops, cfg)
            diffs = np.diff(result.l2_star_history)
            assert diffs.max() <= 1e-12 * result.l2_star_history[0]

    def test_invalid_scheme(self, setup48):
        with pytest.raises(InvalidConfig):
            run(setup48.ops, HeatRun(scheme="RK4", dt=0.1, t_final=0.2,
                                     u0=_cos))

    def test_history_length(self, setup48):
        cfg = HeatRun(dt=0.05, t_final=0.25, u0=_cos)
        result = run(setup48.ops, cfg)
        assert len(result.history) == 6     # ceil(.25/.05) + 1

    def test_bdf2_and_cn_track_decay(self, setup96):
        for scheme in ("BDF2", "CrankNicolson"):
            cfg = HeatRun(scheme=scheme, dt=0.01, t_final=0.3, u0=_cos)
            result = run(setup96.ops, cfg)
            coef = (setup96.probe.G.T @ result.history[-1])[1] / np.sqrt(np.pi)
            assert abs(coef - np.exp(-0.3)) <= 0.02

    def test_cn_evaluates_each_forcing_once(self, setup48, monkeypatch):
        man = MANUFACTURED["forced_mode_2"]
        ops = setup48.ops
        riesz = ops.riesz_data
        times = []

        def counted(v, t=None):
            if v is man.forcing:
                times.extend(np.atleast_1d(t).tolist())
            return riesz(v, t)

        monkeypatch.setattr(ops, "riesz_data", counted)
        cfg = HeatRun(scheme="CrankNicolson", dt=0.01, t_final=0.1,
                      u0=lambda th: man.value(th, 0.0), f=man.forcing)
        result = run(ops, cfg)
        assert len(result.times) == 11
        assert times == list(result.times)

    def test_stabilized_vs_unstabilized_close(self, setup48, setup96):
        # both variants are consistent; their gap shrinks under refinement
        diffs = []
        for s in (setup48, setup96):
            dt = s.background.h_global
            runs = []
            for stab in (True, False):
                cfg = HeatRun(dt=dt, t_final=0.5, u0=_cos,
                              stabilized_time_derivative=stab)
                runs.append(run(s.ops, cfg))
            d = runs[0].history - runs[1].history
            gap = [e @ (s.system.M @ e) for e in d]    # ||e||^2_L2(Gamma)
            diffs.append(np.sqrt(dt * np.sum(gap)))
        assert diffs[1] <= 0.6 * diffs[0]


class TestErrorAccumulation:
    def test_forced_solution_tracks(self, setup48, setup96):
        man = MANUFACTURED["forced_mode_2"]
        errs = []
        for s in (setup48, setup96):
            dt = s.background.h_global / 2
            cfg = HeatRun(dt=dt, t_final=0.5,
                          u0=lambda th: man.value(th, 0.0),
                          f=man.forcing, manufactured=man)
            result = run(s.ops, cfg)
            rec = accumulate_errors(s.ops, result, man)
            errs.append(rec.e_l2l2)
        assert errs[1] < errs[0]

    def test_synthetic_projection_history(self, setup48, decay_runs):
        # errors of the projected exact solution are strictly positive
        # and the solver stays within a modest factor of them
        s = setup48
        result, record = decay_runs[48]
        man = MANUFACTURED["decaying_mode"]
        proj = [s.ops.project(man.value, t) for t in result.times]
        synth = type(result)(config=result.config, history=proj,
                             times=result.times)
        rec_proj = accumulate_errors(s.ops, synth, man)
        assert rec_proj.e_total > 0.0
        assert record.e_total <= 25.0 * rec_proj.e_total

    def test_rates_on_ladder(self, decay_runs):
        table = ConvergenceTable()
        for n in sorted(decay_runs):
            _, rec = decay_runs[n]
            table.add({"h": rec.h, "e_total": rec.e_total,
                       "e_l2l2": rec.e_l2l2})
        assert table.rate("e_total") >= 0.9
        assert table.rate("e_l2l2") >= 0.9
        e = table.column("e_total")
        assert all(a > b for a, b in zip(e, e[1:]))

    def test_rate_fit_needs_three(self):
        t = ConvergenceTable()
        t.add({"h": 0.1, "e": 1.0})
        t.add({"h": 0.05, "e": 0.5})
        with pytest.raises(InvalidConfig):
            t.rate("e")

    def test_memory_below_basis_table(self, setup96):
        # The error pass holds no (n_nodes, n_modes) Fourier basis table:
        # its peak traced allocation stays below half of one.  Fresh
        # operators, so nothing is cached by earlier tests.
        s = setup96
        ops = DiscreteOperators(s.system, s.probe)
        man = MANUFACTURED["forced_mode_2"]
        cfg = HeatRun(dt=0.01, t_final=0.37,
                      u0=lambda th: man.value(th, 0.0),
                      f=man.forcing, manufactured=man)
        result = run(ops, cfg)
        tracemalloc.start()
        try:
            accumulate_errors(ops, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = len(ops.topology.w) * ops.probe.n_modes * 8
        assert peak < table / 2, (peak, table)
