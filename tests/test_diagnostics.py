import dataclasses

import numpy as np
import pytest

from tracefem import diagnostics as dg
from tracefem.errors import SingularMatrix, SolveFailure

from helpers import max_regularity_ratio


@pytest.fixture(scope="module")
def reports(ladder):
    return {n: dg.constants_report(s.ops, t_final=1.0, mesh_id="n%d" % n)
            for n, s in ladder.items()}


class TestOperatorNorms:
    def test_at_least_one(self, reports):
        for rep in reports.values():
            assert rep.norm_Ph_H1gamma >= 1.0 - 1e-6
            assert rep.norm_Ph_H1star >= 1.0 - 1e-6

    def test_ordering(self, reports):
        for rep in reports.values():
            assert rep.norm_Ph_H1star - rep.norm_Ph_H1gamma >= -1e-9

    def test_bounded_across_refinement(self, reports):
        for attr in ("norm_Ph_H1gamma", "norm_Ph_H1star"):
            vals = [getattr(r, attr) for r in reports.values()]
            assert max(vals) / min(vals) <= 2.0


class TestCinv:
    def test_positive(self, reports):
        for rep in reports.values():
            assert rep.C_inv_h > 0.0

    def test_bounded_across_refinement(self, reports):
        vals = [r.C_inv_h for r in reports.values()]
        assert max(vals) / min(vals) <= 2.0


class TestLambda:
    def test_below_one(self, reports):
        for rep in reports.values():
            assert rep.Lambda_h <= 1.0 + 1e-9

    def test_sandwich_with_ph(self, reports):
        for rep in reports.values():
            assert rep.norm_Ph_H1gamma <= rep.inv_Lambda_h * 1.02
            assert rep.inv_Lambda_h <= \
                (rep.norm_Ph_H1star + rep.C_inv_h) * 1.02

    def test_kmax_monotone(self, setup96):
        from tracefem.cutquad import build_topology, oscillation_order
        from tracefem.operators import DiscreteOperators
        s = setup96
        q = oscillation_order(256, s.mesh.h, s.surface.radius)
        topo = build_topology(s.surface, s.mesh, q_surf=q)
        from tracefem.assembly import assemble
        system = assemble(s.mesh, topo)
        inv = []
        for k_max in (128, 256):
            ops = DiscreteOperators(system, k_max)
            inv.append(dg.lambda_h(ops)[1])
        assert inv[1] >= inv[0] - 1e-9
        assert abs(inv[1] - inv[0]) / inv[0] <= 0.01


class TestInfSup:
    def test_cb_minus_value(self):
        lower, _ = dg.infsup_bounds(1.0, 1.0, 0.0, t_final=1.0)
        assert lower == pytest.approx(0.1178511302, abs=1e-9)

    def test_t_zero_limit(self):
        lower, _ = dg.infsup_bounds(2.0, 1.5, 3.0, t_final=0.0)
        assert lower == pytest.approx((1 / np.sqrt(8.0)) / 5.0)

    def test_ordering(self, reports):
        for rep in reports.values():
            assert rep.c_star_lower <= rep.c_star_upper


class TestConditionNumbers:
    def test_kappa_pstar_bounded(self, reports):
        vals = [r.kappa_Pstar for r in reports.values()]
        assert max(vals) / min(vals) <= 2.0

    def test_sweep_slope_and_plateau(self, setup96):
        sy = setup96.system
        dts = [2.0 ** (-e) for e in range(4, 25)]
        kb = [dg.condition_number(sy, dt, stabilized_time=False) for dt in dts]
        kbs = [dg.condition_number(sy, dt, stabilized_time=True) for dt in dts]
        slope = np.polyfit(np.log(dts[-4:]), np.log(kb[-4:]), 1)[0]
        assert abs(slope + 1.0) <= 0.15
        h2 = setup96.mesh.h ** 2
        plateau = [k for d, k in zip(dts, kbs) if d <= h2]
        assert max(plateau) / min(plateau) <= 10.0

    def test_plateau_and_blowup_at_h2(self, setup96):
        sy = setup96.system
        h2 = setup96.mesh.h ** 2
        stab = [dg.condition_number(sy, dt, True) for dt in (h2 / 4, h2 / 400)]
        unstab = [dg.condition_number(sy, dt, False) for dt in (h2 / 4, h2 / 400)]
        assert max(stab) / min(stab) <= 3.0
        assert unstab[1] / unstab[0] >= 20.0

    def test_literal_forms_run(self, setup48):
        sy = setup48.system
        a = dg.condition_number(sy, 1e-3, True, literal=True)
        b = dg.condition_number(sy, 1e-3, False, literal=True)
        assert a > 1.0 and b > 1.0

    def test_invalid_dt(self, setup48):
        with pytest.raises(ValueError):
            dg.condition_number(setup48.system, 0.0)


def test_s0_contrast():
    # The ghost-penalty S0 is what makes the mass matrix well conditioned
    # whatever the cut (Grande, Lehrenfeld & Reusken, SINUM 56, 2018): at
    # n_cells 48, eight centres within one cell of the origin give
    # kappa(M) from 3.0e5 to 3.3e9 but kappa(M + S0) from 41.5 to 47.5.
    # Dense eigenvalues: the shift-invert LU solves of kappa(M) miss the
    # 1e-12 residual rule of diagnostics._kappa.
    import scipy.linalg as sla
    from tracefem.assembly import assemble
    from tracefem.cli import _DEFAULTS, cut
    h = 3.0 / 48
    kappa = []
    for c in np.random.default_rng(0).uniform(-h, h, (8, 2)):
        _, _, mesh, topo = cut(dict(_DEFAULTS, center=list(c)), 48)
        system = assemble(mesh, topo)
        lams = [sla.eigvalsh(m.toarray()) for m in (system.M, system.M_star)]
        kappa.append([lam[-1] / lam[0] for lam in lams])
    k_m, k_mstar = np.array(kappa).T
    assert k_m.min() >= 1e5 and k_m.max() / k_m.min() >= 1e3
    assert 40.0 <= k_mstar.min() and k_mstar.max() <= 50.0


class TestMaxRegularity:
    def test_zero_data(self, setup48):
        s = setup48
        hist = [np.zeros(s.system.n_dofs)] * 4
        assert max_regularity_ratio(s.ops, hist, 0.1) == 0.0

    def test_scale_invariance(self, decay_runs, ladder):
        s = ladder[48]
        cfg, hist, _ = decay_runs[48]
        u0 = lambda th: np.cos(th)
        r1 = max_regularity_ratio(s.ops, hist, cfg.dt, u0=u0)
        scaled = [5.0 * x for x in hist]
        u0s = lambda th: 5.0 * np.cos(th)
        r2 = max_regularity_ratio(s.ops, scaled, cfg.dt, u0=u0s)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_bounded_across_ladder(self, decay_runs, ladder):
        u0 = lambda th: np.cos(th)
        vals = []
        for n, s in ladder.items():
            cfg, hist, _ = decay_runs[n]
            vals.append(max_regularity_ratio(
                s.ops, hist, cfg.dt, u0=u0))
        assert max(vals) / min(vals) <= 2.0


def test_singular_matrix_detection(setup48):
    import scipy.sparse as sp
    sy = setup48.system
    # zero out the mass entirely: (1/dt) * 0 + A + S1 is singular.  Its
    # LU may succeed on a rounded pivot; the shift-invert solves then
    # miss the residual rule, a SolveFailure
    broken = dataclasses.replace(sy, M=sp.csr_matrix(sy.M.shape))
    try:
        kappa = dg.condition_number(broken, 1e-6, stabilized_time=False)
    except (SingularMatrix, SolveFailure):
        return
    # kernel may round to a tiny positive eigenvalue instead
    assert kappa > 1e12


def test_negative_diagonal_is_singular(setup48):
    # not positive definite, and no power of two scales it to 1
    with pytest.raises(SingularMatrix, match="largest diagonal entry"):
        dg.kappa_pstar(dataclasses.replace(
            setup48.system, M_star=-setup48.system.M_star))
