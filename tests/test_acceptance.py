"""Acceptance gate: every headline criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json

import numpy as np
import pytest

from tracefem import diagnostics as dg
from tracefem.cli import fit_rate
from tracefem.heatsolver import MANUFACTURED, HeatRun
from tracefem.operators import ONE

from helpers import max_regularity_ratio


def report(name, ok, detail=""):
    print("[%s] %s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def constants(ladder):
    return {n: dg.constants_report(s.ops, t_final=1.0, mesh_id="n%d" % n)
            for n, s in ladder.items()}


def test_criterion_1_projection_identities(setup96):
    s = setup96
    one_data = s.ops.riesz_data(np.ones_like, ONE)[0]
    x1 = s.ops.mstar.solve(one_data)
    res = np.linalg.norm(one_data - s.system.M_star @ x1)
    ok1 = res <= 1e-12 * np.linalg.norm(one_data) and np.abs(x1 - 1).max() <= 1e-10

    b_l = s.ops.riesz_data(np.sin, ONE)[0]
    b_v = s.ops.riesz_data(lambda th: np.cos(2 * th), ONE)[0]
    sym = abs(float(b_l @ s.ops.mstar.solve(b_v))
              - float(s.ops.mstar.solve(b_l) @ b_v))
    ok2 = sym <= 1e-11

    v = lambda th: np.cos(3 * th)
    x = s.ops.project(v, ONE)
    e_star = s.ops.error_l2_star(v, x, ONE)[0]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        comp = x + rng.standard_normal(x.shape[1]) * rng.uniform(0.01, 1.0)
        worst = max(worst, e_star - s.ops.error_l2_star(v, comp, ONE)[0])
    ok3 = worst <= 1e-12

    report("criterion 1: projection identities", ok1 and ok2 and ok3,
           "P_h1 residual %.2e, symmetry gap %.2e, best-approx excess %.2e"
           % (res, sym, worst))


def test_criterion_2_projection_rates(ladder):
    v = lambda th: np.cos(2 * th)
    dv = lambda th: -2.0 * np.sin(2 * th)
    h, e_l2, e_h1 = [], [], []
    for n in sorted(ladder):
        s = ladder[n]
        x = s.ops.project(v, ONE)
        h.append(s.mesh.h)
        e_l2.append(s.ops.error_l2_star(v, x, ONE)[0])
        e_h1.append(s.ops.error_h1_star(v, dv, x, ONE)[0])
    r_l2 = fit_rate(h, e_l2)
    r_h1 = fit_rate(h, e_h1)
    ok = abs(r_l2 - 2.0) <= 0.2 and abs(r_h1 - 1.0) <= 0.2
    report("criterion 2: projection rates", ok,
           "E_L2* rate %.3f (2 +- 0.2), E_H1* rate %.3f (1 +- 0.2)"
           % (r_l2, r_h1))


def test_criterion_3_uniform_stability(constants):
    norms = [c.norm_Ph_H1star for c in constants.values()]
    cinvs = [c.C_inv_h for c in constants.values()]
    vn = max(norms) / min(norms)
    vc = max(cinvs) / min(cinvs)
    ok = vn <= 2.0 and vc <= 2.0
    report("criterion 3: uniform stability", ok,
           "|P_h|_H1* variation %.3fx, C_inv,h variation %.3fx (<= 2x)"
           % (vn, vc))


def test_criterion_4_sandwiches(ladder, constants):
    slack = 1.02
    ok = True
    detail = []
    for n, s in ladder.items():
        c = constants[n]
        bound = c.norm_Ph_H1star + c.C_inv_h
        x = np.random.default_rng(7).standard_normal((50, s.mesh.n_dofs))
        lo = s.ops.dual_norm(x)
        hi = s.ops.hm1_star(x)
        if np.any((lo > hi * slack) | (hi > bound * lo * slack)):
            ok = False
        lam_ok = (c.norm_Ph_H1gamma <= c.inv_Lambda_h * slack
                  and c.inv_Lambda_h <= bound * slack
                  and c.Lambda_h <= 1.0 + 1e-9)
        ok = ok and lam_ok
        detail.append("n%d: Lambda_h=%.6f" % (n, c.Lambda_h))
    report("criterion 4: dual-norm and Lambda_h sandwiches", ok,
           "; ".join(detail))


def test_criterion_5_infsup_bounds(constants):
    lower, _ = dg.infsup_bounds(1.0, 1.0, 0.0, t_final=1.0)
    cb = lower   # with norm 1 and C_inv 0 this is exactly c_b^-(T=1)
    ok = abs(cb - 0.1178511302) <= 1e-9
    orderings = all(c.c_star_lower <= c.c_star_upper
                    for c in constants.values())
    report("criterion 5: inf-sup bounds", ok and orderings,
           "c_b^-(T=1) = %.10f, lower <= upper on all meshes: %s"
           % (cb, orderings))


def test_criterion_6_condition_numbers(ladder, constants):
    s = ladder[96]
    dts = [2.0 ** (-e) for e in range(4, 25)]
    kb = [dg.condition_number(s.system, dt, stabilized_time=False)
          for dt in dts]
    kbs = [dg.condition_number(s.system, dt, stabilized_time=True)
           for dt in dts]
    slope = float(np.polyfit(np.log(dts[-4:]), np.log(kb[-4:]), 1)[0])
    h2 = s.mesh.h ** 2
    plateau = [k for d, k in zip(dts, kbs) if d <= h2]
    ratio = max(plateau) / min(plateau)
    kp = [c.kappa_Pstar for c in constants.values()]
    vp = max(kp) / min(kp)
    ok = abs(slope + 1.0) <= 0.15 and ratio <= 10.0 and vp <= 2.0
    report("criterion 6: condition numbers", ok,
           "kappa(B) slope %.3f (-1 +- 0.15), kappa(B*) plateau %.2fx "
           "(<= 10), kappa(P*) variation %.2fx (<= 2)" % (slope, ratio, vp))


def test_criterion_7_parabolic_rates(ladder, decay_runs):
    recs = [decay_runs[n][2] for n in sorted(decay_runs)]
    h = [ladder[n].mesh.h for n in sorted(decay_runs)]
    e_tot = [rec.e_total for rec in recs]
    e_l2 = [rec.e_l2l2 for rec in recs]
    r_tot = fit_rate(h, e_tot)
    r_l2 = fit_rate(h, e_l2)
    mono = (all(a > b for a, b in zip(e_tot, e_tot[1:]))
            and all(a > b for a, b in zip(e_l2, e_l2[1:])))
    ok = r_tot >= 0.9 and r_l2 >= 0.9 and mono
    report("criterion 7: parabolic rates", ok,
           "E rate %.3f (>= 0.9), L2L2 rate %.3f (>= 0.9), monotone: %s"
           % (r_tot, r_l2, mono))


def test_criterion_8_max_regularity(ladder, decay_runs):
    u0 = lambda th: np.cos(th)
    vals = []
    for n, s in ladder.items():
        cfg, hist, _ = decay_runs[n]
        vals.append(max_regularity_ratio(s.ops, hist, cfg.dt, u0=u0))
    var = max(vals) / min(vals)
    ok = var <= 2.0
    report("criterion 8: maximal parabolic regularity", ok,
           "C_MPR ratios %s, variation %.3fx (<= 2)"
           % (", ".join("%.4f" % v for v in vals), var))


def test_criterion_9_dissipation_conservation(setup48, trajectory):
    s = setup48
    h = s.mesh.h
    m_one = s.system.M @ np.ones(s.system.n_dofs)
    ok = True
    for dt in (h * h, h, 1.0):
        cfg = HeatRun(manufactured=MANUFACTURED["decaying_mode"](1.0),
                      dt=dt, t_final=max(4 * dt, 0.1))
        _, hist = trajectory(s.ops, cfg)
        l2_star = s.ops.l2_star(hist)
        mean = hist @ m_one
        if np.diff(l2_star).max() > 1e-12 * l2_star[0]:
            ok = False
        drift = np.abs(mean - mean[0]).max()
        if drift > 1e-11 * max(np.abs(mean).max(), 2 * np.pi):
            ok = False
    report("criterion 9: dissipation and mass conservation", ok,
           "dt in {h^2, h, 1}")


def test_criterion_10_determinism(tmp_path):
    from tracefem.cli import EXIT_OK, main
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(
        {"n_cells": [16], "k_max": 32, "n_random": 5}))
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["diagnose", "--config", str(cfg_path),
                     "--out", str(out), "--seed", "123"])
        assert code == EXIT_OK
        payloads.append((out / "diagnose.csv").read_bytes())
    ok = payloads[0] == payloads[1]
    report("criterion 10: determinism", ok,
           "byte-identical CSV on rerun")
