"""The eigen-diagnostics against dense full-spectrum LAPACK routes.

The package finds every n_dofs-sized eigenvalue by Lanczos through the
sparse LUs.  Here the same constants come from dense matrices:
``dense_top_eig`` takes the top pair of a full generalized ``eigh``,
``dense_op_norms_ph`` rescales the projection pencil by H1_gram^-1/2
by hand and takes ``eigvalsh``, C_inv,h and Lambda_h each form the
dense dual-norm Gram N = M_* K_*^-1 M_*, and each kappa is the ratio of
the ends of the full ``eigvalsh`` spectrum.  Every constant of the
report, on the ladder and on an off-centre circle, and every condition
number of the 21-dt sweep must match within 1e-8 relative, the bound the
benchmark gates eigen-derived constants with; the non-literal ones also
match the spectrum of the matrix the heat stepper factors.  At dt down
to 1e-200,
where M/dt swamps A + S1, kappa(B) and kappa(B_*) match the dense
spectrum within 1e-11.  A memory guard keeps the dense route out of the
package.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg as sla

from tracefem import diagnostics as dg
from tracefem.cli import Pipeline
from tracefem.heatsolver import HeatStepper

from conftest import CONFIG
from helpers import traced_peak

RTOL = 1e-8
DTS = [2.0 ** (-e) for e in range(4, 25)]     # the shipped dtsweep list


def dense(mat):
    m = mat.toarray()
    return 0.5 * (m + m.T)


def dense_dual_gram(operators):
    mstar = dense(operators.system.M_star)
    n = mstar @ operators.kstar.solve(mstar)
    return 0.5 * (n + n.T)


def dense_top_eig(lhs, rhs):
    w, v = sla.eigh(lhs, rhs)
    lam = float(w[-1])
    dg._check_pair(lam, v[:, -1], lhs, rhs)
    return lam


def dense_kappa(mat):
    w = sla.eigvalsh(dense(mat))
    return float(w[-1] / w[0])


def dense_op_norms_ph(operators):
    system, probe = operators.system, operators.probe
    bmat = operators.mstar.solve(probe.G)
    w = 1.0 / np.sqrt(probe.H1_gram)
    out = []
    for q in (system.M + system.A, system.K_star):
        c = bmat.T @ (q.toarray() @ bmat)
        c = 0.5 * (c + c.T)
        scaled = w[:, None] * c * w[None, :]
        lam = float(sla.eigvalsh(scaled)[-1])
        out.append(float(np.sqrt(max(lam, 0.0))))
    return out[0], out[1]


def dense_c_inv_h(operators):
    lam = dense_top_eig(dense(operators.system.D), dense_dual_gram(operators))
    return float(np.sqrt(max(lam, 0.0)))


def dense_lambda_h(operators):
    g, probe = operators.probe.G, operators.probe
    h = g @ (probe.Hm1_gram[:, None] * g.T)
    h = h + operators.system.S[-1].toarray()
    lam = dense_top_eig(0.5 * (h + h.T), dense_dual_gram(operators))
    inv = float(np.sqrt(max(lam, 0.0)))
    return 1.0 / inv, inv


def dense_report(operators, t_final, mesh_id):
    system = operators.system
    g_norm, s_norm = dense_op_norms_ph(operators)
    c_inv = dense_c_inv_h(operators)
    lam, inv_lam = dense_lambda_h(operators)
    lower, upper = dg.infsup_bounds(s_norm, g_norm, c_inv, t_final)
    return dg.ConstantsReport(
        mesh_id=mesh_id, h=system.mesh.h, n_dofs=system.n_dofs,
        k_max=operators.probe.k_max, norm_Ph_H1gamma=g_norm,
        norm_Ph_H1star=s_norm, C_inv_h=c_inv, Lambda_h=lam,
        inv_Lambda_h=inv_lam, c_star_lower=lower, c_star_upper=upper,
        kappa_Pstar=dense_kappa(system.M_star))


@pytest.mark.parametrize("n", [48, 96, 192, "off_centre96"])
def test_report_matches_full_spectrum_routes(ladder, off_centre96, n):
    ops = off_centre96.ops if n == "off_centre96" else ladder[n].ops
    new = dg.constants_report(ops, t_final=1.0, mesh_id=str(n))
    old = dense_report(ops, 1.0, str(n))
    for name in (f.name for f in fields(dg.ConstantsReport)):
        a, b = getattr(new, name), getattr(old, name)
        if isinstance(b, (str, int)):
            assert a == b, name
        elif math.isnan(b):
            assert math.isnan(a), name
        else:
            assert a == pytest.approx(b, rel=RTOL), name


@pytest.mark.parametrize("stabilized_time,literal",
                         [(False, False), (True, False),
                          (False, True), (True, True)])
def test_condition_numbers_match_dense(setup96, monkeypatch,
                                      stabilized_time, literal):
    sy = setup96.system
    got = [dg.condition_number(sy, dt, stabilized_time, literal=literal)
           for dt in DTS]
    if not literal:
        # kappa of the backward Euler matrix the heat stepper factors
        factored = [dense_kappa(HeatStepper(setup96.ops, "BDF1", dt,
                                            stabilized_time).factor.mat)
                    for dt in DTS]
        assert got == pytest.approx(factored, rel=RTOL)
    # the same one-step matrices, through the dense spectrum
    monkeypatch.setattr(dg, "_kappa", lambda mat, what: dense_kappa(mat))
    want = [dg.condition_number(sy, dt, stabilized_time, literal=literal)
            for dt in DTS]
    assert got == pytest.approx(want, rel=RTOL)


@pytest.fixture(scope="module")
def setup16():
    return Pipeline(CONFIG, 16)


@pytest.mark.parametrize("dt", [1e-20, 1e-50, 1e-200])
@pytest.mark.parametrize("stabilized_time", [False, True])
def test_tiny_dt_matches_dense(setup16, monkeypatch, dt, stabilized_time):
    # M/dt swamps A + S1; without the scaling in _kappa, 1/lambda_min
    # lies below ARPACK's absolute floor eps^(2/3), and kappa(B_*) comes
    # out 1.7e-7 off
    sy = setup16.system
    got = dg.condition_number(sy, dt, stabilized_time)
    monkeypatch.setattr(dg, "_kappa", lambda mat, what: dense_kappa(mat))
    want = dg.condition_number(sy, dt, stabilized_time)
    assert got == pytest.approx(want, rel=1e-11)


def test_tiny_dt_stabilized_is_kappa_pstar(setup16):
    sy = setup16.system
    assert dg.condition_number(sy, 1e-50, True) == \
        pytest.approx(dg.kappa_pstar(sy), rel=1e-11)


def test_report_memory_stays_below_dense(setup192):
    # the dense route holds several 878 x 878 arrays at once (29.7 MB
    # peak).  The Lanczos route peaks in op_norms_ph.  Besides the probe's
    # G (878 x 257, built before tracing starts) it holds the scaled
    # projections Bs = M_*^-1 G H1_gram^-1/2 (1.7 MiB), one 257 x 257
    # pencil buffer (0.5 MiB) and block-sized temporaries: 2.8 MiB
    # measured.  A dense H1 Gram, a second pencil and their symmetrized
    # copies took it to 3.9 MiB, which the bound rejects.  The probe and
    # the LU of K_* are read first, so the peak does not depend on test
    # order.
    setup192.ops.probe, setup192.ops.kstar
    peak = traced_peak(lambda: dg.constants_report(setup192.ops))[0]
    assert peak < 3.25 * 2 ** 20, "peak %.2f MiB" % (peak / 2 ** 20)
