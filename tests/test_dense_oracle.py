"""The eigen-diagnostics against the full-spectrum reference routes.

``old_gen_eig_max`` takes the top pair of a full generalized ``eigh``
with every eigenvector, ``old_op_norms_ph`` rescales the projection
pencil by H1_gram^-1/2 by hand and takes ``eigvalsh``, and C_inv,h and
Lambda_h each form their own dual-norm Gram.  Every constant of the
report must match them within 1e-8 relative, the bound the benchmark
gates eigen-derived constants with; kappa(P*) runs the same arithmetic
and must be identical.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg as sla

from tracefem import diagnostics as dg

RTOL = 1e-8


def old_gen_eig_max(lhs, rhs):
    w, v = sla.eigh(lhs, rhs)
    lam = float(w[-1])
    dg._check_pair(lam, v[:, -1], lhs, rhs)
    return lam


def old_op_norms_ph(operators, probe):
    system = operators.system
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


def old_c_inv_h(operators):
    lam = old_gen_eig_max(dg._dense(operators.system.D),
                          dg._dual_gram(operators))
    return float(np.sqrt(max(lam, 0.0)))


def old_lambda_h(operators, probe):
    g = probe.G
    h = g @ (probe.Hm1_gram[:, None] * g.T)
    h = h + operators.system.S[-1].toarray()
    lam = old_gen_eig_max(0.5 * (h + h.T), dg._dual_gram(operators))
    inv = float(np.sqrt(max(lam, 0.0)))
    return 1.0 / inv, inv


def old_kappa_pstar(system):
    w = sla.eigvalsh(dg._dense(system.M_star))
    return float(w[-1] / w[0])


def old_report(operators, probe, t_final, mesh_id):
    system = operators.system
    g_norm, s_norm = old_op_norms_ph(operators, probe)
    c_inv = old_c_inv_h(operators)
    lam, inv_lam = old_lambda_h(operators, probe)
    lower, upper = dg.infsup_bounds(s_norm, g_norm, c_inv, t_final)
    return dg.ConstantsReport(
        mesh_id=mesh_id, h=system.mesh.h, n_dofs=system.n_dofs,
        k_max=probe.k_max, norm_Ph_H1gamma=g_norm, norm_Ph_H1star=s_norm,
        C_inv_h=c_inv, Lambda_h=lam, inv_Lambda_h=inv_lam,
        c_star_lower=lower, c_star_upper=upper,
        kappa_Pstar=old_kappa_pstar(system))


@pytest.mark.parametrize("n", [48, 96])
def test_report_matches_full_spectrum_routes(ladder, n):
    s = ladder[n]
    new = dg.constants_report(s.ops, t_final=1.0, mesh_id="n%d" % n)
    old = old_report(s.ops, s.probe, 1.0, "n%d" % n)
    for name in (f.name for f in fields(dg.ConstantsReport)):
        a, b = getattr(new, name), getattr(old, name)
        if isinstance(b, (str, int)) or name == "kappa_Pstar":
            assert a == b, name
        elif math.isnan(b):
            assert math.isnan(a), name
        else:
            assert a == pytest.approx(b, rel=RTOL), name


def test_dual_gram_formed_once_per_report(setup48, monkeypatch):
    calls = []
    real = dg._dual_gram

    def counted(operators):
        calls.append(operators)
        return real(operators)

    monkeypatch.setattr(dg, "_dual_gram", counted)
    dg.constants_report(setup48.ops)
    assert len(calls) == 1
