"""The Lanczos accuracy contract, its work, and cut independence.

Every n_dofs-sized eigenvalue comes from ``eigsh`` at the relative
tolerance ``LIMITS["lanczos_tol"]`` with at most ``diagnostics.MAXITER``
restarts.  A stand-in for ``eigsh`` here swaps the start vector and
counts operator applications: the products with the matrix (or the
pencil's left-hand side), or the solves of shift-invert.  Three start
vectors give the same kappa over the shipped dt sweep within a bounded
number of applications per call, and ``dtsweep`` and ``diagnose`` stay
within fixed work budgets, which catch a slowdown of this layer that
host noise would hide from a clock.  A restart cap of one makes real
ARPACK fail, and the CLI reports it in one line.  A wrong or NaN top
pair of the projection pencil, which LAPACK solves, fails its
matrix-free residual check.  The constants the paper claims are
independent of the cut stay within the criterion-3 band over random
placements of the circle.
"""

import json
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from tracefem import diagnostics as dg
from tracefem.cli import EXIT_NUMERICAL, EXIT_OK, Pipeline, main
from tracefem.errors import EigFailure

from conftest import CONFIG

DTSWEEP_JSON = pathlib.Path(__file__).resolve().parents[1] / "configs" / \
    "dtsweep.json"

DTS = [2.0 ** (-e) for e in range(4, 25)]     # the shipped dtsweep list
# most operator applications one call took over three starts: 81
CALL_BUDGET = 120
# operator applications of the whole run; at ARPACK's default tol=0
# (machine precision) dtsweep takes 7,916 and diagnose on n=48/96 takes
# 498, 8,414 together; the budgets sum to 4,400 (52 %)
DTSWEEP_BUDGET = 4_000      # measured 3,726
DIAGNOSE_BUDGET = 400       # measured 358


def counting_eigsh(counts, seed=None):
    """eigsh that appends each call's operator applications to counts
    and, given a seed, starts from default_rng(seed) instead."""
    eigsh = spla.eigsh

    def counted(op, calls):
        op = spla.aslinearoperator(op)

        def matvec(x):
            calls[0] += 1
            return op.matvec(x)
        return spla.LinearOperator(op.shape, matvec=matvec, dtype=float)

    def stand_in(a, k=6, M=None, sigma=None, v0=None, OPinv=None, **kw):
        calls = [0]
        if sigma is None:
            a = counted(a, calls)
        else:
            OPinv = counted(OPinv, calls)
        if seed is not None:
            v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, a.shape[0])
        try:
            return eigsh(a, k=k, M=M, sigma=sigma, v0=v0, OPinv=OPinv, **kw)
        finally:
            counts.append(calls[0])
    return stand_in


def sweep(system):
    return [dg.condition_number(system, dt, stabilized_time=st)
            for dt in DTS for st in (False, True)]


def test_start_vector_independence(setup96, monkeypatch):
    kappas = {}
    for seed in (0, 1, 2):
        counts = []
        monkeypatch.setattr(spla, "eigsh", counting_eigsh(counts, seed))
        kappas[seed] = sweep(setup96.system)
        assert len(counts) == 2 * len(DTS) * 2
        assert max(counts) <= CALL_BUDGET, seed
    # the shipped start is default_rng(0)'s vector
    monkeypatch.undo()
    assert sweep(setup96.system) == kappas[0]
    for seed in (1, 2):
        assert kappas[seed] == pytest.approx(kappas[0], rel=1e-12), seed


def test_dtsweep_work_budget(tmp_path, monkeypatch):
    counts = []
    monkeypatch.setattr(spla, "eigsh", counting_eigsh(counts))
    assert main(["dtsweep", "--config", str(DTSWEEP_JSON),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert len(counts) == 2 * (2 * len(DTS) + 1)
    assert sum(counts) <= DTSWEEP_BUDGET


def test_diagnose_work_budget(ladder, monkeypatch):
    counts = []
    monkeypatch.setattr(spla, "eigsh", counting_eigsh(counts))
    for n in (48, 96):
        dg.constants_report(ladder[n].ops)
    assert len(counts) == 2 * 4
    assert sum(counts) <= DIAGNOSE_BUDGET


def test_restart_cap_raises(setup48, monkeypatch):
    monkeypatch.setattr(dg, "MAXITER", 1)
    with pytest.raises(EigFailure, match="^Lanczos: ARPACK error -1: "
                                         "No convergence"):
        dg.kappa_pstar(setup48.system)


@pytest.mark.parametrize("lam", [2.0, np.nan])
def test_pair_residual_rejects_a_wrong_or_nan_pair(lam):
    # the residual of (lam, e1) in the pencil (I, I) is |1 - lam|: a wrong
    # value misses LIMITS["pair_residual"], and so does a NaN
    eye = np.eye(3)
    with pytest.raises(EigFailure, match="residual"):
        dg._check_pair(lam, eye[0], eye, eye)


@pytest.mark.parametrize("wrong", ["second", "nan"])
def test_projection_pair_is_checked_matrix_free(off_centre96, monkeypatch,
                                                wrong):
    # LAPACK overwrites the projection pencil's buffer, so op_norms_ph
    # checks the top pair against Bs' Q Bs applied matrix-free: the top
    # value with the second eigenvector, or with a NaN vector, fails.  Off
    # the centre the top two values lie 1.4e-3 apart (relative); on the
    # centred circle at n=48 they lie 3e-8 apart, too close to the
    # residual rule's 1e-8 for a wrong vector to fail surely
    eigh = sla.eigh

    def wrong_pair(a, subset_by_index, **kwargs):
        top = subset_by_index[1]
        w, v = eigh(a, subset_by_index=[top - 1, top], **kwargs)
        x = v[:, :1] if wrong == "second" else np.full((len(a), 1), np.nan)
        return w[1:], x

    monkeypatch.setattr(sla, "eigh", wrong_pair)
    with pytest.raises(EigFailure, match="residual"):
        dg.op_norms_ph(off_centre96.ops)


def test_restart_cap_fails_dtsweep_in_one_line(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(dg, "MAXITER", 1)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_cells": [16], "dt_list": [1e-3]}))
    assert main(["dtsweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: Lanczos: ARPACK error -1: ")


H48 = (CONFIG["bbox"][1] - CONFIG["bbox"][0]) / 48


def cut_constants(center, radius, n):
    ops = Pipeline(dict(CONFIG, center=center, radius=radius), n).ops
    return (dg.op_norms_ph(ops)[1], dg.c_inv_h(ops),
            dg.kappa_pstar(ops.system))


@settings(max_examples=15)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.25, 1.2))
def test_cut_independence_property(fx, fy, radius):
    # the centre anywhere in one n=48 cell, so every cut differs
    center = (fx * H48, fy * H48)
    vals = np.array([cut_constants(center, radius, n) for n in (48, 96)])
    # ||P_h||_H1*, C_inv,h and kappa(M_*): criterion 3
    assert np.all(vals.max(axis=0) / vals.min(axis=0) <= 2.0)
