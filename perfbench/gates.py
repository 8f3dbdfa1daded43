"""Correctness gates: every output value is checked before a run counts.

``quadcheck`` output is held to quadcheck's own acceptance thresholds (the
circle center is seed-drawn, so there is no fixed reference).  The outputs
of ``converge``, ``heat``, ``diagnose`` and ``dtsweep`` are compared value
by value with references recorded from the seed commit, column by column:

* grid columns (``h``, ``dt``, ``t``): 1e-14 relative;
* error functionals and norms: 1e-10 relative;
* eigenvalue-derived constants (norms of P_h, C_inv,h, Lambda_h, kappa):
  1e-8 relative;
* ``heat`` ``mean``: 1e-10 absolute, because the exact mean is 0 and the
  recorded values are round-off (below 2e-13);
* integers, labels, pass flags and NaN placeholders: exact.

On top of the references, ``converge`` needs both parabolic rates >= 0.9
(acceptance criterion 7) and ``diagnose`` needs ``sandwich_pass`` and
``lambda_pass`` equal to 1.
"""

from __future__ import annotations

import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

GRID = ("rel", 1e-14)
ERR = ("rel", 1e-10)
EIG = ("rel", 1e-8)
EXACT = ("exact", 0.0)

TOLERANCES = {
    "converge.csv": {"n_cells": EXACT, "h": GRID, "dt": GRID, "e_total": ERR,
                     "e_l2l2": ERR, "e_l2_initial": ERR, "proj_l2_star": ERR},
    "converge_rates.csv": {"rate_e_total": ERR, "rate_e_l2l2": ERR,
                           "rate_proj_l2_star": ERR, "dt_rule": EXACT},
    "diagnose.csv": {"mesh_id": EXACT, "h": GRID, "n_dofs": EXACT,
                     "k_max": EXACT, "norm_Ph_H1gamma": EIG,
                     "norm_Ph_H1star": EIG, "C_inv_h": EIG, "Lambda_h": EIG,
                     "inv_Lambda_h": EIG, "c_star_lower": EIG,
                     "c_star_upper": EIG, "kappa_Pstar": EIG,
                     "C_MPR_ratio": EXACT, "sandwich_pass": EXACT,
                     "lambda_pass": EXACT},
    "dtsweep.csv": {"dt": GRID, "kappa_B": EIG, "kappa_Bstar": EIG},
    "heat.csv": {"t": GRID, "l2_star": ERR, "mean": ("abs", 1e-10),
                 "e_l2_star": ERR},
}

REFERENCE_FILES = {
    "converge": ("converge.csv", "converge_rates.csv"),
    "diagnose": ("diagnose.csv",),
    "dtsweep": ("dtsweep.csv",),
    "heat": ("heat.csv",),
}

# quadcheck's own thresholds (cli.cmd_quadcheck)
QUADCHECK_LIMITS = {"rel_err": 1e-10, "cover_defect": 1e-10,
                    "spectral_selftest": 1e-11}


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _value_ok(got, ref, tol):
    kind, limit = tol
    if kind == "exact":
        return got == ref
    g, r = float(got), float(ref)
    if math.isnan(r):
        return math.isnan(g)
    if kind == "abs":
        return abs(g - r) <= limit
    return abs(g - r) <= limit * abs(r)


def compare_csv(path, ref_path, tolerances):
    """Problems found comparing a CSV with its reference (empty when equal)."""
    if not os.path.isfile(path):
        return ["missing output %s" % os.path.basename(path)]
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    name = os.path.basename(path)
    if header != ref_header:
        return ["%s: header %s != %s" % (name, header, ref_header)]
    if len(rows) != len(ref_rows):
        return ["%s: %d rows, reference has %d" % (name, len(rows), len(ref_rows))]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(header):
            problems.append("%s row %d: %d fields" % (name, i, len(row)))
            continue
        for col, got, want in zip(header, row, ref):
            try:
                ok = _value_ok(got, want, tolerances[col])
            except ValueError:
                ok = False
            if not ok:
                problems.append("%s row %d %s: %s, reference %s"
                                % (name, i, col, got, want))
    return problems


def check_quadcheck(out_dir, ladder):
    path = os.path.join(out_dir, "quadcheck.csv")
    if not os.path.isfile(path):
        return ["missing output quadcheck.csv"]
    header, rows = read_csv(path)
    got = [int(r[header.index("n_cells")]) for r in rows]
    if got != list(ladder):
        return ["quadcheck.csv: rungs %s, expected %s" % (got, list(ladder))]
    problems = []
    for row in rows:
        for col, limit in QUADCHECK_LIMITS.items():
            v = float(row[header.index(col)])
            if not v <= limit:
                problems.append("quadcheck n=%s: %s=%s above %g"
                                % (row[0], col, v, limit))
    return problems


def check_outputs(out_dir, subcommands, ladder=None,
                  reference_dir=REFERENCE_DIR):
    """All gate problems of the outputs the subcommands wrote (empty if none)."""
    problems = []
    for sub in subcommands:
        if sub == "quadcheck":
            problems += check_quadcheck(out_dir, ladder)
            continue
        found = []
        for name in REFERENCE_FILES[sub]:
            found += compare_csv(os.path.join(out_dir, name),
                                 os.path.join(reference_dir, name),
                                 TOLERANCES[name])
        if not found and sub == "converge":
            header, rows = read_csv(os.path.join(out_dir, "converge_rates.csv"))
            for col in ("rate_e_total", "rate_e_l2l2"):
                if not float(rows[0][header.index(col)]) >= 0.9:
                    found.append("converge %s below 0.9" % col)
        if not found and sub == "diagnose":
            header, rows = read_csv(os.path.join(out_dir, "diagnose.csv"))
            for row in rows:
                for col in ("sandwich_pass", "lambda_pass"):
                    if row[header.index(col)] != "1":
                        found.append("diagnose %s: %s != 1" % (row[0], col))
        problems += found
    return problems
