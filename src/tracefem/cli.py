"""Experiment runner: config parsing, orchestration, bit-stable CSV.

Subcommands: quadcheck, project, heat, diagnose, dtsweep, converge.
Each config key has one row (default, check, requirement) in ``_KEYS``;
a flag sets the key it names and is checked by the same row.  Only
``main`` turns a failure into an exit code, with one line on stderr:
1 numerical failure or failed audit, 2 assumption violation, 64 config
or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import diagnostics as dg
from .assembly import assemble, assemble_fourier, export_matrices
from .cutquad import arc_cover_defect, build_topology, oscillation_order
from .errors import (AssumptionViolation, AuditFailure, InvalidConfig,
                     TraceFemError)
from .geometry import LevelSetSurface, check_resolution
from .heatsolver import (MANUFACTURED, SCHEMES, HeatRun, accumulate_errors,
                         blockwise, run, time_grid)
from .mesh import build_background, select_active, write_vtk
from .operators import DiscreteOperators

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_ASSUMPTION = 2
EXIT_CONFIG = 64


def _is(*kinds, test=lambda v: True):
    # type() and not isinstance(): JSON true/false must not pass as 1/0
    return lambda v: type(v) in kinds and test(v)


def _list_of(check, size=None):
    return _is(list, test=lambda v: v != [] and size in (None, len(v))
               and all(map(check, v)))


_number = _is(int, float, test=lambda v: abs(v) < np.inf)
_positive = _is(int, float, test=lambda v: 0 < v < np.inf)
_count = _is(int, test=lambda v: v >= 0)
_positive_int = _is(int, test=lambda v: v >= 1)
_KEYS = {   # key: (default, check, requirement)
    "center": ([0.0, 0.0], _list_of(_number, 2), "two numbers"),
    "radius": (1.0, _positive, "a positive number"),
    "bbox": ([-1.5, 1.5], lambda v: _list_of(_number, 2)(v) and v[0] < v[1],
             "two numbers lo < hi"),
    "n_cells": ([48, 96, 192], _list_of(_positive_int),
                "a non-empty list of integers >= 1"),
    "k_max": (128, _positive_int, "an integer >= 1"),
    "q_surf": (10, _positive_int, "an integer >= 1"),
    "scheme": ("BDF1", _is(str, test=lambda v: v in SCHEMES),
               "one of " + ", ".join(SCHEMES)),
    "dt_rule": ("h2/4", lambda v: v == "h2/4" or _positive(v),
                "'h2/4' or a positive number"),
    "dt_list": (None, lambda v: v is None or _list_of(_positive)(v),
                "null or a non-empty list of positive numbers"),
    "t_final": (0.25, _positive, "a positive number"),
    "T_infsup": (1.0, _positive, "a positive number"),
    "data": ("decaying_mode", _is(str, test=lambda v: v in MANUFACTURED),
             "one of " + ", ".join(sorted(MANUFACTURED))),
    "stabilized_time_derivative": (True, _is(bool), "true or false"),
    "literal_eq_matrices": (False, _is(bool), "true or false"),
    "c_res": (0.5, _positive, "a positive number"),
    "n_random": (50, _count, "an integer >= 0"),
    "vtk_every": (0, _count, "an integer >= 0"),
    "export_matrices": (False, _is(bool), "true or false"),
    "out": (".", _is(str), "a string"),
    "seed": (0, _count, "an integer >= 0"),
}
_DEFAULTS = {key: row[0] for key, row in _KEYS.items()}


def fmt(x):
    """Fixed 17-significant-digit float formatting for CSV stability."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    if isinstance(x, str):
        return x
    return "%.17g" % x


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_dat(path, header, rows):
    """gnuplot-friendly mirror: whitespace-separated, '#' header."""
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


def load_config(path, overrides=None):
    """The JSON config at path, with the flag values in overrides put
    over it and the defaults under it, each key checked by its row."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidConfig("cannot read config %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise InvalidConfig("config root must be a JSON object")
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise InvalidConfig("unknown config keys: %s" % ", ".join(unknown))
    cfg = {**_DEFAULTS, **raw, **(overrides or {})}
    for key, (_, check, requirement) in _KEYS.items():
        if not check(cfg[key]):
            raise InvalidConfig("%s must be %s" % (key, requirement))
    return cfg


def fit_rate(h, e):
    """Least-squares slope of log(e) against log(h)."""
    if len(h) < 3:
        raise InvalidConfig("rate fit needs at least 3 meshes")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


class Pipeline:
    """Mesh/cut/assembly/operators bundle for one mesh size.

    Raises AssumptionViolation, before anything is cut or assembled,
    when an active element does not resolve the curvature.
    """

    def __init__(self, cfg, n_cells, need_probe=True):
        self.surface = LevelSetSurface.circle(cfg["center"], cfg["radius"])
        self.background = build_background(cfg["bbox"], n_cells)
        self.mesh = select_active(self.background, self.surface)
        check_resolution(self.surface, self.mesh, cfg["c_res"])
        q = oscillation_order(cfg["k_max"], self.mesh.h, self.surface.radius,
                              cfg["q_surf"])
        self.topology = build_topology(self.surface, self.mesh, q_surf=q)
        self.system = assemble(self.mesh, self.topology)
        self.probe = assemble_fourier(self.topology, cfg["k_max"]) \
            if need_probe else None
        self.ops = DiscreteOperators(self.system, self.probe)


def _heat_run(cfg, pipe, man):
    """The configured run of the manufactured solution man on pipe's mesh."""
    rule = cfg["dt_rule"]
    dt = pipe.background.h_global ** 2 / 4.0 if rule == "h2/4" else float(rule)
    return HeatRun(scheme=cfg["scheme"], dt=dt, t_final=cfg["t_final"],
                   stabilized_time_derivative=cfg["stabilized_time_derivative"],
                   u0=lambda th: man.value(th, 0.0), f=man.forcing,
                   manufactured=man)


def cmd_quadcheck(cfg, out):
    hdr = ["n_cells", "h", "n_active", "n_dofs", "arc_length", "rel_err",
           "cover_defect", "max_arcs_per_element", "spectral_selftest"]
    rows = []
    for n in cfg["n_cells"]:
        pipe = Pipeline(cfg, n, need_probe=False)
        topo = pipe.topology
        length = topo.total_length
        exact = 2.0 * np.pi * cfg["radius"]
        rel = abs(length - exact) / exact
        defect = arc_cover_defect(topo)
        max_arcs = int(np.diff(topo.elem_ptr).max()) // topo.q_surf
        # self-test: q and q+4 Gauss points on each arc must agree on
        # oscillatory integrals int cos(k theta), k <= 64
        topo2 = build_topology(pipe.surface, pipe.mesh, q_surf=topo.q_surf + 4)
        spec_diff = max(abs(topo.w @ np.cos(k * topo.theta)
                            - topo2.w @ np.cos(k * topo2.theta))
                        for k in (1, 8, 32, 64))
        rows.append([n, pipe.mesh.h, len(pipe.mesh.active), pipe.mesh.n_dofs,
                     length, rel, defect, max_arcs, float(spec_diff)])
        failed = ["%s %.2g > %g" % (name, v, tol) for name, v, tol in (
            ("rel_err", rel, 1e-10), ("cover_defect", defect, 1e-10),
            ("spectral_selftest", spec_diff, 1e-11)) if v > tol]
        if failed:
            break
    write_csv(os.path.join(out, "quadcheck.csv"), hdr, rows)
    if failed:
        raise AuditFailure("quadcheck at n_cells=%d: %s"
                           % (n, ", ".join(failed)))
    return EXIT_OK


def cmd_project(cfg, out):
    man = MANUFACTURED[cfg["data"]]
    hdr = ["n_cells", "h", "n_dofs", "e_l2_star", "e_h1_star"]
    rows = []
    for n in cfg["n_cells"]:
        pipe = Pipeline(cfg, n)
        x = pipe.ops.project(man.value, 0.0)
        el2 = pipe.ops.error_l2_star(man.value, x, 0.0)
        eh1 = pipe.ops.error_h1_star(man.value, man.dtheta, x, 0.0)
        rows.append([n, pipe.mesh.h, pipe.mesh.n_dofs, el2, eh1])
        if cfg["export_matrices"]:
            export_matrices(pipe.system, out, prefix="n%d_" % n)
    write_csv(os.path.join(out, "project.csv"), hdr, rows)
    write_dat(os.path.join(out, "project.dat"), hdr, rows)
    if len(rows) >= 3:
        _, h, _, el2, eh1 = zip(*rows)
        write_csv(os.path.join(out, "project_rates.csv"),
                  ["rate_l2_star", "rate_h1_star"],
                  [[fit_rate(h, el2), fit_rate(h, eh1)]])
    return EXIT_OK


def cmd_heat(cfg, out):
    man = MANUFACTURED[cfg["data"]]
    pipe = Pipeline(cfg, cfg["n_cells"][0])
    ops, hr = pipe.ops, _heat_run(cfg, pipe, man)
    m_one = pipe.system.M @ np.ones(pipe.system.n_dofs)
    every = cfg["vtk_every"]
    hdr = ["t", "l2_star", "mean", "e_l2_star"]
    times = time_grid(hr)
    rows = np.empty((len(times), len(hdr)))
    rows[:, 0] = times

    def fold(first, states):
        row = rows[first:first + len(states)]
        row[:, 1] = blockwise(lambda b: ops.l2_star(states[b]), len(states))
        row[:, 2] = states @ m_one
        row[:, 3] = blockwise(lambda b: ops.error_l2_star(
            man.value, states[b], row[b, 0]), len(states))
        if every:
            for i in range(-first % every, len(states), every):
                write_vtk(pipe.mesh,
                          os.path.join(out, "heat_%06d.vtk" % (first + i)),
                          values=states[i], time=row[i, 0])

    run(ops, hr, fold)
    write_csv(os.path.join(out, "heat.csv"), hdr, rows)
    write_dat(os.path.join(out, "heat.dat"), hdr, rows)
    return EXIT_OK


def cmd_diagnose(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for n in cfg["n_cells"]:
        pipe = Pipeline(cfg, n)
        rep = dg.constants_report(pipe.ops, t_final=cfg["T_infsup"],
                                  mesh_id="n%d" % n)
        # random-vector dual-norm sandwich audit
        bound = rep.norm_Ph_H1star + rep.C_inv_h
        x = rng.standard_normal((cfg["n_random"], pipe.mesh.n_dofs))
        lo = pipe.ops.dual_norm(x)
        hi = pipe.ops.hm1_star(x)
        sandwich_ok = bool(np.all((lo <= hi * 1.02)
                                  & (hi <= bound * lo * 1.02)))
        lam_ok = (rep.norm_Ph_H1gamma <= rep.inv_Lambda_h * 1.02
                  and rep.inv_Lambda_h <= bound * 1.02
                  and rep.Lambda_h <= 1.0 + 1e-9)
        rows.append(rep.row() + [sandwich_ok, lam_ok])
    hdr = [f.name for f in fields(dg.ConstantsReport)]
    audits = ["sandwich_pass", "lambda_pass"]
    write_csv(os.path.join(out, "diagnose.csv"), hdr + audits, rows)
    failed = ["%s on %s" % (name, r[0]) for r in rows
              for name, ok in zip(audits, r[-2:]) if not ok]
    if failed:
        raise AuditFailure("diagnose audit failed: %s" % ", ".join(failed))
    return EXIT_OK


def cmd_dtsweep(cfg, out):
    pipe = Pipeline(cfg, cfg["n_cells"][0], need_probe=False)
    dts = cfg["dt_list"] or [2.0 ** (-e) for e in range(4, 25)]
    literal = cfg["literal_eq_matrices"]
    rows = []
    for dt in dts:
        kb = dg.condition_number(pipe.system, dt, stabilized_time=False,
                                 literal=literal)
        kbs = dg.condition_number(pipe.system, dt, stabilized_time=True,
                                  literal=literal)
        rows.append([dt, kb, kbs])
    rows.append([0.0, 0.0, dg.kappa_pstar(pipe.system)])  # dt=0 row: kappa(P*)
    hdr = ["dt", "kappa_B", "kappa_Bstar"]
    write_csv(os.path.join(out, "dtsweep.csv"), hdr, rows)
    write_dat(os.path.join(out, "dtsweep.dat"), hdr, rows)
    return EXIT_OK


def cmd_converge(cfg, out):
    if len(cfg["n_cells"]) < 3:
        raise InvalidConfig("converge needs a ladder of >= 3 meshes")
    man = MANUFACTURED[cfg["data"]]
    hdr = ["n_cells", "h", "dt", "e_total", "e_l2l2", "e_l2_initial",
           "proj_l2_star"]
    rows = []
    for n in cfg["n_cells"]:
        pipe = Pipeline(cfg, n)
        hr = _heat_run(cfg, pipe, man)
        rec = accumulate_errors(pipe.ops, hr, man)
        xp = pipe.ops.project(man.value, 0.0)
        proj_err = pipe.ops.error_l2_star(man.value, xp, 0.0)
        rows.append([n, pipe.mesh.h, hr.dt, rec.e_total, rec.e_l2l2,
                     rec.e_l2_initial, proj_err])
    write_csv(os.path.join(out, "converge.csv"), hdr, rows)
    write_dat(os.path.join(out, "converge.dat"), hdr, rows)
    _, h, _, e_total, e_l2l2, _, proj = zip(*rows)
    write_csv(os.path.join(out, "converge_rates.csv"),
              ["rate_e_total", "rate_e_l2l2", "rate_proj_l2_star", "dt_rule"],
              [[fit_rate(h, e_total), fit_rate(h, e_l2l2), fit_rate(h, proj),
                cfg["dt_rule"]]])
    return EXIT_OK


_COMMANDS = {
    "quadcheck": cmd_quadcheck,
    "project": cmd_project,
    "heat": cmd_heat,
    "diagnose": cmd_diagnose,
    "dtsweep": cmd_dtsweep,
    "converge": cmd_converge,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors, raised for main to report."""

    def error(self, message):
        raise InvalidConfig(message)


def main(argv=None):
    # a flag not given stays out of the namespace and overrides no key
    parser = _Parser(
        prog="tracefem", argument_default=argparse.SUPPRESS,
        description="Stabilized trace-FEM laboratory for the heat equation "
                    "on an embedded curve.")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--literal-eq-matrices", action="store_true")
    parser.add_argument("--no-time-stab", action="store_false",
                        dest="stabilized_time_derivative")
    try:
        flags = vars(parser.parse_args(argv))
        command = _COMMANDS[flags.pop("subcommand")]
        cfg = load_config(flags.pop("config"), flags)
        try:
            os.makedirs(cfg["out"], exist_ok=True)
        except OSError as exc:
            raise InvalidConfig("cannot create out directory: %s" % exc)
        return command(cfg, cfg["out"])
    except InvalidConfig as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionViolation as exc:
        print("assumption violated: %s" % exc, file=sys.stderr)
        return EXIT_ASSUMPTION
    except TraceFemError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
