"""Experiment runner: config parsing, orchestration, bit-stable CSV.

Subcommands: quadcheck, project, heat, diagnose, dtsweep, converge.
Every mesh size starts with the cut stage (``cut``: circle, background,
active selection, resolution check, cut quadrature), which needs numpy
alone; ``quadcheck`` audits it and stops there, so it never loads scipy.
The other subcommands build a ``Pipeline`` (the cut stage with the length
and cover audits of ``quadcheck``, then the assembly of M, A, S_j and
M_*), and ``main`` imports scipy's sparse solvers for them once, after
parsing and before the first ``Pipeline``.
Every derived operator is built on first read (the LUs, the traces, the
Fourier probe, D, A_* and K_*), so a subcommand builds only what it
reads: ``dtsweep`` factors no LU of the operators, ``diagnose`` builds
no trace, and only ``diagnose`` and ``converge`` read the probe.
The subcommands that run a ladder of meshes (``project``, ``diagnose``,
``converge``) hold one mesh at a time: each mesh's ``Pipeline`` is dropped
before the next one is built (``_per_mesh``).
Each config key has one row (default, check, requirement) in ``_KEYS``;
a flag sets the key it names and is checked by the same row.  Only
``main`` turns a failure into an exit code, with one line on stderr:
1 numerical failure, failed audit, out of memory or an output that cannot
be written, 2 assumption violation, 64 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import diagnostics as dg
from .assembly import assemble, export_matrices
from .cutquad import arc_cover_defect, build_topology, oscillation_order
from .errors import (AssumptionViolation, AuditFailure, InvalidConfig,
                     TraceFemError)
from .geometry import LevelSetSurface, check_resolution
from .heatsolver import (MANUFACTURED, SCHEMES, HeatRun, accumulate_errors,
                         run, step_count)
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


_number = _is(int, float, test=lambda v: abs(v) <= sys.float_info.max)
_positive = _is(int, float, test=lambda v: 0 < v <= sys.float_info.max)
_count = _is(int, test=lambda v: v >= 0)
_positive_int = _is(int, test=lambda v: v >= 1)
_KEYS = {   # key: (default, check, requirement)
    "center": ([0.0, 0.0], _list_of(_number, 2), "two numbers"),
    "radius": (1.0, _positive, "a positive number"),
    "bbox": ([-1.5, 1.5],
             lambda v: _list_of(_number, 2)(v) and _positive(v[1] - v[0]),
             "two numbers lo < hi with a finite width hi - lo"),
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


def _lines(rows, sep):
    """The rows as text lines: a string as it is, any other value "%.17g"."""
    return [sep.join(v if isinstance(v, str) else "%.17g" % v for v in row)
            + "\n" for row in rows]


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_lines(rows, ","))


def write_dat(path, header, rows):
    """gnuplot-friendly mirror: whitespace-separated, '#' header."""
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + " ".join(header) + "\n")
        fh.writelines(_lines(rows, " "))


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
    """Least-squares slope of log(e) against log(h), over >= 3 distinct h."""
    if len(set(h)) < 3:
        raise InvalidConfig("rate fit needs at least 3 distinct mesh sizes")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def cut(cfg, n_cells):
    """The cut stage of one mesh size: (surface, background, mesh,
    topology), from numpy alone.

    Raises AssumptionViolation, before anything is cut, when an active
    element does not resolve the curvature.
    """
    surface = LevelSetSurface.circle(cfg["center"], cfg["radius"])
    background = build_background(cfg["bbox"], n_cells)
    mesh = select_active(background, surface)
    check_resolution(surface, mesh, cfg["c_res"])
    q = oscillation_order(cfg["k_max"], mesh.h, surface.radius, cfg["q_surf"])
    return surface, background, mesh, build_topology(surface, mesh, q_surf=q)


def _cut_audit(topo, *extra):
    """The cut's rel_err and cover_defect, and a line "name value > limit"
    for each of them and of the extra (name, value, limit) that fails."""
    exact = 2.0 * np.pi * topo.surface.radius
    rel = abs(topo.total_length - exact) / exact
    defect = arc_cover_defect(topo)
    audits = [("rel_err", rel, 1e-10), ("cover_defect", defect, 1e-10), *extra]
    return rel, defect, ["%s %.2g > %g" % a for a in audits if a[1] > a[2]]


class Pipeline:
    """For one mesh: the cut stage (``cut``) and its length and cover
    audits, then the assembled system and the operators, which build each
    derived operator on first read.  A cut that misses an audit is an
    AuditFailure, so no subcommand solves on it."""

    def __init__(self, cfg, n_cells):
        self.surface, self.background, self.mesh, self.topology = \
            cut(cfg, n_cells)
        failed = _cut_audit(self.topology)[2]
        if failed:
            raise AuditFailure("cut at n_cells=%d: %s"
                               % (n_cells, ", ".join(failed)))
        self.system = assemble(self.mesh, self.topology)
        self.ops = DiscreteOperators(self.system, cfg["k_max"])


def _per_mesh(cfg, rung):
    """[rung(n, pipe) for each n of n_cells] with pipe the Pipeline of n.
    Only the call holds pipe, so it is freed before the next mesh is
    built; rung must keep no reference to it in what it returns."""
    return [rung(n, Pipeline(cfg, n)) for n in cfg["n_cells"]]


def _one_mesh(cfg, subcommand):
    if len(cfg["n_cells"]) != 1:
        raise InvalidConfig("%s runs one mesh: n_cells must hold one entry, "
                            "not %d" % (subcommand, len(cfg["n_cells"])))
    return cfg["n_cells"][0]


def _heat_run(cfg, pipe, man):
    """The configured run of the manufactured solution man on pipe's mesh."""
    rule = cfg["dt_rule"]
    dt = pipe.background.h_global ** 2 / 4.0 if rule == "h2/4" else float(rule)
    return HeatRun(manufactured=man, dt=dt, t_final=cfg["t_final"],
                   scheme=cfg["scheme"],
                   stabilized_time_derivative=cfg["stabilized_time_derivative"])


def cmd_quadcheck(cfg, out):
    hdr = ["n_cells", "h", "n_active", "n_dofs", "arc_length", "rel_err",
           "cover_defect", "max_arcs_per_element", "spectral_selftest"]
    rows = []
    for n in cfg["n_cells"]:
        surface, _, mesh, topo = cut(cfg, n)
        max_arcs = int(np.diff(topo.elem_ptr).max()) // topo.q_surf
        # self-test: q and q+4 Gauss points on each arc must agree on
        # oscillatory integrals int cos(k theta) ds / R, k <= 64; numpy's
        # sum, not a BLAS dot, whose rounding moves with the thread count
        topo2 = build_topology(surface, mesh, q_surf=topo.q_surf + 4)
        spec_diff = max(abs(np.sum(topo.w * np.cos(k * topo.theta))
                            - np.sum(topo2.w * np.cos(k * topo2.theta)))
                        for k in (1, 8, 32, 64)) / surface.radius
        rel, defect, failed = _cut_audit(
            topo, ("spectral_selftest", spec_diff, 1e-11))
        rows.append([n, mesh.h, len(mesh.active), mesh.n_dofs,
                     topo.total_length, rel, defect, max_arcs,
                     float(spec_diff)])
        if failed:
            break
    write_csv(os.path.join(out, "quadcheck.csv"), hdr, rows)
    if failed:
        raise AuditFailure("quadcheck at n_cells=%d: %s"
                           % (n, ", ".join(failed)))
    return EXIT_OK


def cmd_project(cfg, out):
    man = MANUFACTURED[cfg["data"]](cfg["radius"])
    g, a = man.profile, man.time(np.zeros(1))
    hdr = ["n_cells", "h", "n_dofs", "e_l2_star", "e_h1_star"]

    def rung(n, pipe):
        x = pipe.ops.project(g, a)
        el2 = pipe.ops.error_l2_star(g, x, a)[0]
        eh1 = pipe.ops.error_h1_star(g, man.dprofile, x, a)[0]
        if cfg["export_matrices"]:
            export_matrices(pipe.system, out, prefix="n%d_" % n)
        return [n, pipe.mesh.h, pipe.mesh.n_dofs, el2, eh1]

    rows = _per_mesh(cfg, rung)
    write_csv(os.path.join(out, "project.csv"), hdr, rows)
    write_dat(os.path.join(out, "project.dat"), hdr, rows)
    if len(set(cfg["n_cells"])) >= 3:
        _, h, _, el2, eh1 = zip(*rows)
        write_csv(os.path.join(out, "project_rates.csv"),
                  ["rate_l2_star", "rate_h1_star"],
                  [[fit_rate(h, el2), fit_rate(h, eh1)]])
    return EXIT_OK


def cmd_heat(cfg, out):
    man = MANUFACTURED[cfg["data"]](cfg["radius"])
    pipe = Pipeline(cfg, _one_mesh(cfg, "heat"))
    ops, hr = pipe.ops, _heat_run(cfg, pipe, man)
    m_one = pipe.system.M @ np.ones(pipe.system.n_dofs)
    every = cfg["vtk_every"]
    hdr = ["t", "l2_star", "mean", "e_l2_star"]
    times = hr.dt * np.arange(step_count(hr) + 1)
    rows = np.empty((len(times), len(hdr)))
    rows[:, 0] = times

    def fold(first, states):
        row = rows[first:first + len(states)]
        row[:, 1] = ops.l2_star(states)
        row[:, 2] = states @ m_one
        row[:, 3] = ops.error_l2_star(man.profile, states,
                                      man.time(row[:, 0]))
        if every:
            for i in range(-first % every, len(states), every):
                write_vtk(pipe.mesh,
                          os.path.join(out, "heat_%06d.vtk" % (first + i)),
                          values=states[i], time=row[i, 0])

    run(ops, hr, fold)
    rows = rows.tolist()      # list rows format faster than array rows
    write_csv(os.path.join(out, "heat.csv"), hdr, rows)
    write_dat(os.path.join(out, "heat.dat"), hdr, rows)
    return EXIT_OK


def cmd_diagnose(cfg, out):
    rng = np.random.default_rng(cfg["seed"])

    def rung(n, pipe):
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
        return rep.row() + [sandwich_ok, lam_ok]

    rows = _per_mesh(cfg, rung)
    hdr = [f.name for f in fields(dg.ConstantsReport)]
    audits = ["sandwich_pass", "lambda_pass"]
    write_csv(os.path.join(out, "diagnose.csv"), hdr + audits, rows)
    failed = ["%s on %s" % (name, r[0]) for r in rows
              for name, ok in zip(audits, r[-2:]) if not ok]
    if failed:
        raise AuditFailure("diagnose audit failed: %s" % ", ".join(failed))
    return EXIT_OK


def cmd_dtsweep(cfg, out):
    pipe = Pipeline(cfg, _one_mesh(cfg, "dtsweep"))
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
    if len(set(cfg["n_cells"])) < 3:
        raise InvalidConfig("converge needs >= 3 distinct n_cells")
    man = MANUFACTURED[cfg["data"]](cfg["radius"])
    hdr = ["n_cells", "h", "dt", "e_total", "e_l2l2", "e_l2_initial",
           "proj_l2_star"]

    def rung(n, pipe):
        hr = _heat_run(cfg, pipe, man)
        rec = accumulate_errors(pipe.ops, hr)
        # the run starts from P_h u(0): its initial error is proj_l2_star
        return [n, pipe.mesh.h, hr.dt, rec.e_total, rec.e_l2l2,
                rec.e_l2_initial, rec.e_l2_initial]

    rows = _per_mesh(cfg, rung)
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
        subcommand = flags.pop("subcommand")
        cfg = load_config(flags.pop("config"), flags)
        try:
            os.makedirs(cfg["out"], exist_ok=True)
        except OSError as exc:
            raise InvalidConfig("cannot create out directory: %s" % exc)
        if subcommand != "quadcheck":
            # here, not in the first Pipeline: no stage time holds the import
            import scipy.sparse.linalg  # noqa: F401
        return _COMMANDS[subcommand](cfg, cfg["out"])
    except InvalidConfig as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionViolation as exc:
        print("assumption violated: %s" % exc, file=sys.stderr)
        return EXIT_ASSUMPTION
    except TraceFemError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print("out of memory: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print("cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
