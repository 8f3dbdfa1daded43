import json
import os
import pathlib
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import tracefem
from tracefem import cli, cutquad, operators
from tracefem.assembly import assemble, assemble_fourier
from tracefem.cutquad import arc_cover_defect, build_topology
from tracefem.cli import (EXIT_ASSUMPTION, EXIT_CONFIG, EXIT_NUMERICAL,
                          EXIT_OK, _KEYS, Pipeline, _heat_run, cut,
                          load_config, main, write_csv, write_dat)
from tracefem.errors import LIMITS
from tracefem.heatsolver import MANUFACTURED
from tracefem.mesh import write_vtk
from tracefem.operators import DiscreteOperators

from helpers import traced_peak


# (subcommand, one bad value): every row of the config table is hit
BAD_VALUES = [
    ("dtsweep", {"dt_list": [-0.1]}),
    ("dtsweep", {"dt_list": [1e-3, "1e-4"]}),
    ("dtsweep", {"dt_list": 0.01}),
    ("quadcheck", {"c_res": 0}),
    ("quadcheck", {"c_res": "0.5"}),
    ("diagnose", {"k_max": "12"}),
    ("diagnose", {"k_max": 12.5}),
    ("quadcheck", {"q_surf": 0}),
    ("quadcheck", {"q_surf": True}),
    ("quadcheck", {"radius": "1"}),
    ("diagnose", {"n_random": -1}),
    ("heat", {"n_cells": ["a"]}),
    ("quadcheck", {"n_cells": ["a"]}),
    ("heat", {"n_cells": [8.5]}),
    ("heat", {"n_cells": [True]}),
    ("heat", {"n_cells": [0]}),
    ("heat", {"t_final": "a"}),
    ("heat", {"t_final": 0}),
    ("diagnose", {"T_infsup": -1.0}),
    ("diagnose", {"T_infsup": True}),
    ("heat", {"vtk_every": "x"}),
    ("heat", {"vtk_every": -2}),
    ("heat", {"vtk_every": 2.5}),
    ("heat", {"scheme": ["x"]}),
    ("heat", {"data": ["x"]}),
    ("heat", {"dt_rule": ["h2/4"]}),
    ("heat", {"dt_rule": True}),
    ("heat", {"dt_rule": "0.01"}),
    ("diagnose", {"dt_rule": "abc"}),
    ("dtsweep", {"dt_list": []}),
    ("quadcheck", {"radius": float("inf")}),
    ("heat", {"center": "a"}),
    ("diagnose", {"center": [0, 0, 0]}),
    ("quadcheck", {"center": [float("nan"), 0.0]}),
    ("heat", {"bbox": [1]}),
    ("quadcheck", {"bbox": [1.5, -1.5]}),
    ("heat", {"stabilized_time_derivative": "no"}),
    ("dtsweep", {"literal_eq_matrices": 1}),
    ("project", {"export_matrices": "yes"}),
    ("diagnose", {"out": 3}),
    ("diagnose", {"seed": -1}),
    ("diagnose", {"seed": "a"}),
    ("diagnose", {"seed": 1.0}),
    # JSON integers beyond the largest double
    ("quadcheck", {"radius": 10 ** 400}),
    ("quadcheck", {"bbox": [-10 ** 400, 10 ** 400]}),
]


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(*args, **env):
    """A fresh interpreter run with args, and env over the environment:
    the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tracefem.__file__)
                                          .parents[1]), **env)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def run_cli(*argv):
    """The CLI in a fresh interpreter, so warnings reach its real stderr:
    (exit code, stderr lines)."""
    proc = run_python("-m", "tracefem.cli", *argv)
    return proc.returncode, proc.stderr.splitlines()


# (subcommand, config overrides, Fourier probes built) of small runs
SMALL_RUNS = [
    ("quadcheck", {}, 0),
    ("project", {"n_cells": [16, 24, 32]}, 0),
    ("heat", {"n_cells": [16]}, 0),
    ("dtsweep", {"n_cells": [16], "dt_list": [1e-3]}, 0),
    ("diagnose", {}, 2),
    ("converge", {"n_cells": [12, 16, 24], "t_final": 0.02}, 3),
]


# the subcommands that run one mesh, those that run a ladder of meshes,
# and the files each subcommand writes
ONE_MESH = ("heat", "dtsweep")
LADDER_RUNS = ("project", "diagnose", "converge")
OUTPUTS = {"quadcheck": ["quadcheck.csv"],
           "project": ["project.csv", "project.dat", "project_rates.csv"],
           "heat": ["heat.csv", "heat.dat"],
           "dtsweep": ["dtsweep.csv", "dtsweep.dat"],
           "diagnose": ["diagnose.csv"],
           "converge": ["converge.csv", "converge.dat", "converge_rates.csv"]}


# the first-read operators of DiscreteOperators and of FemSystem, and
# those each subcommand that builds a Pipeline reads on its small run
OPS_FIRST_READ = ("mstar", "kstar", "kaux", "probe", "trace", "dtrace")
SYSTEM_FIRST_READ = ("D", "A_star", "K_star")
FIRST_READ_BUILT = {
    "project": {"mstar", "trace", "dtrace"},
    "heat": {"mstar", "trace", "A_star"},
    "dtsweep": {"A_star"},
    "diagnose": {"mstar", "kstar", "probe", "D", "K_star"},
    "converge": {"mstar", "probe", "trace", "dtrace", "A_star"},
}


def write_cfg(path, **overrides):
    cfg = {"n_cells": [16, 24], "t_final": 0.05, "k_max": 32, "n_random": 5}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_fill_in(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        cfg = load_config(str(p))
        assert cfg["radius"] == 1.0
        assert cfg["scheme"] == "BDF1"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"wavenumber": 3}')
        from tracefem.errors import InvalidConfig
        with pytest.raises(InvalidConfig):
            load_config(str(p))

    @pytest.mark.parametrize("key", ["q_vol", "dense"])
    def test_q_vol_rejected(self, tmp_path, key):
        # keys of no effect are not accepted: the volume rule is fixed at
        # 6 points and the diagnostics are always dense
        p = tmp_path / "c.json"
        p.write_text(json.dumps({key: 6}))
        from tracefem.errors import InvalidConfig
        with pytest.raises(InvalidConfig, match=key):
            load_config(str(p))

    def test_malformed_json_exit(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert main(["quadcheck", "--config", str(p)]) == EXIT_CONFIG

    def test_bad_scheme(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"scheme": "RK4"}')
        assert main(["heat", "--config", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize("sub, overrides", BAD_VALUES)
    def test_out_of_range_values_exit(self, tmp_path, capsys, sub, overrides):
        cfg = write_cfg(tmp_path / "c.json", **{"n_cells": [16], **overrides})
        # the --out flag would stand in for a bad "out" key
        out = [] if "out" in overrides else ["--out", str(tmp_path / "o")]
        assert main([sub, "--config", cfg] + out) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: %s must be " % next(
            iter(overrides)))

    def test_every_key_has_a_bad_value(self):
        assert {key for _, bad in BAD_VALUES for key in bad} == set(_KEYS)

    @pytest.mark.parametrize("args, cause", [
        (["--config", "CFG", "--seed", "-1"], "seed must be an integer >= 0"),
        (["--config", "CFG", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["--config", "CFG", "--out", "FILE"],
         "cannot create out directory: "),
        (["--out", "OUT"], "the following arguments are required: --config"),
        (["--config", "CFG", "--no-such-flag"],
         "unrecognized arguments: --no-such-flag"),
    ])
    def test_bad_flags_exit(self, tmp_path, capsys, args, cause):
        # usage errors are config errors: exit 64, not argparse's 2
        paths = {"CFG": write_cfg(tmp_path / "c.json", n_cells=[16]),
                 "FILE": str(tmp_path / "file"), "OUT": str(tmp_path / "o")}
        (tmp_path / "file").write_text("")
        argv = ["diagnose"] + [paths.get(a, a) for a in args]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ")
        assert cause in err[0]

    @pytest.mark.parametrize("sub, center, radius", [
        # the circle cuts the mesh, but its right half lies outside
        ("project", [1, 0], 1), ("quadcheck", [1, 0], 1),
        # the circle misses the mesh: a config error, not an empty cut
        ("project", [10, 10], 0.5), ("quadcheck", [10, 10], 0.5),
    ], ids=["project", "quadcheck", "project-missing", "quadcheck-missing"])
    def test_circle_leaving_bbox(self, tmp_path, sub, center, radius):
        cfg = write_cfg(tmp_path / "c.json", center=center, radius=radius)
        code, err = run_cli(sub, "--config", cfg,
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert err == ["config error: the circle of radius %g about "
                       "(%g, %g) leaves the bbox [-1.5, 1.5]"
                       % (radius, *center)]

    @pytest.mark.parametrize("sub", ["heat", "converge"])
    @pytest.mark.parametrize("dt, steps", [(1e-300, "2.5e+299"),
                                           (5e-324, "inf")])
    def test_step_count_beyond_an_array(self, tmp_path, sub, dt, steps):
        cfg = write_cfg(tmp_path / "c.json", dt_rule=dt, t_final=0.25,
                        n_cells=[16] if sub in ONE_MESH else [12, 16, 24])
        code, err = run_cli(sub, "--config", cfg,
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert err == ["config error: dt %g and t_final 0.25 give %s steps, "
                       "not between 1 and what an array can index"
                       % (dt, steps)]

    @pytest.mark.parametrize("sub", ["heat", "converge"])
    def test_no_step(self, tmp_path, sub):
        # t_final / dt within 1e-12 of 0: the grid is the time 0 alone
        cfg = write_cfg(tmp_path / "c.json", dt_rule=1.0, t_final=1e-13,
                        n_cells=[16] if sub in ONE_MESH else [16, 24, 32])
        code, err = run_cli(sub, "--config", cfg,
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert err == ["config error: dt 1 and t_final 1e-13 give 0 steps, "
                       "not between 1 and what an array can index"]
        assert not any((tmp_path / "out").iterdir())     # no CSV

    @pytest.mark.parametrize("sub", ONE_MESH)
    def test_one_mesh_needs_one_size(self, tmp_path, sub):
        # heat and dtsweep run one mesh: a second size would be ignored,
        # so it is a config error before any run, and no file is written
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16, 24], t_final=0.01)
        out = tmp_path / "out"
        code, err = run_cli(sub, "--config", cfg, "--out", str(out))
        assert code == EXIT_CONFIG
        assert err == ["config error: %s runs one mesh: n_cells must hold "
                       "one entry, not 2" % sub]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bbox, code, cause", [
        # every element is 7.1e199 across: the selection overflows, and
        # the resolution check rejects the mesh
        ([-1e200, 1e200], EXIT_ASSUMPTION,
         "assumption violated: element 0 has h_T=7.07107e+199 above the "
         "threshold 0.5 = c_res / curvature (c_res=0.5)"),
        # hi - lo overflows: no mesh can be built
        ([-1e308, 1e308], EXIT_CONFIG,
         "config error: bbox must be two numbers lo < hi with a finite "
         "width hi - lo"),
    ], ids=["coarse", "infinite-width"])
    def test_huge_bbox_fails_in_one_line(self, tmp_path, bbox, code, cause):
        cfg = write_cfg(tmp_path / "c.json", bbox=bbox, n_cells=[4])
        assert run_cli("quadcheck", "--config", cfg,
                       "--out", str(tmp_path / "out")) == (code, [cause])

    def test_flag_goes_through_its_row(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", seed=1, out="a")
        conf = load_config(cfg, {"seed": 7,
                                 "stabilized_time_derivative": False})
        assert (conf["seed"], conf["out"]) == (7, "a")
        assert conf["stabilized_time_derivative"] is False
        from tracefem.errors import InvalidConfig
        with pytest.raises(InvalidConfig, match="^literal_eq_matrices must"):
            load_config(cfg, {"literal_eq_matrices": "yes"})


class TestSubcommands:
    def test_quadcheck(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["quadcheck", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "quadcheck.csv").read_text()
        assert text.splitlines()[0].startswith("n_cells,")
        assert len(text.splitlines()) == 3

    def test_quadcheck_circle_stderr_empty(self, tmp_path):
        code, err = run_cli("quadcheck", "--config", "configs/circle.json",
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_OK and err == []

    @pytest.mark.parametrize("sub, extra", [r[:2] for r in SMALL_RUNS],
                             ids=[r[0] for r in SMALL_RUNS])
    def test_small_run_stderr_empty(self, tmp_path, sub, extra):
        # a successful run prints nothing on its real stderr: no warning
        cfg = write_cfg(tmp_path / "c.json", **extra)
        assert run_cli(sub, "--config", cfg,
                       "--out", str(tmp_path / "out")) == (EXIT_OK, [])

    def test_tiny_radius_order_is_finite(self, tmp_path):
        # h / R = 1.8e299: the Gauss order is capped at an arc of 2 pi
        cfg = write_cfg(tmp_path / "c.json", n_cells=[24], k_max=128,
                        center=[0.03, 0.01], radius=1e-300, c_res=1e300)
        out = tmp_path / "out"
        assert run_cli("quadcheck", "--config", cfg,
                       "--out", str(out)) == (EXIT_OK, [])
        row = (out / "quadcheck.csv").read_text().splitlines()[1]
        assert float(row.split(",")[5]) <= 1e-15

    @pytest.mark.parametrize("sub", ["quadcheck", "project", "heat",
                                     "diagnose", "dtsweep", "converge"])
    def test_resolution_violation(self, tmp_path, capsys, sub):
        cfg = write_cfg(tmp_path / "c.json", radius=0.05,
                        n_cells=[8] if sub in ONE_MESH else [8, 12, 16])
        assert main([sub, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_ASSUMPTION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        # bbox 3 / 8 cells: h_T = 0.375 sqrt2 against 0.5 * 0.05
        assert err[0].startswith("assumption violated: element 0 has "
                                 "h_T=0.53033 above the threshold 0.025")
        assert err[0].endswith("(c_res=0.5)")

    def test_project_and_rates(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16, 24, 32],
                        data="forced_mode_2")
        out = tmp_path / "out"
        assert main(["project", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "project.csv").exists()
        assert (out / "project.dat").exists()
        rates = (out / "project_rates.csv").read_text().splitlines()
        r_l2 = float(rates[1].split(",")[0])
        assert 1.5 <= r_l2 <= 2.5

    def test_project_exports_k_aux(self, tmp_path):
        # K_aux.mtx is the stabilized-inner-product stiffness (M + A + S1) + S0
        import scipy.io
        import scipy.sparse as sp
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16],
                        export_matrices=True)
        out = tmp_path / "out"
        assert main(["project", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sy = Pipeline(load_config(cfg), 16).system
        scipy.io.mmwrite(tmp_path / "want.mtx",
                         sp.coo_matrix((sy.M + sy.A + sy.S[1]) + sy.S[0]),
                         symmetry="symmetric")
        assert ((out / "n16_K_aux.mtx").read_bytes()
                == (tmp_path / "want.mtx").read_bytes())

    def test_heat(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16])
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "heat.csv").read_text().splitlines()
        assert lines[0] == "t,l2_star,mean,e_l2_star"
        assert len(lines) > 2

    def test_heat_builds_no_probe(self, tmp_path, monkeypatch):
        # the heat series reads no Fourier mode, so no probe is assembled
        def no_probe(*args, **kwargs):
            raise AssertionError("heat assembled the Fourier probe")

        monkeypatch.setattr(operators, "assemble_fourier", no_probe)
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16],
                        data="forced_mode_2", scheme="BDF2")
        assert main(["heat", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("sub, extra, probes", SMALL_RUNS)
    def test_probe_built_on_first_read(self, tmp_path, monkeypatch, sub,
                                       extra, probes):
        # only the H^-1 quantities of diagnose and converge read the
        # Fourier probe: one assembly per mesh there, none elsewhere
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble_fourier(*args, **kwargs)

        monkeypatch.setattr(operators, "assemble_fourier", counted)
        cfg = write_cfg(tmp_path / "c.json", **extra)
        assert main([sub, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == probes

    @pytest.mark.parametrize("sub, extra", [r[:2] for r in SMALL_RUNS])
    def test_no_k_aux_factor(self, tmp_path, monkeypatch, sub, extra):
        # no quantity solves with K_aux, so no subcommand factors it; only
        # diagnose solves with K_*, so only diagnose factors that; dtsweep
        # factors its kappa matrices alone
        names = []
        init = operators._Factor.__init__

        def recorded(self, mat, name):
            names.append(name)
            init(self, mat, name)

        monkeypatch.setattr(operators._Factor, "__init__", recorded)
        cfg = write_cfg(tmp_path / "c.json", **extra)
        assert main([sub, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "K_aux" not in names
        assert ("M_star" in names) == (sub not in ("quadcheck", "dtsweep"))
        assert ("K_star" in names) == (sub == "diagnose")

    @pytest.mark.parametrize("sub, extra", [r[:2] for r in SMALL_RUNS
                                             if r[0] in FIRST_READ_BUILT],
                             ids=[r[0] for r in SMALL_RUNS
                                  if r[0] in FIRST_READ_BUILT])
    def test_first_read_operators(self, tmp_path, monkeypatch, sub, extra):
        # each derived operator is built on first read, so a subcommand
        # builds only those its quantities read, on every mesh it runs
        kept = []

        class Kept(Pipeline):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kept.append(self)

        monkeypatch.setattr(cli, "Pipeline", Kept)
        cfg = write_cfg(tmp_path / "c.json", **extra)
        assert main([sub, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert kept
        for pipe in kept:
            built = ({n for n in OPS_FIRST_READ if n in vars(pipe.ops)}
                     | {n for n in SYSTEM_FIRST_READ
                        if n in vars(pipe.system)})
            assert built == FIRST_READ_BUILT[sub]

    def test_heat_vtk_series(self, tmp_path, trajectory):
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16], vtk_every=3)
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == EXIT_OK
        files = sorted(out.glob("heat_*.vtk"))
        assert len(files) >= 2
        times, fields = [], []
        for f in files[:2]:
            lines = f.read_text().splitlines()
            times.append(float(lines[1].split("t=")[1]))
            at = lines.index(next(x for x in lines if x.startswith("POINT_DATA")))
            fields.append([float(v) for v in lines[at + 3:]])
        rows = (out / "heat.csv").read_text().splitlines()[1:]
        assert times == [float(rows[0].split(",")[0]),
                         float(rows[3].split(",")[0])]
        assert times[1] > 0.0
        assert fields[0] != fields[1]

        # every 7th state of a run handed out state 0 alone and then 16
        # states at a time, byte for byte as written from the whole
        # trajectory
        cfg = write_cfg(tmp_path / "c7.json", n_cells=[16], vtk_every=7,
                        t_final=0.3, scheme="CrankNicolson",
                        data="forced_mode_2")
        out, ref = tmp_path / "out7", tmp_path / "ref7"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == EXIT_OK
        conf = load_config(cfg)
        pipe = Pipeline(conf, 16)
        result, hist = trajectory(pipe.ops, _heat_run(
            conf, pipe, MANUFACTURED["forced_mode_2"](1.0)))
        ref.mkdir()
        for i in range(0, len(hist), 7):
            write_vtk(pipe.mesh, str(ref / ("heat_%06d.vtk" % i)),
                      values=hist[i], time=result.times[i])
        names = sorted(f.name for f in out.glob("heat_*.vtk"))
        assert names == sorted(f.name for f in ref.iterdir())
        assert len(names) == 6 and len(hist) > 2 * 16
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_dtsweep(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16],
                        dt_list=[1e-2, 1e-4, 1e-6])
        out = tmp_path / "out"
        assert main(["dtsweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "dtsweep.csv").read_text().splitlines()
        assert lines[0] == "dt,kappa_B,kappa_Bstar"
        assert len(lines) == 5        # 3 dt rows + kappa(P*) row

    def test_diagnose(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16])
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, "--out", str(out),
                     "--seed", "3"]) == EXIT_OK
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert lines[0].endswith("sandwich_pass,lambda_pass")
        assert lines[1].endswith(",1,1")

    def test_diagnose_without_random_vectors(self, tmp_path):
        # an empty sandwich audit passes
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16], n_random=0)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert lines[1].endswith(",1,1")

    def test_project_low_q_surf(self, tmp_path):
        # q_surf 4 is raised to ceil(k_max h) + 4 = 7 on the coarsest mesh
        # (h = 0.177), the order modes up to k_max need; project reads no
        # Fourier mode and builds no probe
        cfg = write_cfg(tmp_path / "c.json", n_cells=[24, 32, 48], q_surf=4,
                        k_max=16)
        out = tmp_path / "out"
        assert main(["project", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len((out / "project.csv").read_text().splitlines()) == 4

    def test_converge(self, tmp_path):
        path = write_cfg(tmp_path / "c.json", n_cells=[12, 16, 24],
                         t_final=0.02)
        out = tmp_path / "out"
        assert main(["converge", "--config", path, "--out", str(out)]) \
            == EXIT_OK
        assert (out / "converge_rates.csv").exists()
        assert (out / "converge.dat").exists()
        # proj_l2_star is the run's initial error: byte for byte the error
        # of a projection of u(0) made on its own
        cfg = load_config(path)
        man = MANUFACTURED[cfg["data"]](1.0)
        g, a = man.profile, man.time(np.zeros(1))
        lines = (out / "converge.csv").read_text().splitlines()
        assert lines[0].split(",")[6] == "proj_l2_star"
        for line in lines[1:]:
            row = line.split(",")
            ops = Pipeline(cfg, int(row[0])).ops
            x = ops.project(g, a)
            assert row[6] == "%.17g" % ops.error_l2_star(g, x, a)[0]

    def test_converge_needs_three_distinct_sizes(self, tmp_path):
        # a repeated size is no rung of the ladder: a config error before
        # any run, so no file is written
        cfg = write_cfg(tmp_path / "c.json", n_cells=[24, 24, 24],
                        t_final=0.01)
        out = tmp_path / "out"
        code, err = run_cli("converge", "--config", cfg, "--out", str(out))
        assert code == EXIT_CONFIG
        assert err == ["config error: converge needs >= 3 distinct n_cells"]
        assert list(out.iterdir()) == []

    def test_project_rates_need_three_distinct_sizes(self, tmp_path):
        # the errors are written, the rate fit through one abscissa is not
        cfg = write_cfg(tmp_path / "c.json", n_cells=[24, 24, 24])
        out = tmp_path / "out"
        assert run_cli("project", "--config", cfg,
                       "--out", str(out)) == (EXIT_OK, [])
        assert len((out / "project.csv").read_text().splitlines()) == 4
        assert not (out / "project_rates.csv").exists()

    @pytest.mark.parametrize("data", ["decaying_mode", "forced_mode_2"])
    def test_converge_off_unit_radius(self, tmp_path, data):
        # the manufactured data solve the heat equation on R = 0.8 too:
        # first order in the energy error, second in L2(L2)
        path = write_cfg(tmp_path / "c.json", radius=0.8, data=data,
                         n_cells=[48, 96, 192], k_max=128)
        out = tmp_path / "out"
        assert main(["converge", "--config", path, "--out", str(out)]) \
            == EXIT_OK
        lines = (out / "converge_rates.csv").read_text().splitlines()
        rates = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(rates["rate_e_total"]) >= 0.9, rates
        assert float(rates["rate_e_l2l2"]) >= 1.8, rates

    @pytest.mark.parametrize("sub, name, flag, key, value", [
        ("dtsweep", "dtsweep.csv", "--literal-eq-matrices",
         "literal_eq_matrices", True),
        ("heat", "heat.csv", "--no-time-stab",
         "stabilized_time_derivative", False),
    ])
    def test_flag_matches_config_key(self, tmp_path, sub, name, flag, key,
                                     value):
        outs = []
        for tag, extra, overrides in (("default", [], {}),
                                      ("flag", [flag], {}),
                                      ("key", [], {key: value})):
            cfg = write_cfg(tmp_path / ("%s.json" % tag), n_cells=[16],
                            **overrides)
            out = tmp_path / tag
            assert main([sub, "--config", cfg, "--out", str(out)]
                        + extra) == EXIT_OK
            outs.append((out / name).read_bytes())
        assert outs[1] == outs[2]
        assert outs[1] != outs[0]


class TestNumericalFailure:
    """A failed audit writes its CSV, then exits 1 with one line."""

    def _fails(self, capsys, argv):
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return err[0]

    def test_quadcheck_selftest(self, tmp_path, capsys):
        # 7 Gauss points per arc against 11 at h = 0.177 miss the 1e-11
        # agreement of the spectral self-test
        cfg = write_cfg(tmp_path / "c.json", n_cells=[24, 32], q_surf=4,
                        k_max=16)
        out = tmp_path / "out"
        err = self._fails(capsys, ["quadcheck", "--config", cfg,
                                   "--out", str(out)])
        assert err.startswith("numerical failure: quadcheck at n_cells=24: "
                              "spectral_selftest ")
        assert err.endswith(" > 1e-11")
        lines = (out / "quadcheck.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("24,")

    def test_overflowing_cut_fails_in_one_line(self, tmp_path):
        # at +-1e160 the cut runs in its frame, but the element areas,
        # h^2 / 2 = 4.9e316, leave the double range: one line, exit 1
        cfg = write_cfg(tmp_path / "c.json", bbox=[-1e160, 1e160],
                        radius=1e159, n_cells=[64])
        assert run_cli("quadcheck", "--config", cfg,
                       "--out", str(tmp_path / "out")) == (
            EXIT_NUMERICAL, ["numerical failure: active triangle 0 has area "
                             "4.9e+316, beyond the double range"])

    def test_grazing_run_fails_in_one_line(self, tmp_path):
        # the circle grazes mesh edges at n_cells=48; the dropped
        # contacts are counted, not printed
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_cells":[48],"q_surf":1,"k_max":1}')
        code, err = run_cli("quadcheck", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    @pytest.mark.parametrize("sub, name, files", [
        ("quadcheck", "quadcheck", ["quadcheck.csv"]), ("project", "cut", [])],
        ids=["quadcheck", "project"])
    def test_cut_audit(self, tmp_path, capsys, monkeypatch, sub, name, files):
        # a cut that loses an arc misses the length and cover audits:
        # quadcheck writes its row and fails, project fails before it solves
        cut_triangles = cutquad.cut_triangles

        def lose_an_arc(xi, rho):
            ends, owner, dropped = cut_triangles(xi, rho)
            return ends[1:], owner[1:], dropped

        monkeypatch.setattr(cutquad, "cut_triangles", lose_an_arc)
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16])
        out = tmp_path / "out"
        err = self._fails(capsys, [sub, "--config", cfg, "--out", str(out)])
        assert re.fullmatch(r"numerical failure: %s at n_cells=16: rel_err "
                            r"\S+ > 1e-10, cover_defect \S+ > 1e-10" % name,
                            err), err
        assert os.listdir(out) == files

    def test_output_not_writable(self, tmp_path):
        # the CSV path is taken by a directory: one line, not a traceback
        out = tmp_path / "out"
        (out / "quadcheck.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16])
        code, err = run_cli("quadcheck", "--config", cfg, "--out", str(out))
        assert code == EXIT_NUMERICAL
        assert len(err) == 1
        assert err[0].startswith("cannot write output: [Errno 21] Is a "
                                 "directory: ")

    def test_step_grid_beyond_memory(self, tmp_path):
        # heat's series of 10^15 + 1 rows of 4 values asks for 28.4 PiB:
        # the request fails at once and allocates nothing
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_cells": [16], "dt_rule": 1e-15, "t_final": 1.0}')
        code, err = run_cli("heat", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL
        assert len(err) == 1
        assert err[0].startswith("out of memory: Unable to allocate 28.4 PiB")

    def test_kappa_solves_miss_the_residual_rule(self, tmp_path):
        # B = M/dt + A + S1 is SPD, but kappa(B) = 1.0e8 at dt = 1e-10:
        # the shift-invert solves miss the 1e-12 residual rule, which is
        # no sign of a singular matrix
        cfg = write_cfg(tmp_path / "c.json", n_cells=[48], dt_list=[1e-10])
        code, err = run_cli("dtsweep", "--config", cfg,
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL
        assert err == ["numerical failure: solve with one-step matrix: 1 of "
                       "1 columns miss the relative residual 1e-12 after "
                       "refinement"]

    def test_lanczos_no_convergence(self, tmp_path, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("No convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", stalled)
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16])
        err = self._fails(capsys, ["diagnose", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
        assert err == ("numerical failure: Lanczos: "
                       "ARPACK error -1: No convergence")

    def test_diagnose_audit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(DiscreteOperators, "dual_norm",
                            lambda self, x: 0.0 * self.hm1_star(x))
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16])
        out = tmp_path / "out"
        err = self._fails(capsys, ["diagnose", "--config", cfg,
                                   "--out", str(out)])
        assert err == ("numerical failure: diagnose audit failed on n16: "
                       "sandwich_slack inf > 1.02")
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].endswith(",0,1")


@st.composite
def _placements(draw):
    """(center, radius, n_cells): a drawn circle, or one with c_x and R in
    steps of 1/8, which the grid lines x = c_x +- R touch between two
    vertices for almost every c_y."""
    n = draw(st.sampled_from([24, 48]))
    c_y = draw(st.floats(-0.3, 0.3))
    if draw(st.booleans()):
        radius = draw(st.sampled_from([0.5, 0.625, 0.75, 1.0]))
        return [draw(st.integers(-2, 2)) * 0.125, c_y], radius, n
    return [draw(st.floats(-0.3, 0.3)), c_y], draw(st.floats(0.4, 1.0)), n


@settings(max_examples=20)
@given(_placements())
def test_project_solves_only_cuts_quadcheck_accepts(tmp_path_factory,
                                                    placement):
    # a cut that quadcheck rejects on its length or cover audit fails
    # project with it; one that passes them lets project run
    center, radius, n = placement
    out = tmp_path_factory.mktemp("run")
    cfg = write_cfg(out / "c.json", center=center, radius=radius,
                    n_cells=[n], k_max=16)
    main(["quadcheck", "--config", cfg, "--out", str(out)])
    row = (out / "quadcheck.csv").read_text().splitlines()[1].split(",")
    rejected = (float(row[5]) > LIMITS["rel_err"]
                or float(row[6]) > LIMITS["cover_defect"])
    assert main(["project", "--config", cfg, "--out", str(out)]) == (
        EXIT_NUMERICAL if rejected else EXIT_OK)


@pytest.mark.parametrize("sub, extra", [r[:2] for r in SMALL_RUNS],
                         ids=[r[0] for r in SMALL_RUNS])
def test_rerun_bytes(tmp_path, sub, extra):
    # a rerun with the same config and seed writes every file again,
    # byte for byte: each CSV, its DAT mirror and the fitted rates
    cfg = write_cfg(tmp_path / "c.json", **extra)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main([sub, "--config", cfg, "--out", str(out),
                     "--seed", "42"]) == EXIT_OK
        outs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(outs[0]) == sorted(OUTPUTS[sub])
    assert outs[0] == outs[1]


def scaled_circle(path, s):
    """configs/circle.json with every length multiplied by s, written to
    path; the path as a string."""
    cfg = json.loads((ROOT / "configs" / "circle.json").read_text())
    cfg.update(center=[s * v for v in cfg["center"]],
               radius=s * cfg["radius"], bbox=[s * v for v in cfg["bbox"]])
    path.write_text(json.dumps(cfg))
    return str(path)


def scaled_rows(tmp_path, sub, s, name):
    """The rows, split at commas, of the CSV name that sub writes on the
    scaled circle."""
    out = tmp_path / ("%s-%r" % (sub, s))
    cfg = scaled_circle(tmp_path / "c.json", s)
    assert main([sub, "--config", cfg, "--out", str(out)]) == EXIT_OK, s
    return [line.split(",") for line in (out / name).read_text().splitlines()]


@pytest.mark.filterwarnings("error")
def test_quadcheck_is_scale_free(tmp_path):
    # a power of two scales every length exactly: h and arc_length scale
    # by s, and the cut, its audits and the self-test do not move
    unit = scaled_rows(tmp_path, "quadcheck", 1.0, "quadcheck.csv")
    for k in (-30, -10, 10, 30):
        s = 2.0 ** k
        rows = scaled_rows(tmp_path, "quadcheck", s, "quadcheck.csv")
        assert rows[0] == unit[0] and len(rows) == len(unit), k
        for got, want in zip(rows[1:], unit[1:]):
            for name, a, b in zip(unit[0], got, want):
                if name in ("h", "arc_length"):
                    assert float(a) == s * float(b), (k, name)
                else:
                    assert a == b, (k, name)


@pytest.mark.filterwarnings("error")
def test_project_rates_are_scale_free(tmp_path):
    # 1e-3 and 1e3 are not powers of two: the rates move by rounding only
    def rates(s):
        return np.array(scaled_rows(tmp_path, "project", s,
                                    "project_rates.csv")[1], dtype=float)

    unit = rates(1.0)
    for s in (1e-3, 1e3):
        assert np.abs(rates(s) - unit).max() <= 1e-8, s


def test_fmt_stability(tmp_path):
    # a string as it is, any other value as "%.17g": a count prints as an
    # integer, a flag as 1/0, numpy scalars as Python ones
    rows = [[0.1, 3, True, "h2/4"],
            [2 ** 53, False, np.float64(0.1), np.int64(7)],
            [np.bool_(True), np.bool_(False), -2, "x"]]
    write_csv(str(tmp_path / "f"), ["a", "b", "c", "d"], rows)
    assert (tmp_path / "f").read_text().splitlines()[1:] == [
        "0.10000000000000001,3,1,h2/4",
        "9007199254740992,0,0.10000000000000001,7",
        "1,0,-2,x"]


@pytest.mark.parametrize("write, sep", [(write_csv, ","), (write_dat, " ")])
def test_float_array_rows_format_as_fmt(tmp_path, write, sep):
    # float rows print 17 significant digits, which read back to the same
    # double; an ndarray of them writes the bytes of its list rows
    rows = np.array([[0.1, -0.0, np.nan, 2.0 ** -1074],
                     [np.inf, -np.inf, 1e300, 1.0 / 3.0]])
    write(str(tmp_path / "array"), ["a", "b", "c", "d"], rows)
    write(str(tmp_path / "list"), ["a", "b", "c", "d"], rows.tolist())
    text = (tmp_path / "list").read_bytes()
    assert text == (tmp_path / "array").read_bytes()
    assert text.decode().splitlines()[1:] == [
        sep.join(row) for row in (
            ["0.10000000000000001", "-0", "nan", "4.9406564584124654e-324"],
            ["inf", "-inf", "1.0000000000000001e+300", "0.33333333333333331"])]
    # an array is formatted in chunks of rows: the same bytes across
    # chunks, the last one part-full
    many = np.tile(rows, (4099, 1))
    write(str(tmp_path / "array"), ["a"], many)
    write(str(tmp_path / "list"), ["a"], many.tolist())
    assert ((tmp_path / "list").read_bytes()
            == (tmp_path / "array").read_bytes())
    finite = [v for v in rows.ravel().tolist() if np.isfinite(v)]
    assert [float("%.17g" % v) for v in finite] == finite


@pytest.mark.parametrize("sep", [",", " "])
def test_lines_chunks_format_as_single_rows(sep):
    # 1,300 rows cross two 512-row chunks and end in a part-full one:
    # the text is that of each row formatted alone
    rows = np.random.default_rng(5).standard_normal((1300, 3))
    rows[::7, 1] = -0.0
    alone = "".join(line for i in range(len(rows))
                    for line in cli._lines(rows[i:i + 1], sep))
    assert "".join(cli._lines(rows, sep)) == alone
    assert alone.count("\n") == len(rows)


@pytest.mark.parametrize("sub, extra", [r[:2] for r in SMALL_RUNS
                                         if r[0] in LADDER_RUNS],
                         ids=LADDER_RUNS)
def test_one_pipeline_at_a_time(tmp_path, monkeypatch, sub, extra):
    # a subcommand that runs a ladder of meshes holds one mesh at a time:
    # when a Pipeline is built, every earlier one is already freed
    built = []

    class Recorded(Pipeline):
        def __init__(self, *args, **kwargs):
            alive = [i for i, ref in enumerate(built) if ref() is not None]
            assert not alive, "Pipelines %s still alive" % alive
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(cli, "Pipeline", Recorded)
    cfg = write_cfg(tmp_path / "c.json", **extra)
    assert main([sub, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(built) == len(load_config(cfg)["n_cells"]) >= 2


# exits with the names of the scipy modules loaded, if any
EXIT_WITH_SCIPY = ("sys.exit(' '.join(m for m in sys.modules "
                   "if m.split('.')[0] == 'scipy') or None)")


def test_cli_import_leaves_out_scipy_io():
    # the package and the CLI load no scipy module at all (scipy.io then
    # neither), and every layer module the benchmark tracer wraps
    code = ("import sys, tracefem, tracefem.cli\n"
            "for layer in ('geometry', 'mesh', 'cutquad', 'assembly', "
            "'operators', 'heatsolver', 'diagnostics', 'cli'):\n"
            "    assert 'tracefem.' + layer in sys.modules, layer\n"
            + EXIT_WITH_SCIPY)
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_quadcheck_runs_without_scipy(tmp_path):
    # quadcheck audits the cut stage alone: no scipy module is loaded, and
    # its rows are those of a full Pipeline's mesh and topology
    out = tmp_path / "out"
    code = ("import sys\nfrom tracefem import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "if rc:\n    sys.exit(rc)\n" + EXIT_WITH_SCIPY)
    proc = run_python("-c", code, "quadcheck", "--config",
                      "configs/circle.json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr

    cfg = load_config(str(ROOT / "configs" / "circle.json"))
    exact = 2.0 * np.pi * cfg["radius"]
    rows = []
    for n in cfg["n_cells"]:
        pipe = Pipeline(cfg, n)
        mesh, topo = pipe.mesh, pipe.topology
        fine = build_topology(pipe.surface, mesh, q_surf=topo.q_surf + 4)
        spec = max(abs(np.sum(topo.w * np.cos(k * topo.theta))
                       - np.sum(fine.w * np.cos(k * fine.theta)))
                   for k in (1, 8, 32, 64))
        rows.append([n, mesh.h, len(mesh.active), mesh.n_dofs,
                     topo.total_length,
                     abs(topo.total_length - exact) / exact,
                     arc_cover_defect(topo),
                     int(np.diff(topo.elem_ptr).max()) // topo.q_surf,
                     float(spec)])
    write_csv(str(tmp_path / "oracle.csv"),
              ["n_cells", "h", "n_active", "n_dofs", "arc_length", "rel_err",
               "cover_defect", "max_arcs_per_element", "spectral_selftest"],
              rows)
    assert ((out / "quadcheck.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


# subcommand: config, from the shipped runs of tools/shipped_outputs.py
# that take a second together; diagnose is left out, as its projection
# pencil's GEMM rounds by the thread count
THREAD_RUNS = {
    "quadcheck": "configs/circle.json",
    "project": "configs/circle.json",
    "heat": {"n_cells": [48], "scheme": "CrankNicolson", "t_final": 0.1,
             "data": "forced_mode_2", "dt_rule": "h2/4"},
    "converge": {"n_cells": [24, 32, 48], "radius": 0.8,
                 "center": [0.05, -0.03], "scheme": "BDF2", "t_final": 0.25,
                 "data": "forced_mode_2", "dt_rule": "h2/4"},
    "dtsweep": "configs/dtsweep.json",
}


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # quadcheck's spectral self-test sums without BLAS, whose dot product
    # rounds by the thread count, and no product the other runs write
    # from does: one and two threads write the same bytes.  One child per
    # thread count runs every subcommand
    runs = []
    for sub, cfg in THREAD_RUNS.items():
        if isinstance(cfg, dict):
            path = tmp_path / (sub + ".json")
            path.write_text(json.dumps(cfg))
            cfg = str(path)
        runs.append([sub, "--config", cfg, "--out", sub])
    child = ("import json, sys; from tracefem.cli import main; "
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = [r[:-1] + [str(out / r[-1])] for r in runs]
        proc = run_python("-c", child, json.dumps(argv),
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append({f.relative_to(out): f.read_bytes()
                     for f in sorted(out.rglob("*")) if f.is_file()})
    assert len(outs[0]) >= 2 * len(runs)
    assert outs[0] == outs[1]


def test_cut_stage_memory_is_the_band():
    # the cut stage builds only the band of cells near the circle: at
    # n_cells=768 the full background table alone would take 38 MB
    cfg = load_config(str(ROOT / "configs" / "circle.json"))
    peak, kept, stage = traced_peak(lambda: cut(cfg, 768))
    assert len(stage[2].active) > 0
    assert peak <= 20 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)
    assert kept <= 8 * 2 ** 20, "kept %.1f MB" % (kept / 2 ** 20)


def test_assembly_memory_of_whole_runs():
    # the Gram blocks go over whole runs of elements with equal node
    # counts: at n_cells=768 assembly's traced peak stays below 10 MiB
    # (8.6 MiB measured; 9.7 MiB with runs of at most 128 nodes)
    cfg = load_config(str(ROOT / "configs" / "circle.json"))
    _, _, mesh, topo = cut(cfg, 768)
    peak, _, system = traced_peak(lambda: assemble(mesh, topo))
    assert system.M.nnz > 0
    assert peak < 10 * 2 ** 20, "peak %.1f MiB" % (peak / 2 ** 20)


@pytest.mark.parametrize("sub", ["project", "heat", "diagnose", "dtsweep",
                                 "converge"])
def test_scipy_loaded_before_first_pipeline(tmp_path, sub):
    # no stage time holds module loading: the subcommands that solve have
    # scipy's sparse solvers loaded when their first Pipeline starts
    cfg = write_cfg(tmp_path / "c.json", t_final=0.02, dt_list=[1e-3],
                    n_cells=[12] if sub in ONE_MESH else [12, 16, 24])
    code = ("import sys\nfrom tracefem import cli\n"
            "init, loaded = cli.Pipeline.__init__, []\n"
            "def spy(self, *args, **kwargs):\n"
            "    loaded.append('scipy.sparse.linalg' in sys.modules)\n"
            "    init(self, *args, **kwargs)\n"
            "cli.Pipeline.__init__ = spy\n"
            "rc = cli.main(sys.argv[1:])\n"
            "sys.exit(rc or (None if loaded and loaded[0] else "
            "'no Pipeline, or the first started without scipy'))")
    proc = run_python("-c", code, sub, "--config", cfg,
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
