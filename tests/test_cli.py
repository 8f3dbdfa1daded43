import json
import os
import pathlib
import subprocess
import sys

import pytest
import scipy.sparse.linalg as spla

import tracefem
from tracefem import heatsolver
from tracefem.cli import (EXIT_ASSUMPTION, EXIT_CONFIG, EXIT_NUMERICAL,
                          EXIT_OK, _KEYS, Pipeline, _heat_run, fmt,
                          load_config, main)
from tracefem.heatsolver import MANUFACTURED
from tracefem.mesh import write_vtk
from tracefem.operators import DiscreteOperators


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
]


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(*argv):
    """The CLI in a fresh interpreter, so warnings reach its real stderr:
    (exit code, stderr lines)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tracefem.__file__)
                                          .parents[1]))
    proc = subprocess.run([sys.executable, "-m", "tracefem.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr.splitlines()


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

    @pytest.mark.parametrize("sub", ["quadcheck", "project", "heat",
                                     "diagnose", "dtsweep", "converge"])
    def test_resolution_violation(self, tmp_path, capsys, sub):
        cfg = write_cfg(tmp_path / "c.json", radius=0.05, n_cells=[8, 12, 16])
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

    def test_heat(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", n_cells=[16])
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "heat.csv").read_text().splitlines()
        assert lines[0] == "t,l2_star,mean,e_l2_star"
        assert len(lines) > 2

    def test_heat_vtk_series(self, tmp_path, monkeypatch, trajectory):
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

        # every 7th state of a run handed out 16 states at a time, byte for
        # byte as written from the whole trajectory
        monkeypatch.setattr(heatsolver, "CHUNK", 16)
        cfg = write_cfg(tmp_path / "c7.json", n_cells=[16], vtk_every=7,
                        t_final=0.3, scheme="CrankNicolson",
                        data="forced_mode_2")
        out, ref = tmp_path / "out7", tmp_path / "ref7"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == EXIT_OK
        conf = load_config(cfg)
        pipe = Pipeline(conf, 16)
        result, hist = trajectory(pipe.ops, _heat_run(
            conf, pipe, MANUFACTURED["forced_mode_2"]))
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
        # (h = 0.177); the probe needs that bound only, not the default 10
        cfg = write_cfg(tmp_path / "c.json", n_cells=[24, 32, 48], q_surf=4,
                        k_max=16)
        out = tmp_path / "out"
        assert main(["project", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len((out / "project.csv").read_text().splitlines()) == 4

    def test_converge(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", n_cells=[12, 16, 24],
                        t_final=0.02)
        out = tmp_path / "out"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "converge.csv").exists()
        assert (out / "converge_rates.csv").exists()
        assert (out / "converge.dat").exists()

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

    def test_grazing_run_fails_in_one_line(self, tmp_path):
        # the circle grazes mesh edges at n_cells=48; the dropped
        # contacts are counted, not printed
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_cells":[48],"q_surf":1,"k_max":1}')
        code, err = run_cli("quadcheck", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

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
        assert err == ("numerical failure: diagnose audit failed: "
                       "sandwich_pass on n16")
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].endswith(",0,1")


class TestDeterminism:
    def _run_twice(self, tmp_path, sub, name, **overrides):
        cfg = write_cfg(tmp_path / "c.json", **overrides)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main([sub, "--config", cfg, "--out", str(out),
                         "--seed", "42"]) == EXIT_OK
            outs.append((out / name).read_bytes())
        assert outs[0] == outs[1]

    def test_diagnose_bytes(self, tmp_path):
        self._run_twice(tmp_path, "diagnose", "diagnose.csv", n_cells=[16])

    def test_dtsweep_bytes(self, tmp_path):
        self._run_twice(tmp_path, "dtsweep", "dtsweep.csv", n_cells=[16],
                        dt_list=[1e-2, 1e-5])

    def test_heat_bytes(self, tmp_path):
        self._run_twice(tmp_path, "heat", "heat.csv", n_cells=[16])


def test_fmt_stability():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(3) == "3"
    assert fmt(True) == "1"
    assert fmt("h2/4") == "h2/4"
