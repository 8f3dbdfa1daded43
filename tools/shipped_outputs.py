"""The outputs of the shipped runs: python tools/shipped_outputs.py OUT

Run it from the root of a checkout.  Each of the fourteen runs below goes
through the CLI of that checkout's ``src`` in a fresh interpreter with
one BLAS thread, and writes its files into ``OUT/<run>/``.  The exit is
non-zero, naming the run, at the first run that fails.  To check that a
change leaves the outputs as they were, run the tool in both checkouts
and compare the two directories with ``diff -r``.
"""

import json
import os
import subprocess
import sys
import tempfile

HEAT = {"scheme": "BDF2", "data": "forced_mode_2", "dt_rule": "h2/4"}
with open("configs/circle.json") as fh:
    CIRCLE = json.load(fh)
S = 2.0 ** -10
# run: (subcommand, config file or config, extra arguments)
RUNS = {
    "quadcheck": ("quadcheck", "configs/circle.json", []),
    "project": ("project", "configs/circle.json", []),
    "converge": ("converge", "configs/circle.json", []),
    "diagnose": ("diagnose", "configs/circle.json", ["--seed", "7"]),
    "dtsweep": ("dtsweep", "configs/dtsweep.json", []),
    "dtsweep-literal": ("dtsweep", "configs/dtsweep.json",
                        ["--literal-eq-matrices"]),
    "heat-192-bdf2": ("heat", dict(HEAT, n_cells=[192], t_final=0.25), []),
    "heat-48-cn": ("heat", dict(HEAT, n_cells=[48], scheme="CrankNicolson",
                                t_final=0.1), []),
    "heat-48-no-time-stab": ("heat", dict(HEAT, n_cells=[48], t_final=0.1),
                             ["--no-time-stab"]),
    # off the unit circle about the origin, where no division by R^2 is exact
    "converge-r08": ("converge", dict(HEAT, radius=0.8, center=[0.05, -0.03],
                                      n_cells=[24, 32, 48], t_final=0.25), []),
    # the shipped problem with every length multiplied by S
    "project-scaled": ("project", dict(
        CIRCLE, center=[S * v for v in CIRCLE["center"]],
        radius=S * CIRCLE["radius"], bbox=[S * v for v in CIRCLE["bbox"]]),
        []),
    # tangent to the grid lines x = +-1 between two vertices
    "project-grazing": ("project", dict(CIRCLE, center=[0.0, 0.1]), []),
    # every assembled matrix at full precision, off the origin
    "project-export": ("project", dict(
        CIRCLE, export_matrices=True, n_cells=[24, 32, 48],
        center=[0.05, -0.03]), []),
    # exactly through grid vertices off the axes on every rung: the four
    # (0.125 +- 0.75, 0.0625 +- 0.3125), 0.8125 away by 5-12-13 / 16
    "project-vertices": ("project", dict(
        CIRCLE, center=[0.125, 0.0625], radius=0.8125, n_cells=[24, 48, 96]),
        []),
}


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.splitlines()[0])
    out = os.path.abspath(argv[0])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH="src")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (subcommand, config, extra) in RUNS.items():
            if isinstance(config, dict):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as fh:
                    json.dump(config, fh)
                config = path
            proc = subprocess.run(
                [sys.executable, "-m", "tracefem.cli", subcommand,
                 "--config", config, "--out", os.path.join(out, name)]
                + extra, env=env)
            if proc.returncode:
                sys.exit("%s failed with exit code %d"
                         % (name, proc.returncode))


if __name__ == "__main__":
    main(sys.argv[1:])
