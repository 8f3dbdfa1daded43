"""The correctness gates accept the seed outputs and reject perturbed ones."""

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from gates import REFERENCE_DIR, REFERENCE_FILES, check_outputs, read_csv  # noqa: E402
from run import workload_steps  # noqa: E402


def _outputs(tmp_path, sub):
    """A copy of the reference outputs, as if the CLI had written them."""
    out = tmp_path / "out"
    out.mkdir()
    for name in REFERENCE_FILES[sub]:
        shutil.copy(Path(REFERENCE_DIR) / name, out / name)
    return out


def _perturb(path, row, col, fn):
    header, rows = read_csv(path)
    j = header.index(col)
    rows[row][j] = fn(rows[row][j])
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


@pytest.mark.parametrize("sub", sorted(REFERENCE_FILES))
def test_reference_outputs_pass(tmp_path, sub):
    assert check_outputs(str(_outputs(tmp_path, sub)), [sub]) == []


@pytest.mark.parametrize("sub, name, row, col, factor", [
    ("converge", "converge.csv", 2, "e_total", 1 + 1e-9),
    ("converge", "converge_rates.csv", 0, "rate_e_l2l2", 1 - 1e-8),
    ("diagnose", "diagnose.csv", 1, "C_inv_h", 1 + 1e-7),
    ("dtsweep", "dtsweep.csv", 20, "kappa_B", 1 - 1e-7),
    ("heat", "heat.csv", 4096, "e_l2_star", 1 + 1e-9),
])
def test_perturbed_reference_fails(tmp_path, sub, name, row, col, factor):
    out = _outputs(tmp_path, sub)
    ref = tmp_path / "ref"
    shutil.copytree(REFERENCE_DIR, ref)
    _perturb(ref / name, row, col, lambda v: "%.17g" % (float(v) * factor))
    problems = check_outputs(str(out), [sub], reference_dir=str(ref))
    assert len(problems) == 1 and col in problems[0]


def test_absolute_tolerance_on_heat_mean(tmp_path):
    out = _outputs(tmp_path, "heat")
    _perturb(out / "heat.csv", 7, "mean", lambda v: "%.17g" % (float(v) + 5e-11))
    assert check_outputs(str(out), ["heat"]) == []
    _perturb(out / "heat.csv", 7, "mean", lambda v: "%.17g" % (float(v) + 1e-9))
    assert check_outputs(str(out), ["heat"]) != []


def test_failed_sandwich_flag_fails(tmp_path):
    out = _outputs(tmp_path, "diagnose")
    _perturb(out / "diagnose.csv", 0, "sandwich_pass", lambda v: "0")
    assert any("sandwich_pass" in p for p in check_outputs(str(out), ["diagnose"]))


def test_quadcheck_limits(tmp_path):
    header = ("n_cells,h,n_active,n_dofs,arc_length,rel_err,cover_defect,"
              "max_arcs_per_element,spectral_selftest")
    good = "48,0.088,220,220,6.2831853071795871,1e-16,1e-14,1,1e-15"
    (tmp_path / "quadcheck.csv").write_text(header + "\n" + good + "\n")
    assert check_outputs(str(tmp_path), ["quadcheck"], [48]) == []
    assert check_outputs(str(tmp_path), ["quadcheck"], [48, 96]) != []
    bad = good.replace("1e-14", "2e-10")
    (tmp_path / "quadcheck.csv").write_text(header + "\n" + bad + "\n")
    assert check_outputs(str(tmp_path), ["quadcheck"], [48]) != []


def test_inputs_come_from_the_seed():
    steps = workload_steps("cut-diagnose", 3)
    assert steps == workload_steps("cut-diagnose", 3)
    other = workload_steps("cut-diagnose", 4)
    assert steps[0][1]["center"] != other[0][1]["center"]
    assert steps[1][2] != other[1][2]               # diagnose --seed
    assert all(abs(c) <= 0.5 * 3.0 / 48 for c in steps[0][1]["center"])
    assert workload_steps("converge-heat", 3) == workload_steps("converge-heat", 4)
