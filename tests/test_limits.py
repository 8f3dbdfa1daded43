"""The pass/fail limits are frozen, and the benchmark's copy agrees.

``errors.LIMITS`` must hold the eight documented values: no limit
changes value.  ``perfbench/gates.QUADCHECK_LIMITS`` holds quadcheck's
three limits for the benchmark and must equal the table's rows for them,
so a change to either side alone fails here.  A breach is reported as
"name value > limit", and a NaN value is a breach.
"""

import math
import sys
from pathlib import Path

from tracefem.errors import LIMITS, breaches

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from gates import QUADCHECK_LIMITS  # noqa: E402

DOCUMENTED = {
    "rel_err": 1e-10,
    "cover_defect": 1e-10,
    "spectral_selftest": 1e-11,
    "sandwich_slack": 1.02,
    "lambda_excess": 1e-9,
    "solve_residual": 1e-12,
    "lanczos_tol": 1e-12,
    "pair_residual": 1e-8,
}


def test_limits_are_the_documented_values():
    assert LIMITS == DOCUMENTED


def test_gates_hold_quadchecks_rows():
    assert QUADCHECK_LIMITS == {name: LIMITS[name] for name in
                                ("rel_err", "cover_defect",
                                 "spectral_selftest")}


def test_breaches_name_value_and_limit():
    assert breaches([("rel_err", 1.2e-9), ("cover_defect", 1e-10)]) == [
        "rel_err 1.2e-09 > 1e-10"]
    assert breaches([("sandwich_slack", math.inf),
                     ("lambda_excess", math.nan)]) == [
        "sandwich_slack inf > 1.02", "lambda_excess nan > 1e-09"]
