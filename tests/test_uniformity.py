"""The constants of the theory stay bounded in h and over circle placements.

The paper claims ||P_h||_H1*, C_inv,h and the conditioning of the
stabilized matrices are bounded uniformly in h, independently of how
the circle cuts the bulk mesh.  ``test_constants_uniform_to_768`` checks
the criterion-3 and criterion-6 bounds on the ladder 48...768 (marked
slow); ``test_cut_independence`` checks the variation over 48/96/192 for
each of six fixed placements, including vertex hits and a radius near
the resolution limit; ``test_tangent_row`` checks a row of circles
tangent to grid lines, at vertices and between them.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from tracefem import diagnostics as dg
from tracefem.cli import Pipeline

from conftest import CONFIG, LADDER

LONG_LADDER = LADDER + (384, 768)
DTS = [2.0 ** (-e) for e in range(4, 25)]     # the shipped dtsweep list

# (center, radius); None centres the circle half a cell of each rung
# off the origin in x and y
PLACEMENTS = {
    "through_vertices": ((0.0, 0.0), 1.0),
    "near_vertex_hit": ((0.0, 0.0), 1.0 + 1e-9),
    "off_centre": ((0.13, -0.07), 1.0),
    "half_cell_shift": (None, 1.0),
    "radius_0.8": ((0.0, 0.0), 0.8),
    "radius_0.25": ((0.0, 0.0), 0.25),
}


def variation(values):
    return max(values) / min(values)


@pytest.mark.slow
def test_constants_uniform_to_768():
    reports, plateau = [], []
    for n in LONG_LADDER:
        s = Pipeline(CONFIG, n)
        reports.append(dg.constants_report(s.ops))
        plateau += [dg.condition_number(s.system, dt, stabilized_time=True)
                    for dt in DTS if dt <= s.mesh.h ** 2]
    # criterion 3
    assert variation([r.norm_Ph_H1star for r in reports]) <= 2.0
    assert variation([r.C_inv_h for r in reports]) <= 2.0
    # criterion 6, with the kappa(B_*) plateau pooled over the ladder
    assert variation(plateau) <= 10.0
    assert variation([r.kappa_Pstar for r in reports]) <= 2.0


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_cut_independence(placement):
    center, radius = PLACEMENTS[placement]
    reports = []
    for n in LADDER:
        h_cell = (CONFIG["bbox"][1] - CONFIG["bbox"][0]) / n
        c = (h_cell / 2, h_cell / 2) if center is None else center
        s = Pipeline(dict(CONFIG, center=c, radius=radius), n)
        reports.append(dg.constants_report(s.ops))
    for name in ("norm_Ph_H1star", "C_inv_h", "kappa_Pstar"):
        assert variation([getattr(r, name) for r in reports]) <= 2.0, name


def test_tangent_row():
    # c_x = 0 puts the tangent points (+-1, c_y) of the unit circle on the
    # grid lines x = +-1 of the n=48 mesh: between two vertices for the 12
    # offsets of c_y inside one cell, at a vertex for the two ends.  Over
    # the row, kappa(M + S0) stays within 41.3 - 49.5 and ||P_h||_H1*
    # varies by 1.002, while M is singular: a vertex that only elements
    # touching Gamma at a point share carries no mass (dense eigenvalues,
    # as in test_diagnostics.test_s0_contrast).
    h = (CONFIG["bbox"][1] - CONFIG["bbox"][0]) / 48
    norms = []
    for c_y in h * np.arange(14) / 13:
        s = Pipeline(dict(CONFIG, center=(0.0, c_y)), 48)
        lam_m, lam_star = (sla.eigvalsh(m.toarray())
                           for m in (s.system.M, s.system.M_star))
        assert lam_star[-1] / lam_star[0] <= 100.0, c_y
        assert lam_m[0] <= 1e-5 * lam_m[-1], c_y
        norms.append(dg.op_norms_ph(s.ops)[1])
    assert variation(norms) <= 1.1
