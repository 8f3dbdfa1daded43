import dataclasses

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla

from tracefem.assembly import (FourierProbe, _element_runs, _gram, _moments,
                               assemble, assemble_fourier, export_matrices)
from tracefem.cutquad import build_topology, oscillation_order
from tracefem.errors import AliasRisk
from tracefem.geometry import LevelSetSurface
from tracefem.mesh import build_background, select_active

from conftest import BBOX, K_MAX, LADDER


def _topology(radius, n, k_max=K_MAX, q_surf=None):
    """The cut of the centred circle of the given radius on the n-cell
    mesh, with the order oscillation_order gives unless q_surf is set."""
    surface = LevelSetSurface.circle((0.0, 0.0), radius)
    mesh = select_active(build_background(BBOX, n), surface)
    if q_surf is None:
        q_surf = oscillation_order(k_max, mesh.h, radius)
    return build_topology(surface, mesh, q_surf=q_surf)


def direct_gram(probe, topology):
    """The Gram matrix of the Fourier basis under the surface nodes, as
    one product of the full node-by-mode basis table."""
    basis = probe.eval_basis(topology.theta)
    return (basis * topology.w[:, None]).T @ basis


class TestGramMatrices:
    def test_circumference(self, setup96):
        m = setup96.system.M
        one = np.ones(m.shape[0])
        assert one @ (m @ one) == pytest.approx(2 * np.pi, rel=1e-10)

    def test_constants_in_kernel(self, setup96):
        sy = setup96.system
        one = np.ones(sy.n_dofs)
        scale = abs(sy.A).max() + sum(abs(sy.S[j]).max() for j in (-1, 0, 1))
        assert abs(sy.A @ one).max() <= 1e-12 * scale
        for j in (-1, 0, 1):
            assert abs(sy.S[j] @ one).max() <= 1e-12 * scale

    def test_symmetry(self, setup96):
        sy = setup96.system
        for m in (sy.M, sy.A, sy.S[-1], sy.S[0], sy.S[1], sy.D):
            d = abs(m - m.T).max()
            assert d <= 1e-13 * max(abs(m).max(), 1e-300)

    def test_scaling_audit(self, setup48):
        # doubling every h_T rescales S_j by 2^(1-2j) with the same S_T
        mesh2 = dataclasses.replace(setup48.mesh, h_T=2.0 * setup48.mesh.h_T)
        sy2 = assemble(mesh2, setup48.topology)
        sy = setup48.system
        for j, factor in ((0, 2.0), (1, 0.5), (-1, 8.0)):
            d = abs(sy2.S[j] - factor * sy.S[j]).max()
            assert d <= 1e-12 * abs(sy.S[j]).max()

    def test_positive_definite_factorizable(self, setup48):
        sy = setup48.system
        for mat in (sy.M_star, sy.K_star, sy.K_aux):
            # Cholesky succeeds iff the matrix is positive definite
            sla.cholesky(mat.toarray())

    def test_scaling_duality(self, setup96):
        sy = setup96.system
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(sy.n_dofs)
            s0 = x @ (sy.S[0] @ x)
            s1 = x @ (sy.S[1] @ x)
            sm1 = x @ (sy.S[-1] @ x)
            assert s0 ** 2 <= s1 * sm1 + 1e-12
            # uniform h_T: equality
            assert s0 ** 2 == pytest.approx(s1 * sm1, rel=1e-12)

    def test_laplace_spectrum(self, setup96):
        sy = setup96.system
        k = (sy.A + sy.S[1]).toarray()
        m = sy.M_star.toarray()
        w = sla.eigh(k, m, eigvals_only=True, subset_by_index=[0, 4])
        target = np.array([0.0, 1.0, 1.0, 4.0, 4.0])
        assert abs(w[0]) <= 0.02
        assert np.abs(w[1:] / target[1:] - 1.0).max() <= 0.02


class TestLoadVectors:
    def test_constant_gives_mass_rows(self, setup48):
        s = setup48
        b = s.ops.riesz_data(lambda th: np.ones_like(th))
        rows = s.system.M @ np.ones(s.system.n_dofs)
        assert np.abs(b - rows).max() <= 1e-12

    def test_cos_integral_zero(self, setup48):
        b = setup48.ops.riesz_data(np.cos)
        assert abs(b.sum()) <= 1e-10

    def test_cos2_integral_pi(self, setup48):
        b = setup48.ops.riesz_data(lambda th: np.cos(th) ** 2)
        assert b.sum() == pytest.approx(np.pi, abs=1e-10)


class TestFourierProbe:
    def test_orthonormality(self, ladder):
        for s in ladder.values():
            assert s.probe.orthonormality_defect <= 1e-9

    def test_constant_mode_column(self, setup48):
        s = setup48
        col = s.probe.G[:, 0]
        expect = (s.system.M @ np.ones(s.system.n_dofs)) / np.sqrt(2 * np.pi)
        assert np.abs(col - expect).max() <= 1e-10

    def test_mode_l2_norms(self, setup48):
        topo = setup48.topology
        for k in (1, 8, 32, 64):
            acc = float(topo.w @ np.cos(k * topo.theta) ** 2)
            assert acc == pytest.approx(np.pi, abs=1e-10)

    def test_alias_risk(self, setup48):
        with pytest.raises(AliasRisk):
            assemble_fourier(setup48.topology, k_max=4096)

    @pytest.mark.parametrize("radius", [0.5, 0.35])
    def test_orthonormal_below_unit_radius(self, radius):
        # an arc of length h spans h / R radians; an order that ignored R
        # left defects of 4.9e-7 (R = 0.5) and 1.3e-4 (R = 0.35) here
        probe = assemble_fourier(_topology(radius, 96), K_MAX)
        assert probe.orthonormality_defect <= 1e-12

    def test_order_unchanged_at_unit_radius(self, ladder):
        expect = {48: 16, 96: 10, 192: 10}      # max(10, ceil(k_max h) + 4)
        for n in LADDER:
            h = ladder[n].mesh.h
            assert oscillation_order(K_MAX, h, 1.0) == expect[n]
            assert ladder[n].topology.q_surf == expect[n]

    def test_gram_shape(self, setup48):
        p = setup48.probe
        assert p.G.shape == (setup48.system.n_dofs, 2 * p.k_max + 1)
        assert p.H1_gram[0] == 1.0
        assert p.H1_gram[1] == pytest.approx(2.0)   # 1 + 1^2


class TestGramFromMoments:
    """The Gram matrix built from the weighted moments by product-to-sum
    against the direct product of the basis table, within 1e-12 of the
    largest entry; the probe's defect is read from the former."""

    @staticmethod
    def _both(probe, topology):
        moments = sum(_moments(probe.eval_basis(topology.theta[nodes]),
                               topology.w[nodes], probe.radius)
                      for _, nodes, _ in _element_runs(topology))
        return _gram(moments), direct_gram(probe, topology)

    def test_ladder_and_off_centre(self, ladder, off_centre96):
        for s in list(ladder.values()) + [off_centre96]:
            moments, direct = self._both(s.probe, s.topology)
            scale = np.abs(direct).max()
            assert np.abs(moments - direct).max() <= 1e-12 * scale
            eye = np.eye(s.probe.n_modes)
            assert abs(s.probe.orthonormality_defect
                       - np.abs(direct - eye).max()) <= 1e-12 * scale

    def test_under_resolved_nodes(self):
        # two Gauss points per arc cannot integrate modes up to 16: the
        # defect is real, and the moment route must reproduce it
        probe = FourierProbe(k_max=16, radius=0.7, H1_gram=None, Hm1_gram=None)
        moments, direct = self._both(probe, _topology(0.7, 48, q_surf=2))
        eye = np.eye(probe.n_modes)
        defect = np.abs(direct - eye).max()
        assert defect >= 1e-8
        scale = np.abs(direct).max()
        assert np.abs(moments - direct).max() <= 1e-12 * scale
        assert abs(np.abs(moments - eye).max() - defect) <= 1e-12 * scale


def test_matrix_market_roundtrip(tmp_path, setup48):
    export_matrices(setup48.system, tmp_path, prefix="t_")
    m = scipy.io.mmread(tmp_path / "t_M.mtx")
    assert (abs(m - setup48.system.M)).max() <= 1e-12
    k = scipy.io.mmread(tmp_path / "t_K_star.mtx")
    assert (abs(k - setup48.system.K_star)).max() <= 1e-12
