import dataclasses

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla

from tracefem import assembly
from tracefem.assembly import assemble, assemble_fourier, export_matrices
from tracefem.cutquad import build_topology, oscillation_order
from tracefem.errors import AliasRisk
from tracefem.geometry import LevelSetSurface
from tracefem.heatsolver import BLOCK, MANUFACTURED
from tracefem.mesh import build_background, select_active
from tracefem.operators import ONE, DiscreteOperators

from conftest import BBOX, K_MAX, LADDER
from helpers import traced_peak


def _topology(radius, n):
    """The cut of the centred circle of the given radius on the n-cell
    mesh, with the order oscillation_order gives."""
    surface = LevelSetSurface.circle((0.0, 0.0), radius)
    mesh = select_active(build_background(BBOX, n), surface)
    q_surf = oscillation_order(K_MAX, mesh.h, radius)
    return build_topology(surface, mesh, q_surf=q_surf)


def direct_gram(probe, topology):
    """The Gram matrix of the Fourier basis under the surface nodes, as
    one product of the full node-by-mode basis table."""
    basis = probe.eval_basis(topology.theta)
    return (basis * topology.w[:, None]).T @ basis


def orthonormality_defect(probe, topology):
    """Largest entry of |direct_gram - I|."""
    return np.abs(direct_gram(probe, topology) - np.eye(probe.n_modes)).max()


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
        for mat in (sy.M_star, sy.K_star, sy.K_star + sy.S[0]):
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
        b = s.ops.riesz_data(np.ones_like, ONE)[0]
        rows = s.system.M @ np.ones(s.system.n_dofs)
        assert np.abs(b - rows).max() <= 1e-12

    def test_cos_integral_zero(self, setup48):
        b = setup48.ops.riesz_data(np.cos, ONE)[0]
        assert abs(b.sum()) <= 1e-10

    def test_cos2_integral_pi(self, setup48):
        b = setup48.ops.riesz_data(lambda th: np.cos(th) ** 2, ONE)[0]
        assert b.sum() == pytest.approx(np.pi, abs=1e-10)

    def test_block_memory_is_the_result(self, setup192):
        # a warm block of forcing data allocates its (BLOCK, n_dofs)
        # result alone: at n=192 the traced peak is 0.13 MiB, against
        # 1.18 MiB for a fresh (n_nodes, BLOCK) node stack per block
        ops = DiscreteOperators(setup192.system, setup192.ops.k_max)
        force = MANUFACTURED["forced_mode_2"](1.0)
        a = force.ftime(0.01 * np.arange(BLOCK))
        ops.riesz_data(force.profile, a)
        peak = traced_peak(lambda: ops.riesz_data(force.profile, a))[0]
        assert peak <= 0.25 * 2 ** 20, "peak %.2f MiB" % (peak / 2 ** 20)


class TestFourierProbe:
    def test_orthonormality(self, ladder):
        for s in ladder.values():
            assert orthonormality_defect(s.ops.probe, s.topology) <= 1e-9

    def test_constant_mode_column(self, setup48):
        s = setup48
        col = s.ops.probe.G[:, 0]
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
        topology = _topology(radius, 96)
        probe = assemble_fourier(topology, K_MAX)
        assert orthonormality_defect(probe, topology) <= 1e-12

    def test_order_unchanged_at_unit_radius(self, ladder):
        expect = {48: 16, 96: 10, 192: 10}      # max(10, ceil(k_max h) + 4)
        for n in LADDER:
            h = ladder[n].mesh.h
            assert oscillation_order(K_MAX, h, 1.0) == expect[n]
            assert ladder[n].topology.q_surf == expect[n]

    @pytest.mark.parametrize("placement", ["setup48", "setup192",
                                           "off_centre96"])
    def test_coupling_independent_of_run_length(self, request, monkeypatch,
                                                placement):
        # the node runs only batch per-element products, so G is the
        # same to the bit for runs of 128 nodes
        topology = request.getfixturevalue(placement).topology
        g = assemble_fourier(topology, K_MAX).G
        monkeypatch.setattr(assembly, "RUN_NODES", 128)
        assert np.array_equal(assemble_fourier(topology, K_MAX).G, g)

    def test_memory_above_coupling(self, setup192):
        # each run's basis table and blocks stay below glibc's 128 KiB
        # mmap threshold: at n=192 the traced peak above G is 0.44 MiB,
        # against 1.11 MiB with runs of 128 nodes
        peak, _, probe = traced_peak(
            lambda: assemble_fourier(setup192.topology, K_MAX))
        above = peak - probe.G.nbytes
        assert above <= 0.6 * 2 ** 20, "%.2f MiB above G" % (above / 2 ** 20)

    def test_gram_shape(self, setup48):
        p = setup48.ops.probe
        assert p.G.shape == (setup48.system.n_dofs, 2 * p.k_max + 1)
        assert p.H1_gram[0] == 1.0
        assert p.H1_gram[1] == pytest.approx(2.0)   # 1 + 1^2

    @pytest.mark.parametrize("placement", ["setup48", "off_centre96"])
    def test_grams_closed_form(self, request, placement):
        # the probe holds k_max, R and G alone; its Grams, formed from
        # them on read, are 1 + k^2/R^2 and its reciprocal to the bit at
        # R = 1 and R = 0.8
        fields = dataclasses.fields(assembly.FourierProbe)
        assert [f.name for f in fields] == ["k_max", "radius", "G"]
        p = request.getfixturevalue(placement).ops.probe
        k = np.zeros(p.n_modes)
        k[1::2] = k[2::2] = np.arange(1, p.k_max + 1)
        assert np.array_equal(p.H1_gram, 1.0 + k ** 2 / p.radius ** 2)
        assert np.array_equal(p.Hm1_gram, 1.0 / (1.0 + k ** 2 / p.radius ** 2))


class TestFunctionCoefficients:
    """(v, e_m)_Gamma in closed form, to 1e-13 absolute: the basis is
    orthonormal, so each case below has a single non-zero mode."""

    TOL = 1e-13

    @pytest.fixture(params=["setup48", "off_centre96"],
                    ids=["centred-unit", "off-centre-R0.8"])
    def probe(self, request):
        return request.getfixturevalue(request.param).ops.probe

    def _expect(self, probe, mode, value):
        out = np.zeros(probe.n_modes)
        out[mode] = value
        return out

    def test_constant(self, probe):
        r = probe.radius
        coef = probe.coefficients(np.ones_like, ONE)[0]
        assert coef.shape == (probe.n_modes,)
        expect = self._expect(probe, 0, np.sqrt(2.0 * np.pi * r))
        assert np.abs(coef - expect).max() <= self.TOL

    def test_cos_theta(self, probe):
        r = probe.radius
        coef = probe.coefficients(np.cos, ONE)[0]
        expect = self._expect(probe, 1, np.sqrt(np.pi * r))
        assert np.abs(coef - expect).max() <= self.TOL

    def test_cos_2theta_over_times(self, probe):
        r = probe.radius
        times = np.linspace(0.0, 2.0, 11)
        coef = probe.coefficients(lambda th: np.cos(2.0 * th),
                                  np.exp(-times))
        assert coef.shape == (len(times), probe.n_modes)
        for t, row in zip(times, coef):
            expect = self._expect(probe, 3, np.exp(-t) * np.sqrt(np.pi * r))
            assert np.abs(row - expect).max() <= self.TOL

    def test_sin_kmax_theta(self, probe):
        r, k_max = probe.radius, probe.k_max
        coef = probe.coefficients(lambda th: np.sin(k_max * th), ONE)[0]
        expect = self._expect(probe, 2 * k_max, np.sqrt(np.pi * r))
        assert np.abs(coef - expect).max() <= self.TOL

    def test_higher_frequencies_vanish(self, probe):
        # The rule is exact below degree M - k_max, M = 4 k_max + 4, so
        # frequencies up to 3 k_max + 3 are orthogonal to every mode.  The
        # rounded angles j theta are off by at most 2 u 2 pi j, which
        # bounds the error of each coefficient by 2 pi R s u (4 pi j + 2)
        # with |e_m| <= s = 1 / sqrt(pi R).
        r, k_max = probe.radius, probe.k_max
        u = np.finfo(float).eps / 2
        for j in (k_max + 1, 2 * k_max + 2, 3 * k_max + 3):
            coef = probe.coefficients(lambda th: np.cos(j * th), ONE)
            tol = 2.0 * np.pi * np.sqrt(r / np.pi) * u * (4 * np.pi * j + 2)
            assert np.abs(coef).max() <= tol, (j, np.abs(coef).max(), tol)


def test_matrix_market_roundtrip(tmp_path, setup48):
    export_matrices(setup48.system, tmp_path, prefix="t_")
    m = scipy.io.mmread(tmp_path / "t_M.mtx")
    assert (abs(m - setup48.system.M)).max() <= 1e-12
    k = scipy.io.mmread(tmp_path / "t_K_star.mtx")
    assert (abs(k - setup48.system.K_star)).max() <= 1e-12
