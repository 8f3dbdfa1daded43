import numpy as np
import pytest
import scipy.sparse as sp

from tracefem.assembly import assemble_fourier
from tracefem.errors import SolveFailure
from tracefem.operators import _Factor


def _fit_ratio(coarse, fine):
    return coarse / fine


class _SkewedLU:
    """LU stand-in for the identity that adds err[j] to column j of each
    solve; the first ``skewed`` calls only, then exact."""

    def __init__(self, err, skewed=None):
        self.err, self.skewed = np.asarray(err), skewed

    def solve(self, b):
        if self.skewed == 0:
            return b.copy()
        if self.skewed is not None:
            self.skewed -= 1
        return b + (self.err[-b.shape[1]:] if b.ndim == 2 else self.err[-1])


class TestFactor:
    N = 50

    def _factor(self, lu):
        f = _Factor(sp.identity(self.N, format="csc"), "I")
        f.lu = lu
        return f

    def test_small_bad_column_not_hidden(self):
        # column 0 is 1e6 times larger; its residual is zero, so the 1e-9
        # error of column 1 is 1e-15 of the whole right-hand side
        b = np.column_stack([1e6 * np.ones(self.N), np.ones(self.N)])
        with pytest.raises(SolveFailure):
            self._factor(_SkewedLU([0.0, 1e-9])).solve(b)

    def test_refines_only_failing_columns(self):
        b = np.column_stack([1e6 * np.ones(self.N), np.ones(self.N)])
        x = self._factor(_SkewedLU([1e-7, 1e-9], skewed=1)).solve(b)
        assert np.array_equal(x[:, 0], b[:, 0] + 1e-7)   # within tolerance
        assert np.array_equal(x[:, 1], b[:, 1])           # refined

    def test_one_vector(self):
        b = np.arange(1.0, self.N + 1)
        assert np.array_equal(self._factor(_SkewedLU([1e-9], skewed=1)).solve(b), b)


class TestProjection:
    def test_preserves_constants(self, setup48):
        x = setup48.ops.project(lambda th: np.ones_like(th))
        assert np.abs(x - 1.0).max() <= 1e-11

    def test_galerkin_orthogonality(self, setup96):
        s = setup96
        b = s.ops.riesz_data(np.cos)
        x = s.ops.project(b)
        res = b - s.system.M_star @ x
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(b)

    def test_symmetry_relation(self, setup96):
        # <l, P_h v> = <P_h l, v> for l = Riesz data of sin, v = cos 2theta
        s = setup96
        b_l = s.ops.riesz_data(np.sin)
        b_v = s.ops.riesz_data(lambda th: np.cos(2 * th))
        x_v = s.ops.project(b_v)
        x_l = s.ops.project(b_l)
        lhs = float(b_l @ x_v)
        rhs = float(x_l @ b_v)
        assert abs(lhs - rhs) <= 1e-11

    def test_homogeneity(self, setup48):
        s = setup48
        x = s.ops.project(np.cos)
        y = s.ops.project(lambda th: 7.5 * np.cos(th))
        assert np.abs(y - 7.5 * x).max() <= 1e-11

    def test_l2_rate_pair(self, setup48, setup96):
        # halving h divides E_L2* by about 4
        e = [s.ops.error_l2_star(np.cos, s.ops.project(np.cos))
             for s in (setup48, setup96)]
        assert 3.4 <= _fit_ratio(*e) <= 4.6

    def test_h1_rate_pair(self, setup48, setup96):
        dcos = lambda th: -np.sin(th)
        e = [s.ops.error_h1_star(np.cos, dcos, s.ops.project(np.cos))
             for s in (setup48, setup96)]
        assert 1.7 <= _fit_ratio(*e) <= 2.3

    def test_best_approximation(self, setup96):
        s = setup96
        v = lambda th: np.cos(3 * th)
        x = s.ops.project(v)
        e_star = s.ops.error_l2_star(v, x)
        rng = np.random.default_rng(11)
        for _ in range(20):
            comp = x + rng.standard_normal(len(x)) * 0.1
            assert e_star <= s.ops.error_l2_star(v, comp) + 1e-12
        interp = s.ops.nodal_interpolant(v)
        assert e_star <= s.ops.error_l2_star(v, interp) + 1e-12

    def test_l2_star_stability(self, setup96):
        # ||P_h v||_L2* <= ||v||_L2 for random trigonometric polynomials
        s = setup96
        rng = np.random.default_rng(5)
        for _ in range(20):
            ks = rng.integers(0, 9, size=4)
            cs = rng.standard_normal(4)

            def v(th, ks=ks, cs=cs):
                return sum(c * np.cos(k * th) for k, c in zip(ks, cs))

            x = s.ops.project(v)
            assert s.ops.l2_star(x) <= \
                s.ops.l2_gamma_of_function(v) * (1 + 1e-10)

    def test_riesz_vector_route(self, setup48):
        s = setup48
        x1 = s.ops.project(s.ops.riesz_data(np.sin))
        x2 = s.ops.project(np.sin)
        assert np.array_equal(x1, x2)

    def test_fourier_data_route(self, setup48):
        s = setup48
        c = np.zeros(s.probe.n_modes)
        c[1] = np.sqrt(np.pi)          # cos(theta) in the orthonormal basis
        x1 = s.ops.project(s.probe.G @ c)
        x2 = s.ops.project(np.cos)
        assert np.abs(x1 - x2).max() <= 1e-9


class TestLaplacian:
    def test_kills_constants(self, setup48):
        d = setup48.ops.laplacian(np.ones(setup48.system.n_dofs))
        assert np.abs(d).max() <= 1e-11

    def test_sign_and_scale_on_eigenmode(self, setup96):
        # -Laplace(cos) = cos on the unit circle; the discrete operator
        # carries the positive sign
        s = setup96
        x = s.ops.project(np.cos)
        d = s.ops.laplacian(x)
        xc = (s.probe.G.T @ x)[1]
        dc = (s.probe.G.T @ d)[1]
        assert 0.9 <= dc / xc <= 1.1

    def test_linearity(self, setup48):
        s = setup48
        rng = np.random.default_rng(2)
        x = rng.standard_normal(s.system.n_dofs)
        y = rng.standard_normal(s.system.n_dofs)
        lhs = s.ops.laplacian(2.0 * x - 3.0 * y)
        rhs = 2.0 * s.ops.laplacian(x) - 3.0 * s.ops.laplacian(y)
        assert np.abs(lhs - rhs).max() <= 1e-11 * max(np.abs(rhs).max(), 1.0)


class TestNorms:
    def test_dual_norm_homogeneity(self, setup48):
        s = setup48
        x = np.random.default_rng(1).standard_normal(s.system.n_dofs)
        assert s.ops.dual_norm(3.5 * x) == \
            pytest.approx(3.5 * s.ops.dual_norm(x), rel=1e-12)

    def test_dual_norm_below_hm1_star(self, setup96):
        s = setup96
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(s.system.n_dofs)
            assert s.ops.dual_norm(x) <= s.ops.hm1_star(x) * (1 + 1e-9) + 1e-9

    @pytest.mark.parametrize("aux_gram", [False, True])
    def test_dual_norm_stack_matches_rows(self, setup48, aux_gram):
        s = setup48
        xs = np.random.default_rng(3).standard_normal((5, s.system.n_dofs))
        stacked = s.ops.dual_norm(xs, aux_gram=aux_gram)
        rows = [s.ops.dual_norm(x, aux_gram=aux_gram) for x in xs]
        assert stacked.shape == (5,)
        assert isinstance(rows[0], float)
        np.testing.assert_allclose(stacked, rows, rtol=1e-13)
        assert s.ops.dual_norm(xs[:0]).shape == (0,)

    def test_aux_gram_variant_smaller(self, setup48):
        s = setup48
        x = np.random.default_rng(6).standard_normal(s.system.n_dofs)
        assert s.ops.dual_norm(x, aux_gram=True) <= s.ops.dual_norm(x) * (1 + 1e-12)

    def test_hm1_of_constant(self, setup48):
        s = setup48
        one = np.ones(s.system.n_dofs)
        assert s.ops.hm1_gamma(one) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-10)

    def test_hm1_kmax_insensitive_for_smooth(self, setup48):
        from tracefem.cutquad import build_topology, oscillation_order
        s = setup48
        x = s.ops.project(np.cos)
        # doubling k_max needs a finer quadrature; rebuild the topology
        q = oscillation_order(256, s.mesh.h, s.surface.radius)
        topo = build_topology(s.surface, s.mesh, q_surf=q)
        vals = []
        for k_max in (128, 256):
            probe = assemble_fourier(topo, k_max=k_max)
            c = probe.G.T @ x
            vals.append(float(np.sqrt(np.sum(c ** 2 * probe.Hm1_gram))))
        assert vals[1] >= vals[0] - 1e-12      # monotone in k_max
        assert abs(vals[1] - vals[0]) <= 1e-8  # tail negligible for smooth

    def test_norm_orderings(self, setup96):
        s = setup96
        rng = np.random.default_rng(9)
        k_star, h1_gram = s.system.K_star, s.system.M + s.system.A
        for _ in range(10):
            x = rng.standard_normal(s.system.n_dofs)
            # ||x||_H1* >= ||x||_H1(Gamma): K_* = M + A + S0 + S1
            assert np.sqrt(x @ (k_star @ x)) >= np.sqrt(x @ (h1_gram @ x)) - 1e-12
            hm1_star = s.ops.hm1_star(x)
            assert hm1_star >= s.ops.hm1_gamma(x) - 1e-12
            assert s.ops.dual_norm(x) <= hm1_star * (1 + 1e-9) + 1e-9


class TestErrorFunctionals:
    def test_exact_constant(self, setup48):
        s = setup48
        one = np.ones(s.system.n_dofs)
        v = lambda th: np.ones_like(th)
        dv = lambda th: np.zeros_like(th)
        assert s.ops.error_l2_star(v, one) <= 1e-11
        assert s.ops.error_h1_star(v, dv, one) <= 1e-11
        assert s.ops.error_hm1_star(s.ops.function_coefficients(v),
                                    one) <= 1e-11

    def test_interpolant_rate(self, setup48, setup96):
        e = [s.ops.error_l2_star(np.cos, s.ops.nodal_interpolant(np.cos))
             for s in (setup48, setup96)]
        assert 3.4 <= e[0] / e[1] <= 4.6

    def test_interpolant_s0_below_total(self, setup96):
        s = setup96
        x = s.ops.nodal_interpolant(np.cos)
        s0 = float(x @ (s.system.S[0] @ x))
        assert s0 <= s.ops.error_l2_star(np.cos, x) ** 2 + 1e-15

    def test_interpolant_constant(self, setup48):
        x = setup48.ops.nodal_interpolant(lambda th: 3.0 * np.ones_like(th))
        assert np.abs(x - 3.0).max() <= 1e-14


class TestFunctionCoefficients:
    """(v, e_m)_Gamma in closed form, to 1e-13 absolute: the basis is
    orthonormal, so each case below has a single non-zero mode."""

    TOL = 1e-13

    @pytest.fixture(params=["setup48", "off_centre96"],
                    ids=["centred-unit", "off-centre-R0.8"])
    def ops(self, request):
        return request.getfixturevalue(request.param).ops

    def _expect(self, ops, mode, value):
        out = np.zeros(ops.probe.n_modes)
        out[mode] = value
        return out

    def test_constant(self, ops):
        r = ops.probe.radius
        coef = ops.function_coefficients(lambda th: np.ones_like(th))
        assert coef.shape == (ops.probe.n_modes,)
        expect = self._expect(ops, 0, np.sqrt(2.0 * np.pi * r))
        assert np.abs(coef - expect).max() <= self.TOL

    def test_cos_theta(self, ops):
        r = ops.probe.radius
        coef = ops.function_coefficients(np.cos)
        expect = self._expect(ops, 1, np.sqrt(np.pi * r))
        assert np.abs(coef - expect).max() <= self.TOL

    def test_cos_2theta_over_times(self, ops):
        r = ops.probe.radius
        times = np.linspace(0.0, 2.0, 11)
        coef = ops.function_coefficients(
            lambda th, t: np.exp(-t) * np.cos(2.0 * th), times)
        assert coef.shape == (len(times), ops.probe.n_modes)
        for t, row in zip(times, coef):
            expect = self._expect(ops, 3, np.exp(-t) * np.sqrt(np.pi * r))
            assert np.abs(row - expect).max() <= self.TOL

    def test_sin_kmax_theta(self, ops):
        r, k_max = ops.probe.radius, ops.probe.k_max
        coef = ops.function_coefficients(lambda th: np.sin(k_max * th))
        expect = self._expect(ops, 2 * k_max, np.sqrt(np.pi * r))
        assert np.abs(coef - expect).max() <= self.TOL

    def test_higher_frequencies_vanish(self, ops):
        # The rule is exact below degree M - k_max, M = 4 k_max + 4, so
        # frequencies up to 3 k_max + 3 are orthogonal to every mode.  The
        # rounded angles j theta are off by at most 2 u 2 pi j, which
        # bounds the error of each coefficient by 2 pi R s u (4 pi j + 2)
        # with |e_m| <= s = 1 / sqrt(pi R).
        r, k_max = ops.probe.radius, ops.probe.k_max
        u = np.finfo(float).eps / 2
        for j in (k_max + 1, 2 * k_max + 2, 3 * k_max + 3):
            coef = ops.function_coefficients(lambda th: np.cos(j * th))
            tol = 2.0 * np.pi * np.sqrt(r / np.pi) * u * (4 * np.pi * j + 2)
            assert np.abs(coef).max() <= tol, (j, np.abs(coef).max(), tol)
