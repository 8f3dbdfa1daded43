import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from tracefem.assembly import assemble_fourier
from tracefem.errors import SolveFailure
from tracefem.operators import ONE, DiscreteOperators, _Factor

from helpers import (hm1_gamma, l2_gamma_of_function, laplacian,
                     nodal_interpolant)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_residual_fails_quietly(self, bad, stacked):
        # the exact LU returns the non-finite entry, whose residual is
        # NaN or inf: it must fail the rule, and no warning may print
        b = np.ones(self.N)
        b[3] = bad
        if stacked:
            b = np.column_stack([np.ones(self.N), b])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolveFailure, match="solve with I:"):
                self._factor(_SkewedLU([0.0, 0.0], skewed=0)).solve(b)


class TestProjection:
    def test_preserves_constants(self, setup48):
        x = setup48.ops.project(np.ones_like, ONE)
        assert x.shape == (1, setup48.system.n_dofs)
        assert np.abs(x - 1.0).max() <= 1e-11

    def test_stacked_factors_give_one_row_each(self, setup48):
        # a stack of factors a (3,) projects to rows (3, n_dofs), each
        # bit for bit the projection with its factor alone
        ops, a = setup48.ops, np.array([1.0, -2.5, 0.3])
        x = ops.project(np.cos, a)
        assert x.shape == (3, setup48.system.n_dofs)
        for i in range(3):
            assert np.array_equal(x[i], ops.project(np.cos, a[i:i + 1])[0])

    def test_galerkin_orthogonality(self, setup96):
        s = setup96
        b = s.ops.riesz_data(np.cos, ONE)[0]
        x = s.ops.mstar.solve(b)
        res = b - s.system.M_star @ x
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(b)

    def test_symmetry_relation(self, setup96):
        # <l, P_h v> = <P_h l, v> for l = Riesz data of sin, v = cos 2theta
        s = setup96
        b_l = s.ops.riesz_data(np.sin, ONE)[0]
        b_v = s.ops.riesz_data(lambda th: np.cos(2 * th), ONE)[0]
        x_v = s.ops.mstar.solve(b_v)
        x_l = s.ops.mstar.solve(b_l)
        lhs = float(b_l @ x_v)
        rhs = float(x_l @ b_v)
        assert abs(lhs - rhs) <= 1e-11

    def test_homogeneity(self, setup48):
        s = setup48
        x = s.ops.project(np.cos, ONE)
        y = s.ops.project(lambda th: 7.5 * np.cos(th), ONE)
        assert np.abs(y - 7.5 * x).max() <= 1e-11

    def test_l2_rate_pair(self, setup48, setup96):
        # halving h divides E_L2* by about 4
        e = [s.ops.error_l2_star(np.cos, s.ops.project(np.cos, ONE), ONE)[0]
             for s in (setup48, setup96)]
        assert 3.4 <= _fit_ratio(*e) <= 4.6

    def test_h1_rate_pair(self, setup48, setup96):
        dcos = lambda th: -np.sin(th)
        e = [s.ops.error_h1_star(np.cos, dcos, s.ops.project(np.cos, ONE),
                                 ONE)[0]
             for s in (setup48, setup96)]
        assert 1.7 <= _fit_ratio(*e) <= 2.3

    def test_best_approximation(self, setup96):
        s = setup96
        v = lambda th: np.cos(3 * th)
        x = s.ops.project(v, ONE)
        e_star = s.ops.error_l2_star(v, x, ONE)[0]
        rng = np.random.default_rng(11)
        comp = x + rng.standard_normal((20, x.shape[1])) * 0.1
        assert np.all(e_star <= s.ops.error_l2_star(v, comp, np.ones(20))
                      + 1e-12)
        interp = nodal_interpolant(s.ops, v)[None]
        assert e_star <= s.ops.error_l2_star(v, interp, ONE)[0] + 1e-12

    def test_l2_star_stability(self, setup96):
        # ||P_h v||_L2* <= ||v||_L2 for random trigonometric polynomials
        s = setup96
        rng = np.random.default_rng(5)
        for _ in range(20):
            ks = rng.integers(0, 9, size=4)
            cs = rng.standard_normal(4)

            def v(th, ks=ks, cs=cs):
                return sum(c * np.cos(k * th) for k, c in zip(ks, cs))

            x = s.ops.project(v, ONE)
            assert s.ops.l2_star(x)[0] <= \
                l2_gamma_of_function(s.ops, v) * (1 + 1e-10)

    def test_riesz_vector_route(self, setup48):
        s = setup48
        x1 = s.ops.mstar.solve(s.ops.riesz_data(np.sin, ONE)[0])
        x2 = s.ops.project(np.sin, ONE)[0]
        assert np.array_equal(x1, x2)

    def test_fourier_data_route(self, setup48):
        s = setup48
        c = np.zeros(s.ops.probe.n_modes)
        c[1] = np.sqrt(np.pi)          # cos(theta) in the orthonormal basis
        x1 = s.ops.mstar.solve(s.ops.probe.G @ c)
        x2 = s.ops.project(np.cos, ONE)[0]
        assert np.abs(x1 - x2).max() <= 1e-9


class TestLaplacian:
    def test_kills_constants(self, setup48):
        d = laplacian(setup48.ops, np.ones((1, setup48.system.n_dofs)))
        assert np.abs(d).max() <= 1e-11

    def test_sign_and_scale_on_eigenmode(self, setup96):
        # -Laplace(cos) = cos on the unit circle; the discrete operator
        # carries the positive sign
        s = setup96
        x = s.ops.project(np.cos, ONE)
        d = laplacian(s.ops, x)
        xc = (x @ s.ops.probe.G)[0, 1]
        dc = (d @ s.ops.probe.G)[0, 1]
        assert 0.9 <= dc / xc <= 1.1

    def test_linearity(self, setup48):
        s = setup48
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, s.system.n_dofs))
        y = rng.standard_normal((1, s.system.n_dofs))
        lhs = laplacian(s.ops, 2.0 * x - 3.0 * y)
        rhs = 2.0 * laplacian(s.ops, x) - 3.0 * laplacian(s.ops, y)
        assert np.abs(lhs - rhs).max() <= 1e-11 * max(np.abs(rhs).max(), 1.0)


class TestNorms:
    def test_dual_norm_homogeneity(self, setup48):
        s = setup48
        x = np.random.default_rng(1).standard_normal((1, s.system.n_dofs))
        assert s.ops.dual_norm(3.5 * x)[0] == \
            pytest.approx(3.5 * s.ops.dual_norm(x)[0], rel=1e-12)

    def test_dual_norm_below_hm1_star(self, setup96):
        s = setup96
        x = np.random.default_rng(4).standard_normal((50, s.system.n_dofs))
        assert np.all(s.ops.dual_norm(x) <= s.ops.hm1_star(x) * (1 + 1e-9)
                      + 1e-9)

    def test_dual_norm_stack_matches_rows(self, setup48):
        s = setup48
        xs = np.random.default_rng(3).standard_normal((5, s.system.n_dofs))
        stacked = s.ops.dual_norm(xs)
        rows = [s.ops.dual_norm(xs[i:i + 1])[0] for i in range(5)]
        assert stacked.shape == (5,)
        np.testing.assert_allclose(stacked, rows, rtol=1e-13)
        assert s.ops.dual_norm(xs[:0]).shape == (0,)

    def test_kaux_factored_on_first_read(self, setup48):
        # the LU-fill hook of perfbench/tracer.py reads ops.kaux.lu.L,
        # .lu.U and .mat; nothing in the package does
        ops = DiscreteOperators(setup48.system, setup48.ops.k_max)
        assert "kaux" not in vars(ops)
        f = ops.kaux
        assert isinstance(f, _Factor) and f.name == "K_aux"
        sy = setup48.system
        assert (f.mat != sy.K_star + sy.S[0]).nnz == 0
        assert f.lu.L.nnz > 0 and f.lu.U.nnz > 0
        assert ops.kaux is f

    def test_hm1_of_constant(self, setup48):
        s = setup48
        one = np.ones((1, s.system.n_dofs))
        assert hm1_gamma(s.ops, one)[0] == pytest.approx(np.sqrt(2 * np.pi),
                                                         rel=1e-10)

    def test_hm1_kmax_insensitive_for_smooth(self, setup48):
        from tracefem.cutquad import build_topology, oscillation_order
        s = setup48
        x = s.ops.project(np.cos, ONE)[0]
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
        x = rng.standard_normal((10, s.system.n_dofs))
        for row in x:
            # ||x||_H1* >= ||x||_H1(Gamma): K_* = M + A + S0 + S1
            assert (np.sqrt(row @ (k_star @ row))
                    >= np.sqrt(row @ (h1_gram @ row)) - 1e-12)
        hm1_star = s.ops.hm1_star(x)
        assert np.all(hm1_star >= hm1_gamma(s.ops, x) - 1e-12)
        assert np.all(s.ops.dual_norm(x) <= hm1_star * (1 + 1e-9) + 1e-9)


class TestErrorFunctionals:
    def test_exact_constant(self, setup48):
        s = setup48
        one = np.ones((1, s.system.n_dofs))
        v, dv = np.ones_like, np.zeros_like
        assert s.ops.error_l2_star(v, one, ONE)[0] <= 1e-11
        assert s.ops.error_h1_star(v, dv, one, ONE)[0] <= 1e-11
        assert s.ops.error_hm1_star(s.ops.probe.coefficients(v, ONE),
                                    one)[0] <= 1e-11

    def test_interpolant_rate(self, setup48, setup96):
        e = []
        for s in (setup48, setup96):
            x = nodal_interpolant(s.ops, np.cos)[None]
            e.append(s.ops.error_l2_star(np.cos, x, ONE)[0])
        assert 3.4 <= e[0] / e[1] <= 4.6

    def test_interpolant_s0_below_total(self, setup96):
        s = setup96
        x = nodal_interpolant(s.ops, np.cos)
        s0 = float(x @ (s.system.S[0] @ x))
        assert s0 <= s.ops.error_l2_star(np.cos, x[None], ONE)[0] ** 2 + 1e-15

    def test_interpolant_constant(self, setup48):
        x = nodal_interpolant(setup48.ops, lambda th: 3.0 * np.ones_like(th))
        assert np.abs(x - 3.0).max() <= 1e-14
