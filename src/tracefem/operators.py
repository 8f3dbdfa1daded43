"""Discrete operators over an assembled system.

Implements the stabilized L2-projection (M + S0) x = b, the norms the
inf-sup theory is measured in (L2*, the discrete dual norm
sup_w (v, w)_* / ||w||_H1* and the stabilized H^-1_* norm, the
Fourier-truncated H^-1 norm on Gamma plus s_-1) and the error
functionals pairing a smooth surface function with a discrete one.

Every method takes stacks and returns one value or one row per row.
Discrete functions are rows x (k, n_dofs); a surface function is a
profile g(theta) with time factors a (k,), the rows a_i g, whose
tangential derivative is d/ds = R^-1 d/dtheta.  A time series goes a
block of steps at a time, and one item is a stack of one.  Discrete
functions reach the surface nodes through two sparse trace operators,
``trace`` (P1 values) and ``dtrace`` (tangential derivatives).  A
profile is evaluated at the nodes once per mesh.  The Riesz data scale
it by each time factor in one reused node-major workspace and apply
trace' as ``trace_t``, the CSC view of trace, built once on its arrays.
The L2* and H1* errors split off the projection p = P_h g of the
profile once per mesh (``_table``), so a state costs sparse products
over the dofs and no node quadrature.  The H^-1 error takes the Fourier
coefficients of the smooth function instead of it, which the probe forms
(``FourierProbe.coefficients``) from the exact circle; the Riesz data,
the tables of the split errors and the probe's G keep the cut
quadrature.  Every derived operator is built on first read: the LUs of
M_* and K_* (``mstar``, ``kstar``), the traces and the Fourier probe, so
a run builds only those its quantities read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .assembly import assemble_fourier
from .errors import LIMITS, SolveFailure

# The time factor of a single item: a stack of one factor 1.
ONE = np.ones(1)


def _form(mat, x):
    """x' mat x clipped at 0 for each row of the stack x (k, n).

    The summation order is pinned.  For the mid-run state of the n=192
    converge rung, x' S0 x = 3.518e-8 cancels terms of total magnitude
    sum |S0_ij x_i x_j| = 17.3: float64 is off the long-double value by
    1.8e-9 relative, and the shipped reference values carry that
    rounding, about ten times the 1e-10 the benchmark gates error columns
    with.  Any other summation order moves them by as much.
    """
    return np.maximum(np.einsum("kn,kn->k", x, (mat @ x.T).T), 0.0)


def _colnorm(a):
    """2-norm of each column of a (n, k); of a itself for a vector."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


class _Factor:
    """Direct sparse factorization with a per-column residual check on solves."""

    def __init__(self, mat, name):
        import scipy.sparse.linalg as spla  # here: a cut alone loads no scipy
        self.mat = mat.tocsc()
        self.name = name
        try:
            self.lu = spla.splu(self.mat)
        except RuntimeError as exc:
            raise SolveFailure("factorization of %s failed: %s" % (name, exc))

    def failing(self, b, x):
        """Whether x misses the residual rule ||b - mat x|| <= tol ||b||,
        tol = LIMITS["solve_residual"] (1e-12): one bool for vectors (n,),
        one per column for (n, k).  A residual that is NaN or inf misses
        it, and nothing warns."""
        tol = LIMITS["solve_residual"]
        with np.errstate(invalid="ignore", over="ignore"):
            return ~(_colnorm(b - self.mat @ x) <= tol * _colnorm(b))

    def solve(self, b):
        """x with mat x = b, b (n,) or (n, k).  Columns that miss the
        residual rule (``failing``) get one refinement step, then must
        pass."""
        b = np.asarray(b, dtype=float)
        x = self.lu.solve(b)
        bad = self.failing(b, x)
        if bad.any():
            # 2-D views of b and x; the refinement writes through into x
            bs, xs = b.reshape(len(b), -1), x.reshape(len(b), -1)
            cols = np.flatnonzero(bad)
            with np.errstate(invalid="ignore", over="ignore"):
                xs[:, cols] += self.lu.solve(bs[:, cols]
                                             - self.mat @ xs[:, cols])
            still = self.failing(bs[:, cols], xs[:, cols])
            if still.any():
                raise SolveFailure("solve with %s: %d of %d columns miss the "
                                   "relative residual %g after refinement"
                                   % (self.name, still.sum(), xs.shape[1],
                                      LIMITS["solve_residual"]))
        return x


class DiscreteOperators:
    """Projection, norm and error evaluations for one system.

    ``_profile`` and ``_table`` cache per function object: a fresh lambda
    on each call adds an entry that lives as long as the operators."""

    def __init__(self, system, k_max):
        self.system = system
        self.topology = system.topology
        self.mesh = system.mesh
        self.k_max = k_max
        self._nodes = {}        # profile -> its values at the surface nodes
        self._tables = {}       # (profile, derivative or None) -> _table
        self._work = np.empty(0)  # the Riesz data's node-major workspace

    @cached_property
    def mstar(self):
        """The LU of M_star, factored on first read."""
        return _Factor(self.system.M_star, "M_star")

    def _nodal(self, values):
        """The (n_nodes, n_dofs) CSR matrix whose row n holds values[n],
        the three entries of n's element."""
        import scipy.sparse as sp   # here: a cut alone loads no scipy
        topo, mesh = self.topology, self.mesh
        cols = mesh.elements[topo.elem].ravel()
        ptr = np.arange(0, len(cols) + 1, 3)
        return sp.csr_matrix((values.ravel(), cols, ptr),
                             shape=(len(topo.w), mesh.n_dofs))

    @cached_property
    def trace(self):
        """The P1 values at the surface nodes."""
        return self._nodal(self.topology.bary)

    @cached_property
    def trace_t(self):
        """trace', the CSC view of trace on its arrays, built once."""
        return self.trace.T

    @cached_property
    def dtrace(self):
        """The P1 tangential derivatives at the surface nodes."""
        topo = self.topology
        tangent = np.column_stack([-np.sin(topo.theta), np.cos(topo.theta)])
        return self._nodal(np.einsum("nd,nid->ni", tangent,
                                     self.mesh.grad[topo.elem]))

    @cached_property
    def probe(self):
        """The FourierProbe of modes up to k_max, assembled on first read."""
        return assemble_fourier(self.topology, self.k_max)

    @cached_property
    def kstar(self):
        """The LU of K_star, factored on the dual-norm Gram's first use."""
        return _Factor(self.system.K_star, "K_star")

    @cached_property
    def kaux(self):
        """The LU of K_aux = K_star + S0, factored on first read; only the
        LU-fill hook of perfbench/tracer.py reads it."""
        return _Factor(self.system.K_aux, "K_aux")

    def _profile(self, g):
        """Values of the function g(theta) at the surface nodes, evaluated
        once per g."""
        if g not in self._nodes:
            self._nodes[g] = np.asarray(g(self.topology.theta), dtype=float)
        return self._nodes[g]

    def _table(self, g, dg=None):
        """(p, n, c) of the profile g: p = P_h g its stabilized projection,
        r = g - trace p at the nodes (with dg, the derivative of g in
        theta: r = dg / R - dtrace p), n = ||r||^2_w and c = op' W r with
        op the trace taken.  Built on first use, once per mesh."""
        key = (g, dg)
        if key not in self._tables:
            w = self.topology.w
            if dg is None:
                p, op = self.project(g, ONE)[0], self.trace
                vals = self._profile(g)
            else:
                p, op = self._table(g)[0], self.dtrace
                vals = self._profile(dg) / self.topology.surface.radius
            r = vals - op @ p
            self._tables[key] = (p, r ** 2 @ w, op.T @ (w * r))
        return self._tables[key]

    # -- data -> Riesz vectors -----------------------------------------

    def riesz_data(self, g, a):
        """b_i = (a g, phi_i) on Gamma for the profile g(theta), one row
        (k, n_dofs) per time factor of a (k,).

        The products w * (a * profile) are formed node-major in a
        C-contiguous (n_nodes, k) view of one workspace, grown only to the
        largest stack; ``trace_t``, the CSC view of trace, takes it without
        a copy and sums each entry over its nodes in node order, as a
        per-node accumulation does.  The result does not alias it.
        """
        n, k = len(self.topology.w), len(a)
        if self._work.size < n * k:
            self._work = np.empty(n * k)
        vals = self._work[:n * k].reshape(n, k)
        np.multiply(self._profile(g)[:, None], a, out=vals)
        vals *= self.topology.w[:, None]
        return (self.trace_t @ vals).T

    # -- projection ----------------------------------------------------

    def project(self, g, a):
        """Stabilized L2-projection: solve (M + S0) x = b with b the Riesz
        data of a g; one row (k, n_dofs) per factor of a (k,)."""
        return self.mstar.solve(self.riesz_data(g, a).T).T

    # -- norms of discrete functions -----------------------------------

    def l2_star(self, x):
        """||v_h||_L2*, one value per row of x (k, n_dofs)."""
        return np.sqrt(_form(self.system.M_star, x))

    def dual_norm(self, x):
        """Discrete dual norm sup_w (v, w)_* / ||w||_H1*, per row of x:
        sqrt(x' N x) with the Gram N = M_* K_*^-1 M_*, through the LU of
        K_*."""
        b = self.system.M_star @ x.T
        y = self.kstar.solve(b)
        return np.sqrt(np.maximum(np.einsum("nk,nk->k", b, y), 0.0))

    def hm1_star(self, x):
        """||v_h||_H^-1_*, the truncated H^-1 norm plus s_-1, per row of x."""
        return np.sqrt(self._hm1_star_sq(x @ self.probe.G, x))

    def _hm1_star_sq(self, c, x):
        """Truncated H^-1 norm squared of the Fourier coefficients c (k,
        n_modes) plus s_-1 of each row of x (k, n_dofs)."""
        return c ** 2 @ self.probe.Hm1_gram + _form(self.system.S[-1], x)

    # -- error functionals ---------------------------------------------
    # Each takes the states x (k, n_dofs) with one time factor of a (k,)
    # per row (for the H^-1 error, one row of coefficients (k, n_modes))
    # and returns one value per row.

    def error_l2_star(self, g, x, a):
        """E_L2*[v, v_h]^2 = ||v - v_h||^2_L2 + s0(v_h, v_h), rooted, for
        v = a g.

        With p, n, c of ``_table(g)`` and e = x - a p,
        ||a g - trace x||^2_w = a^2 n - 2 a c.e + e' M e, as M = trace' W
        trace; so a state costs products over the dofs, none over the
        nodes.
        """
        return self._split_error(self._table(g), self.system.M, 0, x, a)

    def error_h1_star(self, g, dg, x, a):
        """E_H1*[v, v_h]^2 = |v - v_h|^2_H1 + s1(v_h, v_h), rooted, for
        v = a g.

        ``dg`` is the derivative of the profile g with respect to theta.
        Split as ``error_l2_star`` with dtrace and A = dtrace' W dtrace.
        """
        return self._split_error(self._table(g, dg), self.system.A, 1, x, a)

    def _split_error(self, table, gram, j, x, a):
        """sqrt(a^2 n - 2 a c.e + e' gram e + s_j(x, x)) per row of x,
        e = x - a p; only the node part is split, s_j stays ``_form``."""
        p, n, c = table
        e = x - a[:, None] * p
        sq = (a * a * n - 2.0 * a * np.einsum("kn,n->k", e, c)
              + _form(gram, e) + _form(self.system.S[j], x))
        return np.sqrt(np.maximum(sq, 0.0))

    def error_hm1_star(self, coef, x):
        """E_Hm1*[v, v_h]^2 = ||v - v_h||^2_Hm1 + s_-1(v_h, v_h), rooted;
        ``coef`` holds the Fourier coefficients of v
        (``FourierProbe.coefficients``), one row per row of x."""
        return np.sqrt(self._hm1_star_sq(coef - x @ self.probe.G, x))
