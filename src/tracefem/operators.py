"""Discrete operators over an assembled system.

Implements the stabilized L2-projection (M + S0) x = b, the discrete
Laplacian (M + S0) d = (A + S1) x, the norms the inf-sup theory is
measured in (L2*, the discrete dual norm sup_w (v, w)_* / ||w||_H1*, the
Fourier-truncated H^-1 norm on Gamma and its stabilized H^-1_*
extension), the error functionals pairing a smooth surface function with
a discrete one, and the nodal interpolant of the normal extension.

Surface functions are passed as callables of the circle angle theta
(and optionally time); their tangential derivative is d/ds = R^-1 d/dtheta.
Discrete functions reach the surface nodes through two sparse trace
operators built once: ``trace`` (P1 values) and ``dtrace`` (tangential
derivatives).  The error functionals and the L2*, dual and H^-1 norms
take one coefficient vector or a stack (k, n_dofs), with times (k,) for
data, so a time series is evaluated a block of steps at a time.  The
H^-1 error takes the Fourier coefficients of the smooth function instead
of it.  The circle is represented exactly, so ``function_coefficients``
integrates a smooth function on it with one rfft over equispaced angles;
whatever couples the discrete space (the Riesz data, the trace errors,
the probe's G) keeps the cut quadrature.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolveFailure


def _form(mat, x):
    """x' mat x clipped at 0 for each row of x, one vector or a stack."""
    x = np.atleast_2d(x)
    return np.maximum(np.einsum("kn,kn->k", x, (mat @ x.T).T), 0.0)


def _root(sq, x):
    """Square roots of the per-row squares; a float when x is one vector."""
    r = np.sqrt(sq)
    return float(r[0]) if np.ndim(x) == 1 else r


def _colnorm(a):
    """2-norm of each column of a (n, k); of a itself for a vector."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


class _Factor:
    """Direct sparse factorization with a per-column residual check on solves."""

    def __init__(self, mat, name):
        self.mat = mat.tocsc()
        self.name = name
        try:
            self.lu = spla.splu(self.mat)
        except RuntimeError as exc:
            raise SolveFailure("factorization of %s failed: %s" % (name, exc))

    def solve(self, b):
        """x with mat x = b, b (n,) or (n, k).  Columns whose relative
        residual exceeds 1e-12 get one refinement step, then must pass."""
        b = np.asarray(b, dtype=float)
        x = self.lu.solve(b)
        nb = _colnorm(b)
        bad = _colnorm(b - self.mat @ x) > 1e-12 * nb
        if bad.any():
            # 2-D views of b and x; the refinement writes through into x
            bs, xs = b.reshape(len(b), -1), x.reshape(len(b), -1)
            cols = np.flatnonzero(bad)
            xs[:, cols] += self.lu.solve(bs[:, cols] - self.mat @ xs[:, cols])
            rel = (_colnorm(bs[:, cols] - self.mat @ xs[:, cols])
                   / np.atleast_1d(nb)[cols])
            if rel.max() > 1e-12:
                raise SolveFailure("solve with %s: residual %.3e above tolerance"
                                   % (self.name, rel.max()))
        return x


class DiscreteOperators:
    """Projection, Laplacian and norm evaluations for one system."""

    def __init__(self, system, probe=None):
        self.system = system
        self.topology = topo = system.topology
        self.mesh = mesh = system.mesh
        self.probe = probe
        self.mstar = _Factor(system.M_star, "M_star")
        self.kstar = _Factor(system.K_star, "K_star")
        self.kaux = _Factor(system.K_aux, "K_aux")
        # (n_nodes, n_dofs): row n holds the P1 functions of n's element
        cols = mesh.elements[topo.elem].ravel()
        ptr = np.arange(0, len(cols) + 1, 3)
        tangent = np.column_stack([-topo.normal[:, 1], topo.normal[:, 0]])
        dphi = np.einsum("nd,nid->ni", tangent, mesh.grad[topo.elem])
        shape = (len(topo.w), mesh.n_dofs)
        self.trace = sp.csr_matrix((topo.bary.ravel(), cols, ptr), shape=shape)
        self.dtrace = sp.csr_matrix((dphi.ravel(), cols, ptr), shape=shape)

    def _at_nodes(self, v, t=None):
        """Values of a function of theta (and t) at the surface nodes:
        (n_nodes,) without t or for a scalar t, (k, n_nodes) for t (k,)."""
        theta = self.topology.theta
        if t is None:
            return np.asarray(v(theta))
        return np.asarray(v(theta, np.asarray(t, dtype=float)[..., None]))

    # -- data -> Riesz vectors -----------------------------------------

    def riesz_data(self, v, t=None):
        """b_i = (v, phi_i) on Gamma for v = v(theta[, t]);
        (k, n_dofs) for times t (k,)."""
        return (self.trace.T @ (self.topology.w * self._at_nodes(v, t)).T).T

    # -- projection and Laplacian --------------------------------------

    def project(self, data, t=None):
        """Stabilized L2-projection: solve (M + S0) x = b.

        ``data`` is a callable of theta (and t) or a plain Riesz vector
        such as ``probe.G @ c`` for Fourier coefficients c.
        """
        b = self.riesz_data(data, t) if callable(data) else data
        return self.mstar.solve(b)

    def laplacian(self, x):
        """Discrete Laplacian d with (M + S0) d = (A + S1) x; one vector
        or a stack (k, n_dofs), solved as k right-hand sides at once.

        Sign convention: for smooth v on the unit circle the trace of
        laplacian(project(v)) approximates -Laplace-Beltrami(v), i.e.
        +v for v = cos(theta).
        """
        return self.mstar.solve(self.system.A_star @ np.transpose(x)).T

    # -- norms of discrete functions -----------------------------------

    def l2_star(self, x):
        """||v_h||_L2*; one value per row of a stack (k, n_dofs)."""
        return _root(_form(self.system.M_star, x), x)

    def dual_norm(self, x, aux_gram=False):
        """Discrete dual norm sup_w (v, w)_* / ||w||_H1*, per row of x.

        Equals sqrt(x' M_* K^-1 M_* x) with K = K_star (the literal
        normalization) or, with ``aux_gram``, the stabilized-inner-
        product stiffness K_aux = K_star + S0 realizing the norm through
        the auxiliary elliptic solve.
        """
        b = self.system.M_star @ np.atleast_2d(x).T
        y = (self.kaux if aux_gram else self.kstar).solve(b)
        return _root(np.maximum(np.einsum("nk,nk->k", b, y), 0.0), x)

    def hm1_gamma(self, x):
        """Fourier-truncated H^-1 norm on Gamma of the trace of v_h."""
        c = np.atleast_2d(x) @ self.probe.G
        return _root(c ** 2 @ self.probe.Hm1_gram, x)

    def hm1_star(self, x):
        """||v_h||_H^-1_*: the truncated H^-1 norm plus s_-1(v_h, v_h)."""
        return _root(self.hm1_gamma(x) ** 2
                     + _form(self.system.S[-1], x), x)

    # -- pointwise trace data ------------------------------------------

    def trace_values(self, x):
        """Values of the discrete function at all surface nodes;
        (k, n_nodes) for a stack (k, n_dofs)."""
        return (self.trace @ np.transpose(x)).T

    def function_coefficients(self, v, t=None):
        """Fourier coefficients (v, e_m)_Gamma of a smooth function of
        theta; (k, n_modes) for times t (k,).

        The circle is represented exactly, so these do not depend on the
        mesh: v is taken at the M = 4 k_max + 4 angles 2 pi j / M, and one
        rfft gives the periodic trapezoid rule for every mode at once.  It
        is exact when v is a trigonometric polynomial of degree below
        M - k_max and converges exponentially for analytic v.  Each mode is
        scaled to the orthonormal basis of FourierProbe.eval_basis: 2 pi R / M
        over sqrt(2 pi R) for the constant, over sqrt(pi R) for cos and sin,
        the sin modes taking -Im.
        """
        probe, r = self.probe, self.probe.radius
        m = 4 * probe.k_max + 4
        theta = 2.0 * np.pi / m * np.arange(m)
        vals = (v(theta) if t is None
                else v(theta, np.asarray(t, dtype=float)[..., None]))
        f = np.fft.rfft(vals, axis=-1)[..., :probe.k_max + 1]
        step = 2.0 * np.pi * r / m
        out = np.empty(f.shape[:-1] + (probe.n_modes,))
        out[..., 0] = step / np.sqrt(2.0 * np.pi * r) * f[..., 0].real
        scale = step / np.sqrt(np.pi * r)
        out[..., 1::2] = scale * f[..., 1:].real
        out[..., 2::2] = -scale * f[..., 1:].imag
        return out

    # -- error functionals ---------------------------------------------
    # Each takes one coefficient vector x and returns a float, or a stack
    # x (k, n_dofs) with times t (k,) (for the H^-1 error, coefficients
    # (k, n_modes)) and returns k values.  One vector runs as a stack of one.

    def error_l2_star(self, v, x, t=None):
        """E_L2*[v, v_h]^2 = ||v - v_h||^2_L2 + s0(v_h, v_h), rooted."""
        xs = np.atleast_2d(x)
        diff = self._at_nodes(v, t) - self.trace_values(xs)
        return _root(diff ** 2 @ self.topology.w
                     + _form(self.system.S[0], xs), x)

    def error_h1_star(self, v, dv, x, t=None):
        """E_H1*[v, v_h]^2 = |v - v_h|^2_H1 + s1(v_h, v_h), rooted.

        ``dv`` is the derivative of v with respect to theta.
        """
        xs = np.atleast_2d(x)
        dvds = self._at_nodes(dv, t) / self.topology.surface.radius
        diff = dvds - (self.dtrace @ xs.T).T
        return _root(diff ** 2 @ self.topology.w
                     + _form(self.system.S[1], xs), x)

    def error_hm1_star(self, coef, x):
        """E_Hm1*[v, v_h]^2 = ||v - v_h||^2_Hm1 + s_-1(v_h, v_h), rooted;
        ``coef`` holds the Fourier coefficients of v
        (``function_coefficients``), one row per row of x."""
        xs = np.atleast_2d(x)
        c = coef - xs @ self.probe.G
        return _root(c ** 2 @ self.probe.Hm1_gram
                     + _form(self.system.S[-1], xs), x)

    def l2_gamma_of_function(self, v, t=None):
        """||v||_L2(Gamma) of a function of theta by quadrature."""
        vals = self._at_nodes(v, t)
        return float(np.sqrt(self.topology.w @ vals ** 2))

    def hm1_gamma_of_function(self, v, t=None):
        """Truncated H^-1 norm of a function of theta; k values for
        times t (k,)."""
        c = self.function_coefficients(v, t)
        return _root(np.atleast_2d(c) ** 2 @ self.probe.Hm1_gram, c)

    # -- interpolation -------------------------------------------------

    def nodal_interpolant(self, v):
        """Vertex values of the normal extension v(p(z))."""
        surf = self.topology.surface
        c = surf.center
        z = self.mesh.coords
        theta = np.arctan2(z[:, 1] - c[1], z[:, 0] - c[0])
        return np.asarray(v(theta), dtype=float)

