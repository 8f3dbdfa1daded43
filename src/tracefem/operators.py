"""Discrete operators over an assembled system.

Implements the stabilized L2-projection (M + S0) x = b, the discrete
Laplacian (M + S0) d = (A + S1) x, the stabilized norms including the
discrete dual norm sup_w (v, w)_* / ||w||_H1*, the Fourier-truncated
H^-1 norm on Gamma, the error functionals pairing a smooth surface
function with a discrete one, and the nodal interpolant of the normal
extension.

Surface functions are passed as callables of the circle angle theta
(and optionally time); their tangential derivative is d/ds = R^-1 d/dtheta.
The surface quadrature is the flat node table of the cut topology, so
per-step norm evaluations are plain vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolveFailure


@dataclass
class CoefVec:
    """Coefficient vector tagged with its meaning.

    ``primal`` vectors hold dof values of a discrete function;
    ``functional`` vectors hold Riesz data b_i = <l, phi_i> on Gamma.
    """

    values: np.ndarray
    kind: str = "primal"


def _vals(x):
    return x.values if isinstance(x, CoefVec) else np.asarray(x, dtype=float)


class _Factor:
    """Direct sparse factorization with a residual check on solves."""

    def __init__(self, mat, name):
        self.mat = mat.tocsc()
        self.name = name
        try:
            self.lu = spla.splu(self.mat)
        except RuntimeError as exc:
            raise SolveFailure("factorization of %s failed: %s" % (name, exc))

    def solve(self, b):
        x = self.lu.solve(b)
        r = b - self.mat @ x
        nb = np.linalg.norm(b)
        if nb > 0 and np.linalg.norm(r) > 1e-12 * nb:
            # one step of iterative refinement before giving up
            x = x + self.lu.solve(r)
            r = b - self.mat @ x
            if np.linalg.norm(r) > 1e-12 * nb:
                raise SolveFailure("solve with %s: residual %.3e above tolerance"
                                   % (self.name, np.linalg.norm(r) / nb))
        return x


class DiscreteOperators:
    """Projection, Laplacian and norm evaluations for one system."""

    def __init__(self, system, probe=None):
        self.system = system
        self.topology = topo = system.topology
        self.mesh = system.mesh
        self.probe = probe
        self.mstar = _Factor(system.M_star, "M_star")
        self.kstar = _Factor(system.K_star, "K_star")
        self.kaux = _Factor(system.K_aux, "K_aux")
        self.node_dofs = self.mesh.elements[topo.elem]          # (N, 3)
        self.tangent = np.column_stack([-topo.normal[:, 1], topo.normal[:, 0]])
        self._basis_cache = None

    def _at_nodes(self, v, t=None):
        """Values of a function of theta (and t) at the surface nodes."""
        theta = self.topology.theta
        return np.asarray(v(theta) if t is None else v(theta, t))

    def _probe_basis(self):
        if self._basis_cache is None:
            self._basis_cache = self.probe.eval_basis(self.topology.theta)
        return self._basis_cache

    # -- data -> Riesz vectors -----------------------------------------

    def riesz_data(self, v, t=None):
        """b_i = (v, phi_i) on Gamma for v = v(theta[, t])."""
        vals = self._at_nodes(v, t)
        contrib = self.topology.bary * (self.topology.w * vals)[:, None]
        return np.bincount(self.node_dofs.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_dofs)

    # -- projection and Laplacian --------------------------------------

    def project(self, data, t=None):
        """Stabilized L2-projection: solve (M + S0) x = b.

        ``data`` is a callable of theta, a ``functional`` CoefVec, a
        plain Riesz vector, or ("fourier", coefficients in the probe
        basis).
        """
        if callable(data):
            b = self.riesz_data(data, t)
        elif isinstance(data, tuple) and data[0] == "fourier":
            b = self.probe.G @ np.asarray(data[1], dtype=float)
        else:
            b = _vals(data)
        return self.mstar.solve(b)

    def laplacian(self, x):
        """Discrete Laplacian d with (M + S0) d = (A + S1) x.

        Sign convention: for smooth v on the unit circle the trace of
        laplacian(project(v)) approximates -Laplace-Beltrami(v), i.e.
        +v for v = cos(theta).
        """
        x = _vals(x)
        return self.mstar.solve((self.system.A + self.system.S[1]) @ x)

    # -- norms of discrete functions -----------------------------------

    def l2_gamma(self, x):
        x = _vals(x)
        return float(np.sqrt(max(x @ (self.system.M @ x), 0.0)))

    def l2_star(self, x):
        x = _vals(x)
        return float(np.sqrt(max(x @ (self.system.M_star @ x), 0.0)))

    def h1_star_semi(self, x):
        x = _vals(x)
        return float(np.sqrt(max(x @ ((self.system.A + self.system.S[1]) @ x), 0.0)))

    def h1_star(self, x):
        x = _vals(x)
        return float(np.sqrt(max(x @ (self.system.K_star @ x), 0.0)))

    def h1_gamma(self, x):
        x = _vals(x)
        return float(np.sqrt(max(x @ ((self.system.M + self.system.A) @ x), 0.0)))

    def dual_norm(self, x, aux_gram=False):
        """Discrete dual norm sup_w (v, w)_* / ||w||_H1*.

        Equals sqrt(x' M_* K^-1 M_* x) with K = K_star (the literal
        normalization) or, with ``aux_gram``, the stabilized-inner-
        product stiffness K_aux = K_star + S0 realizing the norm through
        the auxiliary elliptic solve.
        """
        x = _vals(x)
        b = self.system.M_star @ x
        y = (self.kaux if aux_gram else self.kstar).solve(b)
        return float(np.sqrt(max(b @ y, 0.0)))

    def hm1_gamma(self, x):
        """Fourier-truncated H^-1 norm on Gamma of the trace of v_h."""
        c = self.probe.G.T @ _vals(x)
        return float(np.sqrt(np.sum(c ** 2 * self.probe.Hm1_gram)))

    def hm1_star(self, x):
        x = _vals(x)
        s = x @ (self.system.S[-1] @ x)
        return float(np.sqrt(self.hm1_gamma(x) ** 2 + max(s, 0.0)))

    def norm_report(self, x):
        return NormReport(
            l2_star=self.l2_star(x),
            h1_star_semi=self.h1_star_semi(x),
            h1_star=self.h1_star(x),
            h1_gamma=self.h1_gamma(x),
            vh_minus1=self.dual_norm(x),
            hm1_gamma_trunc=self.hm1_gamma(x),
            hm1_star=self.hm1_star(x),
        )

    # -- pointwise trace data ------------------------------------------

    def trace_values(self, x):
        """Values of the discrete function at all surface nodes."""
        x = _vals(x)
        return np.einsum("ni,ni->n", self.topology.bary, x[self.node_dofs])

    def trace_tangential_gradient(self, x):
        """Tangential gradient of the discrete function at surface nodes."""
        x = _vals(x)
        nrm = self.topology.normal
        gh = np.einsum("ei,eid->ed", x[self.mesh.elements],
                       self.mesh.grad)[self.topology.elem]
        gn = np.einsum("nd,nd->n", gh, nrm)
        return gh - gn[:, None] * nrm

    def function_coefficients(self, v, t=None):
        """Fourier coefficients (v, e_m) of a function of theta."""
        vals = self._at_nodes(v, t)
        return self._probe_basis().T @ (self.topology.w * vals)

    # -- error functionals ---------------------------------------------

    def error_l2_star(self, v, x, t=None):
        """E_L2*[v, v_h]^2 = ||v - v_h||^2_L2 + s0(v_h, v_h), rooted."""
        x = _vals(x)
        vals = self._at_nodes(v, t)
        err2 = float(self.topology.w @ (vals - self.trace_values(x)) ** 2)
        return float(np.sqrt(err2 + max(x @ (self.system.S[0] @ x), 0.0)))

    def error_h1_star(self, v, dv, x, t=None):
        """E_H1*[v, v_h]^2 = |v - v_h|^2_H1 + s1(v_h, v_h), rooted.

        ``dv`` is the derivative of v with respect to theta.
        """
        x = _vals(x)
        radius = self.topology.surface.radius
        dvds = self._at_nodes(dv, t) / radius
        diff = dvds[:, None] * self.tangent - self.trace_tangential_gradient(x)
        acc = float(self.topology.w @ (diff ** 2).sum(axis=1))
        return float(np.sqrt(acc + max(x @ (self.system.S[1] @ x), 0.0)))

    def error_hm1_star(self, v, x, t=None):
        """E_Hm1*[v, v_h]^2 = ||v - v_h||^2_Hm1 + s_-1(v_h, v_h), rooted."""
        x = _vals(x)
        c = self.function_coefficients(v, t) - self.probe.G.T @ x
        hm1 = np.sum(c ** 2 * self.probe.Hm1_gram)
        s = max(x @ (self.system.S[-1] @ x), 0.0)
        return float(np.sqrt(hm1 + s))

    def l2_gamma_of_function(self, v, t=None):
        """||v||_L2(Gamma) of a function of theta by quadrature."""
        vals = self._at_nodes(v, t)
        return float(np.sqrt(self.topology.w @ vals ** 2))

    def hm1_gamma_of_function(self, v, t=None):
        """Truncated H^-1 norm of a function of theta."""
        c = self.function_coefficients(v, t)
        return float(np.sqrt(np.sum(c ** 2 * self.probe.Hm1_gram)))

    # -- interpolation -------------------------------------------------

    def nodal_interpolant(self, v):
        """Vertex values of the normal extension v(p(z))."""
        surf = self.topology.surface
        c = surf.center
        z = self.mesh.coords
        theta = np.arctan2(z[:, 1] - c[1], z[:, 0] - c[0])
        return np.asarray(v(theta), dtype=float)


@dataclass
class NormReport:
    """All norms of one discrete function; one CSV row."""

    l2_star: float
    h1_star_semi: float
    h1_star: float
    h1_gamma: float
    vh_minus1: float
    hm1_gamma_trunc: float
    hm1_star: float

    FIELDS = ("l2_star", "h1_star_semi", "h1_star", "h1_gamma",
              "vh_minus1", "hm1_gamma_trunc", "hm1_star")

    def row(self):
        return [getattr(self, f) for f in self.FIELDS]
