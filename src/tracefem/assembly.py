"""Assembly of the surface and stabilization Gram matrices.

Builds, over the active P1 space:

* ``M``   surface mass (u, v) on Gamma,
* ``A``   surface stiffness with tangential gradients (I - n n^T) grad,
* ``S_T`` per-element normal-derivative Grams int_T (n.grad u)(n.grad v),
  by the symmetric 6-point volume rule exact to degree 4,
* ``S_j`` scaled sums over elements h_T^(1-2j) S_T for j in {-1, 0, 1},
* derived combinations M_* = M + S0, A_* = A + S1, K_* = M + A + S1 and
  K_aux = K_* + S0,
* ``D``   the weighted local Gram sum h_T^2 (M_T + h_T S_T),

plus the truncated Fourier probe (orthonormal circle harmonics, their
diagonal Grams, G and the rfft coefficients of smooth data).  Local
blocks are computed as batched products over runs of elements with
equal node counts and summed per element.  ``assemble`` forms M, A, S_j
and M_*; every other derived matrix (D, A_*, K_*, K_aux) is built on first
read from the kept element blocks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .cutquad import oscillation_order
from .errors import AliasRisk
from .mesh import twice_area

if TYPE_CHECKING:
    import scipy.sparse as sp

# Surface nodes per batched run of the probe's coupling matrix G.  A
# run's basis table, 32 x (2 k_max + 1) doubles, stays below glibc's
# 128 KiB mmap threshold at k_max = 128, so the heap reuses it across runs.
# At n=192 the traced peak above G is 0.44 MiB (1.1 MiB with runs of 128
# nodes), and G takes about 6 % longer.
RUN_NODES = 32

# Symmetric degree-4 triangle rule (6 points, positive weights that sum
# to 1 on the reference triangle).
_VOL_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_VOL_BARY = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])


@dataclass
class FemSystem:
    """The assembled matrices of one mesh; D, A_*, K_* and K_aux are
    formed on first read."""

    mesh: object
    topology: object
    M: sp.csr_matrix
    A: sp.csr_matrix
    S: dict                       # j -> csr matrix, j in {-1, 0, 1}
    S_T: np.ndarray               # (n_active, 3, 3) normal Grams
    m_T: np.ndarray               # (n_active, 3, 3) surface mass blocks
    M_star: sp.csr_matrix         # M + S0

    @property
    def n_dofs(self):
        return self.mesh.n_dofs

    @cached_property
    def D(self):
        """The weighted local Gram sum h_T^2 (M_T + h_T S_T)."""
        h_t = self.mesh.h_T[:, None, None]
        return element_csr(self.mesh.elements,
                           h_t ** 2 * (self.m_T + h_t * self.S_T), self.n_dofs)

    @cached_property
    def A_star(self):
        """A + S1."""
        return self.A + self.S[1]

    @cached_property
    def K_star(self):
        """M + A + S1."""
        return self.M + self.A + self.S[1]

    @cached_property
    def K_aux(self):
        """K_* + S0, the stiffness of the stabilized inner product."""
        return self.K_star + self.S[0]


def _element_runs(topology, max_nodes=None):
    """Yield (elements, nodes, (k, c)) slices over runs of consecutive
    elements that have c > 0 surface nodes each, of at most max_nodes
    nodes when it is given.

    A run stacks into one batched matrix product that rounds like one
    product per element; taking the runs in order keeps the summation
    order of a loop over elements, and max_nodes bounds the memory of
    per-node temporaries.
    """
    ptr = topology.elem_ptr
    counts = np.diff(ptr)
    starts = np.flatnonzero(np.diff(counts, prepend=-1))
    for s, e in zip(starts, np.append(starts[1:], len(counts))):
        c = int(counts[s])
        if c == 0:
            continue
        step = e - s if max_nodes is None else max(1, max_nodes // c)
        for a in range(s, e, step):
            b = min(a + step, e)
            yield slice(a, b), slice(ptr[a], ptr[b]), (b - a, c)


def volume_rule(tri):
    """Symmetric 6-point rule on triangles (..., 3, 2), exact to degree 4.

    Returns points (..., 6, 2) and weights (..., 6).
    """
    tri = np.asarray(tri, dtype=float)
    area = 0.5 * np.abs(twice_area(tri))
    pts = _VOL_BARY @ tri
    return pts, _VOL_W * area[..., None]


def element_csr(elements, blocks, n):
    """Sum per-element 3x3 blocks (n_active, 3, 3) into an n x n CSR matrix;
    the conversion sums duplicates and sorts the indices."""
    import scipy.sparse as sp   # here: a cut alone loads no scipy
    rows = np.repeat(elements, 3, axis=1).ravel()
    cols = np.tile(elements, (1, 3)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble(active_mesh, topology):
    """Assemble M, A, S_j and M_* of the stabilized method; the system
    forms D, A_*, K_* and K_aux when they are first read."""
    n = active_mesh.n_dofs
    elems = active_mesh.elements
    h_t = active_mesh.h_T[:, None, None]

    # S_T over whole triangles, first: its temporaries go before the nodes'.
    v_pts, v_w = volume_rule(active_mesh.coords[elems])
    dn = topology.surface.unit_normal(v_pts) @ active_mesh.grad.mT
    s_t = (dn * v_w[..., None]).mT @ dn
    del v_pts, v_w, dn

    # Surface terms: P1 values and tangential gradients at arc nodes.
    w, bary, theta = topology.w, topology.bary, topology.theta
    nrm = np.column_stack([np.cos(theta), np.sin(theta)])
    grad = active_mesh.grad[topology.elem]                  # (N, 3, 2)
    gn = np.einsum("nd,nid->ni", nrm, grad)                 # normal parts
    gt = grad - gn[:, :, None] * nrm[:, None, :]
    wbary = bary * w[:, None]
    m_t = np.zeros((len(elems), 3, 3))
    a_t = np.zeros((len(elems), 3, 3))
    for els, nodes, shape in _element_runs(topology):
        m_t[els] = wbary[nodes].reshape(*shape, 3).transpose(0, 2, 1) \
            @ bary[nodes].reshape(*shape, 3)
        gt_k = gt[nodes].reshape(*shape, 3, 2)
        a_t[els] = np.einsum("kq,kqid,kqjd->kij", w[nodes].reshape(shape),
                             gt_k, gt_k)

    mass = element_csr(elems, m_t, n)
    stab = {j: element_csr(elems, h_t ** (1 - 2 * j) * s_t, n)
            for j in (-1, 0, 1)}
    return FemSystem(
        mesh=active_mesh,
        topology=topology,
        M=mass,
        A=element_csr(elems, a_t, n),
        S=stab,
        S_T=s_t,
        m_T=m_t,
        M_star=mass + stab[0],
    )


@dataclass
class FourierProbe:
    """Truncated orthonormal Fourier basis on the circle.

    Mode order: constant, then (cos k, sin k) for k = 1..k_max; sizes
    2 k_max + 1.  H1_gram and Hm1_gram, formed on read, are the diagonals
    1 + k^2/R^2 and its reciprocal.  G couples the FE basis to the modes.
    """

    k_max: int
    radius: float
    G: np.ndarray                 # (n_dofs, 2 k_max + 1)

    @property
    def n_modes(self):
        return 2 * self.k_max + 1

    @cached_property
    def H1_gram(self):
        """The diagonal 1 + k^2/R^2, k the wavenumber of each mode."""
        k = np.repeat(np.arange(self.k_max + 1.0), 2)[1:]
        return 1.0 + k ** 2 / self.radius ** 2

    @cached_property
    def Hm1_gram(self):
        return 1.0 / self.H1_gram

    def _modes(self, const, cos, sin, scale=1.0):
        """The mode layout and normalisation: the constant, cos and sin
        parts (..., k_max) in mode order, times scale / sqrt(2 pi R) for the
        constant and scale / sqrt(pi R) for cos and sin."""
        out = np.empty(cos.shape[:-1] + (self.n_modes,))
        out[..., 0] = scale / np.sqrt(2.0 * np.pi * self.radius) * const
        scale = scale / np.sqrt(np.pi * self.radius)
        out[..., 1::2] = scale * cos
        out[..., 2::2] = scale * sin
        return out

    def eval_basis(self, theta):
        """Basis values at angles theta: array (len(theta), n_modes)."""
        kt = np.multiply.outer(np.asarray(theta, dtype=float),
                               np.arange(1, self.k_max + 1))
        return self._modes(1.0, np.cos(kt), np.sin(kt))

    def coefficients(self, g, a):
        """Fourier coefficients (a g, e_m)_Gamma of a smooth profile g(theta),
        one row (k, n_modes) per time factor of a (k,).

        The circle is represented exactly, so these do not depend on the
        mesh: g is taken at the M = 4 k_max + 4 angles 2 pi j / M, and one
        rfft gives the periodic trapezoid rule for every mode at once.  It
        is exact when g is a trigonometric polynomial of degree below
        M - k_max and converges exponentially for analytic g.  The row of
        g is laid out by ``_modes`` with scale 2 pi R / M, the sin modes
        taking -Im, and a g is rank one: row i is a[i] times that row.
        """
        m = 4 * self.k_max + 4
        f = np.fft.rfft(g(2.0 * np.pi / m * np.arange(m)))[:self.k_max + 1]
        row = self._modes(f[0].real, f[1:].real, -f[1:].imag,
                          2.0 * np.pi * self.radius / m)
        return a[:, None] * row


def assemble_fourier(topology, k_max=128):
    """Build the Fourier probe and its FE coupling matrix G, or raise
    AliasRisk when q_surf is below the order ``oscillation_order`` gives
    for k_max (without its floor).  The tests bound the probe's
    orthonormality through the dense Gram of the basis table."""
    mesh = topology.mesh
    radius = topology.surface.radius
    h = mesh.h
    needed = oscillation_order(k_max, h, radius, q_surf=0)   # no floor
    if topology.q_surf < needed:
        raise AliasRisk(
            "q_surf=%d too low for k_max=%d at h=%.3g, R=%.3g (need %d)"
            % (topology.q_surf, k_max, h, radius, needed))

    probe = FourierProbe(k_max=int(k_max), radius=radius,
                         G=np.zeros((mesh.n_dofs, 2 * k_max + 1)))

    wbary = topology.bary * topology.w[:, None]
    for els, nodes, shape in _element_runs(topology, RUN_NODES):
        basis = probe.eval_basis(topology.theta[nodes])
        blocks = wbary[nodes].reshape(*shape, 3).transpose(0, 2, 1) \
            @ basis.reshape(*shape, -1)
        np.add.at(probe.G, mesh.elements[els], blocks)
    return probe


def export_matrices(system, out_dir, prefix=""):
    """Write the assembled matrices in Matrix Market coordinate form,
    with the stabilized-inner-product stiffness K_aux."""
    import scipy.io     # here: a CLI run that exports nothing skips its import
    import scipy.sparse as sp   # here: a cut alone loads no scipy
    mats = {
        "M": system.M, "A": system.A,
        "S_m1": system.S[-1], "S_0": system.S[0], "S_1": system.S[1],
        "M_star": system.M_star, "K_star": system.K_star,
        "K_aux": system.K_aux, "D": system.D,
    }
    for name, m in mats.items():
        path = os.path.join(out_dir, "%s%s.mtx" % (prefix, name))
        scipy.io.mmwrite(path, sp.coo_matrix(m), symmetry="symmetric")
