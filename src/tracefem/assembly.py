"""Assembly of the surface and stabilization Gram matrices.

Builds, over the active P1 space:

* ``M``   surface mass (u, v) on Gamma,
* ``A``   surface stiffness with tangential gradients (I - n n^T) grad,
* ``S_T`` per-element normal-derivative Grams int_T (n.grad u)(n.grad v),
* ``S_j`` scaled sums over elements h_T^(1-2j) S_T for j in {-1, 0, 1},
* derived combinations M_* = M + S0, A_* = A + S1, K_* = M + A + S1 and the
  stabilized-inner-product stiffness K_aux = M + A + S1 + S0,
* ``D``   the weighted local Gram sum h_T^2 (M_T + h_T S_T),

plus the truncated Fourier probe (orthonormal circle harmonics, their
H1/H-1 diagonal Grams and the coupling matrix G).  Local blocks are
computed as batched products over runs of at most RUN_NODES quadrature
nodes and summed per element.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cutquad import oscillation_order
from .errors import AliasRisk

# Surface nodes per batched run of per-element work (the Gram blocks and
# the coupling matrix G): the temporaries of larger runs stay resident
# through the allocator and raise peak memory.
RUN_NODES = 128


@dataclass
class FemSystem:
    mesh: object
    topology: object
    M: sp.csr_matrix
    A: sp.csr_matrix
    S: dict                       # j -> csr matrix, j in {-1, 0, 1}
    D: sp.csr_matrix
    S_T: np.ndarray               # (n_active, 3, 3) normal Grams
    M_star: sp.csr_matrix         # M + S0
    A_star: sp.csr_matrix         # A + S1
    K_star: sp.csr_matrix         # M + A + S1
    K_aux: sp.csr_matrix          # K_star + S0

    @property
    def n_dofs(self):
        return self.mesh.n_dofs


def _element_runs(topology):
    """Yield (elements, nodes, (k, c)) slices over runs of consecutive
    elements that have c > 0 surface nodes each, at most RUN_NODES nodes.

    A run stacks into one batched matrix product that rounds like one
    product per element; taking the runs in order keeps the summation
    order of a loop over elements, and the run size bounds the memory of
    per-node temporaries.
    """
    ptr = topology.elem_ptr
    counts = np.diff(ptr)
    starts = np.flatnonzero(np.diff(counts, prepend=-1))
    for s, e in zip(starts, np.append(starts[1:], len(counts))):
        c = int(counts[s])
        if c == 0:
            continue
        step = max(1, RUN_NODES // c)
        for a in range(s, e, step):
            b = min(a + step, e)
            yield slice(a, b), slice(ptr[a], ptr[b]), (b - a, c)


def element_csr(elements, blocks, n):
    """Sum per-element 3x3 blocks (n_active, 3, 3) into an n x n CSR matrix;
    the conversion sums duplicates and sorts the indices."""
    rows = np.repeat(elements, 3, axis=1).ravel()
    cols = np.tile(elements, (1, 3)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble(active_mesh, topology):
    """Assemble every Gram matrix of the stabilized method."""
    n = active_mesh.n_dofs
    elems = active_mesh.elements
    h_t = active_mesh.h_T[:, None, None]

    # Surface terms: P1 values and tangential gradients at arc nodes.
    w, bary, nrm = topology.w, topology.bary, topology.normal
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

    # Normal-derivative Gram over the full triangle.
    dn = topology.v_normal @ active_mesh.grad.transpose(0, 2, 1)
    s_t = (dn * topology.v_w[..., None]).transpose(0, 2, 1) @ dn

    mass = element_csr(elems, m_t, n)
    stiff = element_csr(elems, a_t, n)
    stab = {j: element_csr(elems, h_t ** (1 - 2 * j) * s_t, n)
            for j in (-1, 0, 1)}
    k_star = mass + stiff + stab[1]
    return FemSystem(
        mesh=active_mesh,
        topology=topology,
        M=mass,
        A=stiff,
        S=stab,
        D=element_csr(elems, h_t ** 2 * (m_t + h_t * s_t), n),
        S_T=s_t,
        M_star=mass + stab[0],
        A_star=stiff + stab[1],
        K_star=k_star,
        K_aux=k_star + stab[0],
    )


@dataclass
class FourierProbe:
    """Truncated orthonormal Fourier basis on the circle.

    Mode order: constant, then (cos k, sin k) for k = 1..k_max; sizes
    2 k_max + 1.  H1_gram and Hm1_gram are the diagonals 1 + k^2/R^2 and
    its reciprocal.  G couples the FE basis to the harmonics.
    """

    k_max: int
    radius: float
    H1_gram: np.ndarray           # diagonal entries
    Hm1_gram: np.ndarray
    G: np.ndarray = None          # (n_dofs, 2 k_max + 1)
    orthonormality_defect: float = 0.0

    @property
    def n_modes(self):
        return 2 * self.k_max + 1

    def eval_basis(self, theta):
        """Basis values at angles theta: array (len(theta), n_modes)."""
        kt = np.multiply.outer(np.asarray(theta, dtype=float),
                               np.arange(1, self.k_max + 1))
        out = np.empty((len(kt), self.n_modes))
        out[:, 0] = 1.0 / np.sqrt(2.0 * np.pi * self.radius)
        scale = 1.0 / np.sqrt(np.pi * self.radius)
        out[:, 1::2] = scale * np.cos(kt)
        out[:, 2::2] = scale * np.sin(kt)
        return out


def _moments(basis, w, radius):
    """Weighted moments sum_n w_n cos(m theta_n) and sum_n w_n sin(m theta_n)
    for m = 0..2 k_max, times 1 / (pi R): an array (2, 2 k_max + 1).

    Read from the basis values (N, 2 k_max + 1) at the nodes; above k_max
    through cos((k_max + j) t) = cos(k_max t) cos(j t) - sin(k_max t) sin(j t)
    and sin((k_max + j) t) = sin(k_max t) cos(j t) + cos(k_max t) sin(j t).
    """
    scale = 1.0 / np.sqrt(np.pi * radius)
    bc, bs = basis[:, 1::2], basis[:, 2::2]
    wc, ws = w * bc[:, -1], w * bs[:, -1]
    return np.stack([
        np.concatenate([[scale * scale * w.sum()], scale * (w @ bc),
                        wc @ bc - ws @ bs]),
        np.concatenate([[0.0], scale * (w @ bs), ws @ bc + wc @ bs]),
    ])


def _gram(moments):
    """The Gram matrix of the Fourier basis under the node weights, from
    its moments (see _moments) by the product-to-sum identities."""
    c, s = moments
    k_max = (len(c) - 1) // 2
    k = np.arange(1, k_max + 1)
    diff = np.abs(k[:, None] - k)
    both = k[:, None] + k
    gram = np.empty((2 * k_max + 1, 2 * k_max + 1))
    gram[0, 0] = 0.5 * c[0]
    gram[0, 1::2] = gram[1::2, 0] = c[1:k_max + 1] / np.sqrt(2.0)
    gram[0, 2::2] = gram[2::2, 0] = s[1:k_max + 1] / np.sqrt(2.0)
    gram[1::2, 1::2] = 0.5 * (c[diff] + c[both])
    gram[2::2, 2::2] = 0.5 * (c[diff] - c[both])
    # row cos(j t), column sin(k t): (sin((k + j) t) + sin((k - j) t)) / 2
    cross = 0.5 * (s[both] + np.sign(k - k[:, None]) * s[diff])
    gram[1::2, 2::2] = cross
    gram[2::2, 1::2] = cross.T
    return gram


def assemble_fourier(topology, k_max=128):
    """Build the Fourier probe and its FE coupling matrix G."""
    mesh = topology.mesh
    radius = topology.surface.radius
    h = mesh.h
    needed = oscillation_order(k_max, h, radius, q_surf=0)   # no floor
    if topology.q_surf < needed:
        raise AliasRisk(
            "q_surf=%d too low for k_max=%d at h=%.3g, R=%.3g (need %d)"
            % (topology.q_surf, k_max, h, radius, needed))

    k = np.zeros(2 * k_max + 1)
    k[1::2] = np.arange(1, k_max + 1)
    k[2::2] = np.arange(1, k_max + 1)
    probe = FourierProbe(
        k_max=int(k_max),
        radius=radius,
        H1_gram=1.0 + k ** 2 / radius ** 2,
        Hm1_gram=1.0 / (1.0 + k ** 2 / radius ** 2),
    )

    w = topology.w
    wbary = topology.bary * w[:, None]
    probe.G = np.zeros((mesh.n_dofs, probe.n_modes))
    moments = np.zeros((2, 2 * k_max + 1))
    for els, nodes, shape in _element_runs(topology):
        basis = probe.eval_basis(topology.theta[nodes])
        blocks = wbary[nodes].reshape(*shape, 3).transpose(0, 2, 1) \
            @ basis.reshape(*shape, -1)
        np.add.at(probe.G, mesh.elements[els], blocks)
        moments += _moments(basis, w[nodes], radius)
    probe.orthonormality_defect = float(
        np.abs(_gram(moments) - np.eye(probe.n_modes)).max())
    return probe


def export_matrices(system, out_dir, prefix=""):
    """Write the assembled matrices in Matrix Market coordinate form."""
    import scipy.io     # here: a CLI run that exports nothing skips its import
    mats = {
        "M": system.M, "A": system.A,
        "S_m1": system.S[-1], "S_0": system.S[0], "S_1": system.S[1],
        "M_star": system.M_star, "K_star": system.K_star,
        "K_aux": system.K_aux, "D": system.D,
    }
    for name, m in mats.items():
        path = os.path.join(out_dir, "%s%s.mtx" % (prefix, name))
        scipy.io.mmwrite(path, sp.coo_matrix(m), symmetry="symmetric")
