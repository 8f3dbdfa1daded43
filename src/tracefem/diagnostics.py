"""Mesh-dependent constants as extremal eigenpairs.

Measures the operator norms of the stabilized projection, the inverse
parameter C_inv,h, the dual-norm gap Lambda_h, the inf-sup bounds built
from them, and the condition numbers of the one-step system matrices.
Each norm and gap is the top pair of an SPD pencil.  On the n_dofs-sized
pencils (C_inv,h, Lambda_h) it comes from Lanczos (ARPACK through
``scipy.sparse.linalg.eigsh``) in generalized mode, with the dual-norm
Gram N = M_* K_*^-1 M_* and its inverse applied through the LUs of M_*
and K_*, so no n_dofs x n_dofs matrix is formed.  Each condition number
takes lambda_max by Lanczos and lambda_min by shift-invert at 0 through
an LU of the matrix.  The projection pencil lives on the 2 k_max + 1
Fourier modes, whose count does not grow with h and whose top is
clustered near 1; LAPACK takes it.  Every norm and gap is checked by
the residual of its pair, and Lanczos starts from a fixed vector, so
reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .assembly import element_csr
from .errors import EigFailure, SingularMatrix, SolveFailure
from .heatsolver import blockwise
from .operators import _Factor


def _check_pair(lam, x, lhs, rhs, tol=1e-8):
    rl = lhs @ x
    rr = rhs @ x
    res = np.linalg.norm(rl - lam * rr)
    if res > tol * (np.linalg.norm(rl) + abs(lam) * np.linalg.norm(rr)):
        raise EigFailure("extremal eigenpair residual %.3e above tolerance" % res)


def _operator(n, matvec):
    """The symmetric n x n map x -> matvec(x) as a LinearOperator."""
    return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


def _eigsh(mat, **kwargs):
    """One Lanczos eigenpair of mat, started from a fixed vector."""
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, mat.shape[0])
    try:
        w, v = spla.eigsh(mat, k=1, v0=v0, **kwargs)
    except spla.ArpackError as exc:
        raise EigFailure("Lanczos: %s" % exc)
    return float(w[0]), v[:, 0]


def _top_eig(lhs, dual):
    """Largest eigenvalue of the pencil (lhs, N) with dual = (N, N^-1);
    residual-checked."""
    gram, inv = dual
    lam, x = _eigsh(lhs, M=gram, Minv=inv, which="LA")
    _check_pair(lam, x, lhs, gram)
    return lam


def _kappa(mat, what):
    """kappa of the sparse SPD matrix mat; ``what`` names it on failure.

    Only the converged Ritz values are used: on a symmetric mesh an end
    of the spectrum can be a doublet, whose Ritz value is exact while
    the vector may carry the unconverged second copy.
    """
    try:
        lu = _Factor(mat, what)
        lo = _eigsh(mat, sigma=0.0, which="LM",
                    OPinv=_operator(mat.shape[0], lu.solve))[0]
    except SolveFailure as exc:
        raise SingularMatrix("%s is singular: %s" % (what, exc))
    if lo <= 0.0:
        raise SingularMatrix("%s has lambda_min = %.3e" % (what, lo))
    return _eigsh(mat, which="LA")[0] / lo


def op_norms_ph(operators):
    """Operator norms of the projection over the truncated H1 sphere.

    Columns of B = M_*^-1 G are the projections of the harmonics; the
    norms are sqrt of the largest eigenvalue of (B' Q B, H1_gram) with
    Q the H1-Gamma Gram (M + A) resp. the stabilized Gram K_*.  The
    pencil has one row per Fourier mode and is solved by LAPACK.
    """
    system, probe = operators.system, operators.probe
    bmat = operators.mstar.solve(probe.G)
    gram = np.diag(probe.H1_gram)
    out = []
    for q in (system.M + system.A, system.K_star):
        c = bmat.T @ (q @ bmat)
        c = 0.5 * (c + c.T)
        try:
            w, v = sla.eigh(c, gram, subset_by_index=[len(c) - 1] * 2)
        except sla.LinAlgError as exc:
            raise EigFailure(str(exc))
        _check_pair(w[0], v[:, 0], c, gram)
        out.append(float(np.sqrt(max(w[0], 0.0))))
    return out[0], out[1]


def _dual_operators(operators):
    """(N, N^-1) as operators: N = M_* K_*^-1 M_*, the Gram of the
    discrete dual norm, and N^-1 = M_*^-1 K_* M_*^-1, through the LUs."""
    system, mstar, kstar = operators.system, operators.mstar, operators.kstar
    m, k = system.M_star, system.K_star
    return (_operator(system.n_dofs, lambda x: m @ kstar.solve(m @ x)),
            _operator(system.n_dofs, lambda x: mstar.solve(k @ mstar.solve(x))))


def c_inv_h(operators, dual):
    """sqrt of the largest eigenvalue of (D, N) with the h-weighted
    local Gram D and the dual-norm Gram N (``_dual_operators``)."""
    lam = _top_eig(operators.system.D, dual)
    return float(np.sqrt(max(lam, 0.0)))


def lambda_h(operators, dual):
    """Dual-norm gap Lambda_h = inf ||v||_{V^-1} / ||v||_{H^-1_*}.

    Computed from the largest eigenvalue of (H + S_-1, N) where H is
    the truncated H^-1-Gamma Gram G Hm1 G' of the trace functionals and
    N the dual-norm Gram (``_dual_operators``); H is applied as
    x -> G (Hm1 (G' x)).  Returns (Lambda_h, 1/Lambda_h).
    """
    g, hm1 = operators.probe.G, operators.probe.Hm1_gram
    s = operators.system.S[-1]
    lhs = _operator(len(g), lambda x: g @ (hm1 * (g.T @ x)) + s @ x)
    lam = _top_eig(lhs, dual)
    inv = float(np.sqrt(max(lam, 0.0)))
    return 1.0 / inv, inv


def infsup_bounds(norm_ph_h1star, norm_ph_h1gamma, c_inv, t_final,
                  mean_zero=False):
    """Lower/upper bounds on the space-time inf-sup constant.

    Lower: c_b^- / (||P_h||_H1* + C_inv,h) with c_b^- = 1/(sqrt8 (1+2T)),
    or 1/sqrt8 for mean-zero data.  Upper: sqrt2 / ||P_h||_H1Gamma.
    """
    cbm = 1.0 / np.sqrt(8.0)
    if not mean_zero:
        cbm /= (1.0 + 2.0 * t_final)
    lower = cbm / (norm_ph_h1star + c_inv)
    upper = np.sqrt(2.0) / norm_ph_h1gamma
    return float(lower), float(upper)


def condition_number(system, dt, stabilized_time=True, literal=False):
    """kappa of the one-implicit-step matrix.

    Default: built from the bilinear forms, B_* = (1/dt)(M + S0) + A + S1
    (stabilized time derivative) or B = (1/dt) M + A + S1.  With
    ``literal`` the displayed h/dt-scaled forms are used instead:
    B_* = (1/dt)(M + h S) + (A + (1/dt) S), B = (1/dt) M + (A + (1/dt) S)
    with S the unscaled normal Gram and h the mesh size.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if literal:
        s = element_csr(system.mesh.elements, system.S_T, system.n_dofs)
        if stabilized_time:
            mat = (system.M + system.mesh.h * s) / dt + system.A + s / dt
        else:
            mat = system.M / dt + system.A + s / dt
    elif stabilized_time:
        mat = system.M_star / dt + system.A + system.S[1]
    else:
        mat = system.M / dt + system.A + system.S[1]
    return _kappa(mat, "one-step matrix")


def kappa_pstar(system):
    """Condition number of the stabilized mass matrix M + S0."""
    return _kappa(system.M_star, "M + S0")


def max_regularity_ratio(operators, history, dt, u0=None, f=None):
    """Discrete maximal-parabolic-regularity ratio of a heat run.

    (||Lap_h u_h||_{L2t H^-1_*} + ||d_t u_h||_{L2t H^-1_*}) /
    (||f||_{L2t H^-1_Gamma} + ||u0||_{L2_Gamma}); the time integrals use
    the trapezoid rule on the step grid and backward differences for
    d_t u_h, over blocks of states.  Returns 0 for identically zero data.
    """
    history = np.asarray(history)
    nsteps = len(history) - 1
    lap_sq = blockwise(lambda b: operators.hm1_star(
        operators.laplacian(history[b])) ** 2, len(history))
    trap = np.ones(len(history))
    trap[0] = trap[-1] = 0.5
    lap_int = float(np.sqrt(dt * trap @ lap_sq))
    dtu_sq = blockwise(lambda b: operators.hm1_star(
        np.diff(history[b.start:b.stop + 1], axis=0) / dt) ** 2, nsteps)
    dtu_int = float(np.sqrt(dt * np.sum(dtu_sq)))

    den = 0.0
    if u0 is not None:
        den += operators.l2_gamma_of_function(u0)
    if f is not None:
        f_sq = operators.hm1_gamma_of_function(
            f, dt * np.arange(len(history))) ** 2
        den += float(np.sqrt(dt * trap @ f_sq))
    if den == 0.0:
        return 0.0
    return (lap_int + dtu_int) / den


@dataclass
class ConstantsReport:
    """All measured constants for one mesh; one CSV row."""

    mesh_id: str
    h: float
    n_dofs: int
    k_max: int
    norm_Ph_H1gamma: float
    norm_Ph_H1star: float
    C_inv_h: float
    Lambda_h: float
    inv_Lambda_h: float
    c_star_lower: float
    c_star_upper: float
    kappa_Pstar: float
    C_MPR_ratio: float = float("nan")

    def row(self):
        return [getattr(self, f.name) for f in fields(self)]


def constants_report(operators, t_final=1.0, mesh_id=""):
    """Measure every eigenvalue-based constant on one mesh."""
    system = operators.system
    g_norm, s_norm = op_norms_ph(operators)
    dual = _dual_operators(operators)
    c_inv = c_inv_h(operators, dual)
    lam, inv_lam = lambda_h(operators, dual)
    lower, upper = infsup_bounds(s_norm, g_norm, c_inv, t_final)
    return ConstantsReport(
        mesh_id=mesh_id,
        h=system.mesh.h,
        n_dofs=system.n_dofs,
        k_max=operators.probe.k_max,
        norm_Ph_H1gamma=g_norm,
        norm_Ph_H1star=s_norm,
        C_inv_h=c_inv,
        Lambda_h=lam,
        inv_Lambda_h=inv_lam,
        c_star_lower=lower,
        c_star_upper=upper,
        kappa_Pstar=kappa_pstar(system),
    )
