"""Mesh-dependent constants as extremal eigenpairs.

Measures the operator norms of the stabilized projection, the inverse
parameter C_inv,h, the dual-norm gap Lambda_h, the inf-sup bounds built
from them, and the condition numbers of the one-step system matrices
the heat stepper factors (``heatsolver.step_matrix``).  Each norm and
gap is the top pair of an SPD pencil.  On the n_dofs-sized pencils
(C_inv,h, Lambda_h) it comes from Lanczos (ARPACK through
``scipy.sparse.linalg.eigsh``) in generalized mode, with the dual-norm
Gram N = M_* K_*^-1 M_* and its inverse applied through the LUs of M_*
and K_*, so no n_dofs x n_dofs matrix is formed.  Each condition number
takes lambda_max by Lanczos and lambda_min by shift-invert at 0 through
an LU of the matrix.  The projection pencil lives on the 2 k_max + 1
Fourier modes, whose count does not grow with h and whose top is
clustered near 1; LAPACK takes it.  Its Gram is diagonal, so scaling
the columns of the projections B = M_*^-1 G by H1_gram^-1/2 in place
makes each pencil a standard symmetric problem.  Each is filled a block
of modes at a time into one reused n_modes x n_modes buffer that LAPACK
overwrites, and its top pair is checked against the pencil applied
matrix-free.  Besides the probe's G and the scaled projections no
n_dofs x n_modes array is formed.

Accuracy: Lanczos stops once ARPACK bounds the residual of its Ritz
pair by tol |theta|, tol = ``LIMITS["lanczos_tol"]`` (1e-12), which for
a symmetric pencil bounds the value, |lambda - theta| <= tol |theta|.
ARPACK's test has an absolute floor (tol eps^(2/3)), so each condition
number is taken of its matrix scaled by the power of two that brings the
largest diagonal entry to about 1; both ends of the spectrum then lie
far above the floor, and the scaling is exact and leaves kappa
unchanged.  The eigenvalues behind C_inv,h and Lambda_h are of order 10
and need no scaling; their pairs are also checked by residual
(``LIMITS["pair_residual"]``), while kappa uses the Ritz values alone.
Lanczos starts from a fixed vector, so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .assembly import element_csr
from .errors import LIMITS, EigFailure, SingularMatrix, SolveFailure
from .heatsolver import step_matrix
from .operators import _Factor


def _check_pair(lam, x, lhs, rhs):
    """EigFailure unless (lam, x) meets the relative residual
    LIMITS["pair_residual"] of the pencil (lhs, rhs); a NaN misses it."""
    rl = lhs @ x
    rr = rhs @ x
    res = np.linalg.norm(rl - lam * rr)
    if not res <= LIMITS["pair_residual"] * (np.linalg.norm(rl)
                                             + abs(lam) * np.linalg.norm(rr)):
        raise EigFailure("extremal eigenpair residual %.3e above tolerance" % res)


def _operator(n, matvec):
    """The symmetric n x n map x -> matvec(x) as a LinearOperator."""
    import scipy.sparse.linalg as spla  # here: a cut alone loads no scipy
    return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


MAXITER = 100       # restarts allowed per value; 14 is the most measured


def _eigsh(mat, **kwargs):
    """One Lanczos eigenpair of mat, started from a fixed vector.

    ARPACK stops once the residual bound of the Ritz value theta is at
    most tol max(eps^(2/3), |theta|), tol = LIMITS["lanczos_tol"], so
    |lambda - theta| <= tol |theta| wherever |theta| >= eps^(2/3)
    (``_kappa`` scales its matrix so that it is).  More than MAXITER
    restarts is an ``EigFailure``.
    """
    import scipy.sparse.linalg as spla  # here: a cut alone loads no scipy
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, mat.shape[0])
    try:
        w, v = spla.eigsh(mat, k=1, v0=v0, tol=LIMITS["lanczos_tol"],
                          maxiter=MAXITER, **kwargs)
    except spla.ArpackError as exc:
        raise EigFailure("Lanczos: %s" % exc)
    return float(w[0]), v[:, 0]


def _top_eig(lhs, operators):
    """Largest eigenvalue of the pencil (lhs, N), residual-checked, with
    the dual-norm Gram N = M_* K_*^-1 M_* and its inverse
    N^-1 = M_*^-1 K_* M_*^-1 applied through the LUs of ``operators``."""
    system, mstar, kstar = operators.system, operators.mstar, operators.kstar
    m, k = system.M_star, system.K_star
    gram = _operator(system.n_dofs, lambda x: m @ kstar.solve(m @ x))
    inv = _operator(system.n_dofs, lambda x: mstar.solve(k @ mstar.solve(x)))
    lam, x = _eigsh(lhs, M=gram, Minv=inv, which="LA")
    _check_pair(lam, x, lhs, gram)
    return lam


def _kappa(mat, what):
    """kappa of the sparse SPD matrix mat; ``what`` names it on failure.

    Only the converged Ritz values are used: on a symmetric mesh an end
    of the spectrum can be a doublet, whose Ritz value is exact while
    the vector may carry the unconverged second copy.  The matrix is
    first scaled by 2^-round(log2 max_i a_ii), exactly, so that both
    1/lambda_min and lambda_max lie above ARPACK's absolute floor: at
    dt = 1e-50 the unscaled 1/lambda_min of B_* at n_cells=16 is 2.8e-49.
    A failed factorization or lambda_min <= 0 is a SingularMatrix; shift-
    invert solves that miss the residual rule of ``_Factor.solve``, as an
    LU solve can once eps kappa > 1e-12, stay a SolveFailure.
    """
    dmax = mat.diagonal().max()
    if not dmax > 0.0:
        raise SingularMatrix("%s has largest diagonal entry %.3e"
                             % (what, dmax))
    mat = mat * np.ldexp(1.0, -int(np.round(np.log2(dmax))))
    try:
        lu = _Factor(mat, what)
    except SolveFailure as exc:
        raise SingularMatrix("%s is singular: %s" % (what, exc))
    lo = _eigsh(mat, sigma=0.0, which="LM",
                OPinv=_operator(mat.shape[0], lu.solve))[0]
    if lo <= 0.0:
        raise SingularMatrix("%s has lambda_min = %.3e" % (what, lo))
    return _eigsh(mat, which="LA")[0] / lo


PENCIL_BLOCK = 32   # Fourier modes per column block of the projection pencil


def op_norms_ph(operators):
    """Operator norms of the projection over the truncated H1 sphere.

    Columns of B = M_*^-1 G are the projections of the harmonics; the
    norms are sqrt of the largest eigenvalue of (B' Q B, H1_gram) with
    Q the H1-Gamma Gram (M + A) resp. the stabilized Gram K_*.  The Gram
    is diagonal, so with the columns scaled in place, Bs = B H1_gram^-1/2,
    each pencil is the standard symmetric problem Bs' Q Bs.  B is solved
    and each pencil filled PENCIL_BLOCK columns at a time,
    C[:, J] = Bs' (Q Bs_J), into one Fortran-ordered n_modes x n_modes
    buffer that LAPACK overwrites, once per Q.  G and Bs are the only
    n_dofs x n_modes arrays, and every other temporary holds one block
    of columns.  The top pair is checked against the pencil applied
    matrix-free, y -> Bs' (Q (Bs y)), so a wrong fill fails too.
    """
    import scipy.linalg as sla  # here: a cut alone loads no scipy
    system, probe = operators.system, operators.probe
    g = probe.G
    n = g.shape[1]
    blocks = [slice(j, j + PENCIL_BLOCK) for j in range(0, n, PENCIL_BLOCK)]
    bmat = np.empty(g.shape)
    for cols in blocks:
        bmat[:, cols] = operators.mstar.solve(g[:, cols])
    bmat /= np.sqrt(probe.H1_gram)
    c = np.empty((n, n), order="F")
    identity = _operator(n, lambda y: y)
    out = []
    for q in (system.M + system.A, system.K_star):
        for cols in blocks:
            c[:, cols] = bmat.T @ (q @ bmat[:, cols])
        try:
            w, v = sla.eigh(c, subset_by_index=[n - 1] * 2, overwrite_a=True)
        except sla.LinAlgError as exc:
            raise EigFailure(str(exc))
        pencil = _operator(n, lambda y: bmat.T @ (q @ (bmat @ y)))
        _check_pair(w[0], v[:, 0], pencil, identity)
        out.append(float(np.sqrt(max(w[0], 0.0))))
    return out[0], out[1]


def c_inv_h(operators):
    """sqrt of the largest eigenvalue of (D, N) with the h-weighted
    local Gram D and the dual-norm Gram N (``_top_eig``)."""
    lam = _top_eig(operators.system.D, operators)
    return float(np.sqrt(max(lam, 0.0)))


def lambda_h(operators):
    """Dual-norm gap Lambda_h = inf ||v||_{V^-1} / ||v||_{H^-1_*}.

    Computed from the largest eigenvalue of (H + S_-1, N) where H is
    the truncated H^-1-Gamma Gram G Hm1 G' of the trace functionals and
    N the dual-norm Gram (``_top_eig``); H is applied as
    x -> G (Hm1 (G' x)).  Returns (Lambda_h, 1/Lambda_h).
    """
    g, hm1 = operators.probe.G, operators.probe.Hm1_gram
    s = operators.system.S[-1]
    lhs = _operator(len(g), lambda x: g @ (hm1 * (g.T @ x)) + s @ x)
    lam = _top_eig(lhs, operators)
    inv = float(np.sqrt(max(lam, 0.0)))
    return 1.0 / inv, inv


def infsup_bounds(norm_ph_h1star, norm_ph_h1gamma, c_inv, t_final):
    """Lower/upper bounds on the space-time inf-sup constant.

    Lower: c_b^- / (||P_h||_H1* + C_inv,h) with c_b^- = 1/(sqrt8 (1+2T)).
    Upper: sqrt2 / ||P_h||_H1Gamma.
    """
    cbm = 1.0 / np.sqrt(8.0) / (1.0 + 2.0 * t_final)
    lower = cbm / (norm_ph_h1star + c_inv)
    upper = np.sqrt(2.0) / norm_ph_h1gamma
    return float(lower), float(upper)


def condition_number(system, dt, stabilized_time=True, literal=False):
    """kappa of the one-implicit-step matrix.

    Default: the backward Euler matrix the heat stepper factors,
    ``heatsolver.step_matrix``: B_* = (1/dt)(M + S0) + (A + S1)
    (stabilized time derivative) or B = (1/dt) M + (A + S1).  With
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
    else:
        mat = step_matrix(system, "BDF1", dt, stabilized_time)
    return _kappa(mat, "one-step matrix")


def kappa_pstar(system):
    """Condition number of the stabilized mass matrix M + S0."""
    return _kappa(system.M_star, "M + S0")


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
    # Always nan: nothing fills it.  The column stays because the shipped
    # diagnose.csv and the benchmark's reference copy of it are frozen.
    C_MPR_ratio: float = float("nan")

    def row(self):
        return [getattr(self, f.name) for f in fields(self)]


def constants_report(operators, t_final=1.0, mesh_id=""):
    """Measure every eigenvalue-based constant on one mesh."""
    system = operators.system
    g_norm, s_norm = op_norms_ph(operators)
    c_inv = c_inv_h(operators)
    lam, inv_lam = lambda_h(operators)
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
