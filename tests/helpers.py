"""Measurements and maps that only the tests use.

The exact closest-point projection and the nodal interpolant of the
normal extension, which the geometry and best-approximation tests check
against, the maximal-parabolic-regularity ratio of acceptance
criterion 8 with the discrete Laplacian and the data norms it takes,
the Fourier-truncated H^-1 norm on Gamma, the slicing of a series into
blocks of BLOCK that the oracles evaluate stacked functionals on, the
constant manufactured solutions that steady and zero runs are made of,
and the traced memory peak of a call that the memory guards bound.
"""

import tracemalloc

import numpy as np

from tracefem.heatsolver import BLOCK, Manufactured


def constant(c):
    """The manufactured solution u = c, with f = 0: a run of it starts
    from P_h c and stays there."""
    return Manufactured(time=lambda t: c + 0.0 * t, dtime=lambda t: 0.0 * t,
                        profile=np.ones_like, dprofile=np.zeros_like)


def traced_peak(fn):
    """(peak, kept, out): the peak traced memory while out = fn() runs and
    the memory still held when it returns, in bytes.  scipy's sparse
    solvers are imported first, as ``cli.main`` does before the first
    ``Pipeline``, so a test run alone does not trace their first import."""
    import scipy.sparse.linalg  # noqa: F401
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept, out


def blockwise(fn, n):
    """Concatenate fn(b) over slices b of range(n) of at most BLOCK steps,
    which bound the (k, n_dofs) temporaries of a stacked functional and
    the (k, 4 k_max + 4) samples of the Fourier coefficients; empty for
    n = 0."""
    return np.concatenate([np.empty(0)] + [fn(slice(a, min(a + BLOCK, n)))
                                           for a in range(0, n, BLOCK)])


def closest_point(surface, x):
    """Project points x (..., 2) onto the circle with the exact radial
    formula; DegeneratePoint at the center."""
    d, r = surface._offset(x)
    return surface.center + surface.radius * d / r


def nodal_interpolant(ops, v):
    """Vertex values of the normal extension v(p(z)) of a function of theta."""
    c = ops.topology.surface.center
    z = ops.mesh.coords
    theta = np.arctan2(z[:, 1] - c[1], z[:, 0] - c[0])
    return np.asarray(v(theta), dtype=float)


def laplacian(ops, x):
    """Discrete Laplacian d with (M + S0) d = (A + S1) x of each row of x
    (k, n_dofs), solved as k right-hand sides at once.

    Sign convention: for smooth v on the unit circle the trace of
    laplacian(project(v)) approximates -Laplace-Beltrami(v), i.e. +v for
    v = cos(theta).
    """
    return ops.mstar.solve(ops.system.A_star @ x.T).T


def l2_gamma_of_function(ops, v):
    """||v||_L2(Gamma) of a function of theta by the cut quadrature."""
    vals = np.asarray(v(ops.topology.theta))
    return float(np.sqrt(ops.topology.w @ vals ** 2))


def hm1_gamma(ops, x):
    """Fourier-truncated H^-1 norm on Gamma of the trace of each row of x."""
    return np.sqrt((x @ ops.probe.G) ** 2 @ ops.probe.Hm1_gram)


def hm1_gamma_of_function(ops, g, a):
    """Truncated H^-1 norm of the function a g of the profile g(theta),
    one value per time factor of a (k,)."""
    c = ops.probe.coefficients(g, a)
    return np.sqrt(c ** 2 @ ops.probe.Hm1_gram)


def max_regularity_ratio(ops, history, dt, u0=None, f=None):
    """Discrete maximal-parabolic-regularity ratio of a heat run.

    (||Lap_h u_h||_{L2t H^-1_*} + ||d_t u_h||_{L2t H^-1_*}) /
    (||f||_{L2t H^-1_Gamma} + ||u0||_{L2_Gamma}); the time integrals use
    the trapezoid rule on the step grid and backward differences for
    d_t u_h, over blocks of states.  u0 is a function of theta and f
    the forcing as (profile g, time factor c), f = c(t) g(theta).  Returns
    0 for identically zero data.
    """
    history = np.asarray(history)
    nsteps = len(history) - 1
    lap_sq = blockwise(lambda b: ops.hm1_star(
        laplacian(ops, history[b])) ** 2, len(history))
    trap = np.ones(len(history))
    trap[0] = trap[-1] = 0.5
    lap_int = float(np.sqrt(dt * trap @ lap_sq))
    dtu_sq = blockwise(lambda b: ops.hm1_star(
        np.diff(history[b.start:b.stop + 1], axis=0) / dt) ** 2, nsteps)
    dtu_int = float(np.sqrt(dt * np.sum(dtu_sq)))

    den = 0.0
    if u0 is not None:
        den += l2_gamma_of_function(ops, u0)
    if f is not None:
        g, c = f
        f_sq = blockwise(lambda b: hm1_gamma_of_function(
            ops, g, c(dt * np.arange(b.start, b.stop))) ** 2, len(history))
        den += float(np.sqrt(dt * trap @ f_sq))
    if den == 0.0:
        return 0.0
    return (lap_int + dtu_int) / den

