"""Independent reference values for the test suite.

Eigenvalue references come from a second-order finite-difference
discretization (central differences on a fine mesh, Robin ends via a ghost
node) sharpened by one Richardson step.  This pipeline shares no code with
the shooting solver under test: different discretization, different
eigenvalue algorithm (dense symmetric tridiagonal), different grids.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

INF = math.inf


def fd_dirichlet(pv, m: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of -y'' + p y with y(0) = y(1) = 0, mesh size 1/m."""
    h = 1.0 / m
    x = np.linspace(0.0, 1.0, m + 1)
    main = 2.0 / h**2 + pv(x[1:-1])
    off = -np.ones(m - 2) / h**2
    return eigh_tridiagonal(main, off, select="i",
                            select_range=(0, count - 1))[0]


def fd_mixed(pv, m: int, count: int, b: float) -> np.ndarray:
    """Dirichlet left end, Robin right end y'(1) + b y(1) = 0.

    The ghost-node row at x = 1 is symmetrized by the half-weight trick,
    which scales the final off-diagonal entry by sqrt(2).
    """
    h = 1.0 / m
    x = np.linspace(0.0, 1.0, m + 1)
    main = 2.0 / h**2 + pv(x[1:-1])
    off = -np.ones(m - 2) / h**2
    main = np.append(main, 2.0 / h**2 + pv(1.0) + 2.0 * b / h)
    off = np.append(off, -math.sqrt(2.0) / h**2)
    return eigh_tridiagonal(main, off, select="i",
                            select_range=(0, count - 1))[0]


def fd_generic(pv, m: int, count: int, a: float, b: float) -> np.ndarray:
    """Robin ends y'(0) = a y(0) and y'(1) + b y(1) = 0.

    Ghost nodes at both ends; both boundary rows are symmetrized by the
    half-weight trick, which scales the first and the last off-diagonal
    entries by sqrt(2).
    """
    h = 1.0 / m
    x = np.linspace(0.0, 1.0, m + 1)
    main = 2.0 / h**2 + pv(x)
    main[0] += 2.0 * a / h
    main[-1] += 2.0 * b / h
    off = -np.ones(m) / h**2
    off[[0, -1]] *= math.sqrt(2.0)
    return eigh_tridiagonal(main, off, select="i",
                            select_range=(0, count - 1))[0]


def oracle_eigenvalues(pv, count: int, b: float = INF,
                       m: int = 4000, a: float = INF) -> np.ndarray:
    """Richardson-sharpened finite-difference eigenvalues."""
    def ladder(mesh):
        if a != INF:
            return fd_generic(pv, mesh, count, a, b)
        if b != INF:
            return fd_mixed(pv, mesh, count, b)
        return fd_dirichlet(pv, mesh, count)

    coarse, fine = ladder(m), ladder(2 * m)
    return (4.0 * fine - coarse) / 3.0


def dirichlet_exact(N: int) -> np.ndarray:
    """Zero-potential Dirichlet eigenvalues (pi n)^2, n = 1..N."""
    return (math.pi * np.arange(1, N + 1)) ** 2


def mixed_exact(N: int) -> np.ndarray:
    """Zero-potential Dirichlet/Neumann eigenvalues (pi (n+1/2))^2, n >= 0."""
    return (math.pi * (np.arange(N) + 0.5)) ** 2


def sin2pi_potential(x):
    """Closed form of the forward map at q = sin(2 pi x), u = 0."""
    return (2.0 * math.pi * np.cos(2.0 * math.pi * x)
            + np.sin(2.0 * math.pi * x) ** 2 - 0.5)


SIN2PI_NORM_SQ = 2.0 * math.pi ** 2 + 0.125
"""Exact squared norm of the potential above: 2 pi^2 + 1/8."""


def fd_fit_jacobian(fmap, theta, delta: float = 1e-6) -> np.ndarray:
    """Forward-difference Jacobian of a fit residual, one full solve per mode."""
    r0 = fmap.residual(theta)[0]
    cols = []
    for j in range(theta.size):
        shifted = theta.copy()
        shifted[j] += delta
        cols.append((fmap.residual(shifted)[0] - r0) / delta)
    return np.stack(cols, axis=1)
