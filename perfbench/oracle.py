"""Reference eigenvalues that share no code with the shooting solver.

Second-order central differences on a fine mesh (a ghost node closes a Robin
end), solved as a dense symmetric tridiagonal problem and sharpened by one
Richardson step.  This is the method of the test suite's oracle module; it
is repeated here so that later changes to the tests cannot move the
benchmark's reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal


def _fd(pv, m: int, count: int, b: float) -> np.ndarray:
    h = 1.0 / m
    x = np.linspace(0.0, 1.0, m + 1)
    main = 2.0 / h**2 + pv(x[1:-1])
    off = -np.ones(m - 2) / h**2
    if not math.isinf(b):
        # Robin right end y'(1) + b y(1) = 0; the half-weight trick keeps
        # the ghost-node row symmetric.
        main = np.append(main, 2.0 / h**2 + pv(np.array([1.0]))[0] + 2.0 * b / h)
        off = np.append(off, -math.sqrt(2.0) / h**2)
    return eigvalsh_tridiagonal(main, off, select="i",
                                select_range=(0, count - 1))


def eigenvalues(pv, count: int, b: float = math.inf, m: int = 8000) -> np.ndarray:
    """Lowest ``count`` eigenvalues of -y'' + pv y, Dirichlet at x = 0.

    The right end is Dirichlet for infinite ``b`` and Robin otherwise.
    """
    coarse = _fd(pv, m, count, b)
    fine = _fd(pv, 2 * m, count, b)
    return (4.0 * fine - coarse) / 3.0
