"""Independent reference values for the test suite.

Eigenvalue references come from a second-order finite-difference
discretization (central differences on a fine mesh, Robin ends via a ghost
node) sharpened by one Richardson step.  This pipeline shares no code with
the shooting solver under test: different discretization, different
eigenvalue algorithm (dense symmetric tridiagonal), different grids.
Exact eigenvalues, norming constants and dw of steep potentials come from
isospectral flows of the zero potential (``isospectral_flow``), built from
closed forms and ``brentq`` alone.  The per-cell Magnus loop
(``loop_sweep``) forms each cell from explicit commutators and
``scipy.linalg.expm``, and the count bisection and Newton of
``bisect_level`` find a grid's eigenvalues by another path than the
package's.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm
from scipy.optimize import brentq

from liouville import (BracketError, GridFunction, Impedance, IntegrationError,
                       Potential, RangeError, SchrodingerProblem, build_rho,
                       cumulative_integral, differentiate, forward_transform,
                       frechet_apply, inner_product, integral, resample, sup_norm)
from liouville.grid import _simpson_weights, local_quintic
from liouville.ode import _count_below, _endpoint_w
from liouville.spectral import (_endpoint_quantities, boundary_shift,
                                regime_of, unperturbed_eigenvalues)
from liouville.transform import LOG_RANGE_LIMIT

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


def _free_shot(a, w, x):
    """y, y' and int_0^x y**2 of the zero problem's shot from the left data.

    The shot starts from (0, 1) or (1, a) at x = 0; at lam = w**2 > 0 it is
    y = y0 cos(w x) + v0 sin(w x) / w, and y = y0 + v0 x at w = 0.
    """
    y0, v0 = (0.0, 1.0) if a == INF else (1.0, float(a))
    x = np.asarray(x, dtype=float)
    if w == 0.0:
        return y0 + v0 * x, v0 + 0.0 * x, x * (y0 * y0 + x * (
            y0 * v0 + x * v0 * v0 / 3.0))
    c, s, half = np.cos(w * x), np.sin(w * x), np.sin(2.0 * w * x) / (4.0 * w)
    square = (y0 * y0 * (0.5 * x + half) + y0 * v0 * (s / w) ** 2
              + (v0 / w) ** 2 * (0.5 * x - half))
    return y0 * c + v0 * s / w, v0 * c - y0 * w * s, square


def closed_form_ladder(a, b, N):
    """Zero-potential eigenvalues, norming constants and log|dw|, by slot.

    The characteristic function of ``_free_shot`` at x = 1 is scanned in
    w = sqrt(lam) for sign changes and each is refined by ``brentq``; lam = 0
    is a root where it vanishes at w = 0.  The norming constant is
    log|y'(1)| for a Dirichlet right end, else log|y(1)|.  The Lagrange
    identity for d/dlam of the shot gives dw = int y**2 / y'(1), or
    -int y**2 / y(1) at a Robin right end.  Only pairs without negative
    eigenvalues are covered.
    """
    def char(w):
        y, dy, _ = _free_shot(a, w, 1.0)
        return float(y if b == INF else dy + b * y)

    roots = [0.0] if char(0.0) == 0.0 else []
    grid = np.linspace(1e-3, (N + 1) * math.pi, 64 * (N + 1))
    vals = [char(w) for w in grid]
    for w0, w1, f0, f1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if f0 * f1 < 0.0:
            roots.append(brentq(char, w0, w1, xtol=1e-15, rtol=1e-15))
    roots = np.array(roots[:N])
    reads = np.empty((2, N))
    for k, w in enumerate(roots):
        y, dy, square = _free_shot(a, w, 1.0)
        read = abs(dy if b == INF else y)
        reads[:, k] = math.log(read), math.log(square / read)
    return roots ** 2, reads[0], reads[1]


def isospectral_flow(a, b, slot, t, n, N):
    """A steep potential on n cells with exact spectral data, by slot.

    g is the normalized eigenfunction of slot ``slot`` of p = 0 under
    (a, b), c = e**t - 1 and theta = 1 + c int_x^1 g**2.  Then
    p = -2 (log theta)'' has the spectrum of p = 0 under the ends
    a' = a + (1 - e**-t) g(0)**2 and b' = b - c g(1)**2 (a Dirichlet end
    stays one), the norming constants of p = 0 save nu + t in slot
    ``slot``, and the same characteristic function, so the same dw
    (Poeschel & Trubowitz, Inverse Spectral Theory, 1987, ch. 3).  The
    potential built has its Simpson mean m taken off, and its eigenvalues
    are those of p = 0 less m.  Returns the problem, the new ends and the
    eigenvalues, norming constants and log|dw| of the first N slots.
    """
    lam, norming, log_dw = closed_form_ladder(a, b, N)
    y, dy, square = _free_shot(a, math.sqrt(lam[slot]),
                               np.linspace(0.0, 1.0, n + 1))
    c, total = math.expm1(t), square[-1]
    theta = 1.0 + c * (1.0 - square / total)
    slope = -c * y * y / total / theta
    p = -2.0 * (-2.0 * c * y * dy / total / theta - slope * slope)
    m = integral(GridFunction(p))
    norming[slot] += t
    return SimpleNamespace(
        problem=SchrodingerProblem(Potential(GridFunction(p - m))),
        a=a if a == INF else a - math.expm1(-t) * y[0] ** 2 / total,
        b=b if b == INF else b - c * y[-1] ** 2 / total,
        eigenvalues=lam - m, norming=norming, log_dw=log_dw)


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


# The per-cell loop that propagates every sweep one cell at a time, kept as
# the reference the blocked scan is tested against.  It integrates
# y'' = (V - lam) y + d y' over each cell by the sixth-order Magnus
# exponent of its three Gauss samples (Blanes, Casas & Ros, BIT 40, 2000),
# formed from explicit 2x2 commutators and exponentiated by
# ``scipy.linalg.expm``; a derivative sweep takes the cells at lam + ih.  It
# reads V at the nodes, the Gauss samples of V, and those of the damping d
# where the record has them (``damped_coefficients``); the package's
# records have none.

RENORM_EVERY = 512
RENORM_LIMIT = 1e250
SQRT15 = math.sqrt(15.0)
GAUSS_NODES = np.array([0.5 - SQRT15 / 10.0, 0.5, 0.5 + SQRT15 / 10.0])


def _commutator(X, Y):
    return X @ Y - Y @ X


def magnus_exponents(samples, damping, lam, h):
    """Omega of every cell at every lam column, shape (n, K, 2, 2), complex.

    ``samples`` and ``damping`` hold V and d at the three Gauss nodes of
    each cell, shape (3, n).
    """
    A = np.zeros((3, samples.shape[1], lam.size, 2, 2), dtype=complex)
    A[..., 0, 1] = 1.0
    A[..., 1, 0] = samples[:, :, None] - lam
    A[..., 1, 1] = damping[:, :, None]
    a1 = h * A[1]
    a2 = SQRT15 * h / 3.0 * (A[2] - A[0])
    a3 = 10.0 * h / 3.0 * (A[2] - 2.0 * A[1] + A[0])
    c1 = _commutator(a1, a2)
    c2 = -_commutator(a1, 2.0 * a3 + c1) / 60.0
    return a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def magnus_cells(samples, damping, lam, h):
    """exp(Omega) of every cell at every lam column, shape (n, K, 2, 2).

    lam may be complex.  Where |V - lam| h is large Omega is far from
    normal, and expm loses digits to it (1e-12 at 16 cells and lam = -7e4,
    against 3e-15 here), so Omega is first balanced by a diagonal
    similarity of a power of two, which is exact, and exponentiated in
    complex arithmetic, the more accurate of expm's two.
    """
    omega = magnus_exponents(samples, damping, lam, h)
    with np.errstate(divide="ignore"):
        e = np.round(0.5 * np.log2(np.abs(omega[..., 1, 0])
                                   / np.abs(omega[..., 0, 1])))
    s = 2.0 ** np.where(np.isfinite(e), e, 0.0)
    omega[..., 0, 1] *= s
    omega[..., 1, 0] /= s
    M = expm(omega)
    M[..., 0, 1] /= s
    M[..., 1, 0] *= s
    return M if np.iscomplexobj(lam) else M.real


def loop_cells(co, lam: np.ndarray, reverse: bool) -> np.ndarray:
    """The cells of a record at the lam columns, in the order a sweep meets
    them; a reverse sweep reads the record from x = 1, where the damping
    changes sign."""
    samples = co.samples
    damping = getattr(co, "damping", np.zeros_like(samples))
    if reverse:
        samples, damping = samples[::-1, ::-1], -damping[::-1, ::-1]
    n = samples.shape[1]
    chunk = max(16, (1 << 16) // max(lam.size, 1))
    return np.concatenate([
        magnus_cells(samples[:, j:j + chunk], damping[:, j:j + chunk], lam,
                     1.0 / n) for j in range(0, n, chunk)])


def loop_sweep(co, lam: np.ndarray, y0, v0, *, deriv=False,
               trace=False, count=False, reverse=False):
    """Advance the batch across all cells; returns endpoint data and extras.

    Without ``trace`` the state is rescaled per column when it grows past the
    renormalization limit; accumulated log factors are reported so callers
    can reconstruct true magnitudes.  Traces are stored unscaled and overflow
    raises instead.  With ``deriv`` the sweep runs at lam + ih,
    h = 2**-60 max(1, |lam|), and dy and dv are the imaginary parts over h.
    """
    n = co.V.size - 1
    K = lam.size
    step = 2.0 ** -60 * np.maximum(1.0, np.abs(lam))
    M = loop_cells(co, lam + 1j * step if deriv else lam, reverse)
    y = np.broadcast_to(np.asarray(y0, dtype=float), (K,)).astype(M.dtype)
    v = np.broadcast_to(np.asarray(v0, dtype=float), (K,)).astype(M.dtype)
    logscale = np.zeros(K)
    if trace:
        Y = np.empty((n + 1, K))
        W = np.empty((n + 1, K))
        Y[0] = y.real
        W[0] = v.real
    if count:
        flips = np.zeros(K, dtype=int)
        last_sign = np.sign(y.real)
    # Overflow is detected explicitly after the loop; silence the transient.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            y, v = (M[j, :, 0, 0] * y + M[j, :, 0, 1] * v,
                    M[j, :, 1, 0] * y + M[j, :, 1, 1] * v)
            if trace:
                Y[j + 1] = y.real
                W[j + 1] = v.real
            if count:
                # A flip at the final node with y(1) != 0 is a genuine zero
                # in the last cell; y(1) == 0 exactly contributes nothing,
                # keeping the count strict.
                s = np.sign(y.real)
                flips += (s != 0) & (s == -last_sign)
                np.copyto(last_sign, s, where=s != 0)
            if not trace and (j + 1) % RENORM_EVERY == 0:
                peak = np.maximum(np.abs(y), np.abs(v))
                factor = np.where(peak > RENORM_LIMIT, peak, 1.0)
                y /= factor
                v /= factor
                logscale += np.log(factor)
    if trace and not np.all(np.isfinite(Y[-1]) & np.isfinite(W[-1])):
        raise IntegrationError(
            f"trace integration overflowed (n={n}, lam up to {np.max(lam):.6g})")
    if not trace and not np.all(np.isfinite(y) & np.isfinite(v)):
        raise IntegrationError(
            f"integration overflowed despite rescaling (n={n})")
    out = {"y": y.real, "v": v.real, "logscale": logscale}
    if deriv:
        out["dy"] = y.imag / step
        out["dv"] = v.imag / step
    if trace:
        out["Y"] = Y
        out["W"] = W
    if count:
        out["flips"] = flips
    return out


# The impedance equation integrated as it stands, -f'' - 2 q f' + u f = lam f,
# that is f'' = (u - lam) f + d f' with d = -2q, by the per-cell loop above.
# The package solves impedance problems through the Liouville map instead,
# as the normal form with V = q' + q**2 + u, so this path shares neither the
# map nor the sweep with it; its Gauss samples come from the local quintic
# interpolant of q and Q.  End data carry the weight rho(1), which makes them
# those of y = rho f.

def damped_coefficients(q, cfg):
    """Node values of u, and u and the damping d = -2q at the Gauss nodes."""
    profile = build_rho(q)
    qv, Qv = q.f.values, profile.Q.values
    gauss = np.arange(q.n) + GAUSS_NODES[:, None]
    qg, Qg = local_quintic(qv, gauss), local_quintic(Qv, gauss)
    return SimpleNamespace(
        V=cfg.u1_value(qv) + cfg.u2.value(Qv),
        samples=cfg.u1_value(qg) + cfg.u2.value(Qg),
        damping=-2.0 * qg, rho1=profile.rho1)


def damped_ends(q, cfg, lam, a=INF, b=INF, deriv=False):
    """Characteristic values w, their lam-derivatives and norming constants.

    The conventions are those of the package's characteristic function and
    norming constants: the shot starts from (0, 1) or (1, a), w is f(1) or
    f'(1) + b f(1), and the norming constant is log|f'(1)| for a Dirichlet
    right end, else log|f(1)|, all with the weight rho(1).
    """
    co = damped_coefficients(q, cfg)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    y0, v0 = (0.0, 1.0) if a == INF else (1.0, float(a))
    res = loop_sweep(co, lam, y0, v0, deriv=deriv)
    weight = co.rho1 * np.exp(res["logscale"])
    y, v = weight * res["y"], weight * res["v"]
    norming = np.log(np.abs(v if b == INF else y))
    if not deriv:
        return (y if b == INF else v + b * y), None, norming
    dy, dv = weight * res["dy"], weight * res["dv"]
    if b == INF:
        return y, dy, norming
    return v + b * y, dv + b * dy, norming


def damped_spectrum(q, cfg, a, b, start, max_newton=16):
    """Eigenvalues and norming constants of the damped equation.

    Newton from ``start`` (one value per eigenvalue, close to it) on q's
    grid and on the doubled grid, combined by sixth-order extrapolation.
    """
    levels = []
    for qn in (q, Impedance(resample(q.f, 2 * q.n))):
        lam = np.array(start, dtype=float)
        for _ in range(max_newton):
            w, dw, _ = damped_ends(qn, cfg, lam, a, b, deriv=True)
            step = w / dw
            lam = lam - step
            if np.all(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(lam))):
                break
        else:
            raise BracketError("damped Newton did not converge")
        levels.append((lam, damped_ends(qn, cfg, lam, a, b)[2]))
    (lam0, norm0), (lam1, norm1) = levels
    return (64.0 * lam1 - lam0) / 63.0, (64.0 * norm1 - norm0) / 63.0


# The sign count that read every node in grid order, from the (n + 1, K)
# node array, before counts were read in the block layout of the scan.  Kept
# as the reference for ``ode._block_flips``.

def sign_flips(Y: np.ndarray) -> np.ndarray:
    """Sign changes down each column of Y, skipping exact zeros.

    A zero node takes the last nonzero sign before it, so y == 0 exactly
    (at the final node too) contributes nothing and the count stays strict.
    """
    s = np.sign(Y)
    last = np.where(s != 0, np.arange(Y.shape[0])[:, None], 0)
    np.maximum.accumulate(last, axis=0, out=last)
    s = np.take_along_axis(s, last, axis=0)
    return np.count_nonzero(s[1:] * s[:-1] < 0, axis=0)


# The forward map as it was composed before it ran on arrays: every step a
# GridFunction and Q integrated afresh by each reader.  Kept as the
# reference the array path must match bit for bit.

def _composed_Q(q, cfg):
    Q = cumulative_integral(q.f)
    peak = sup_norm(Q)
    if peak > LOG_RANGE_LIMIT:
        raise RangeError(f"accumulated log-impedance reaches {peak:.3g}")
    cfg.validate(peak)
    return Q


def composed_forward_transform(q, cfg):
    """(u, c0, p) of the map at q, composed from GridFunction operations."""
    Q = _composed_Q(q, cfg)
    u = GridFunction(cfg.u1_value(q.f.values) + cfg.u2.value(Q.values))
    c0 = inner_product(q.f, q.f) + integral(u)
    raw = differentiate(q.f) + q.f * q.f + u
    return u, c0, Potential(raw - integral(raw))


def composed_frechet_apply(q, cfg, rows):
    """The derivative rows of the map at q along ``rows``, composed the same
    way."""
    Q = _composed_Q(q, cfg)
    bulk = 2.0 * (q.f.values * rows) + cfg.u1_derivative(q.f.values) * rows
    if cfg.u2.kind != "zero":
        bulk = bulk + cfg.u2.derivative(Q.values) * cumulative_integral(rows)
    return differentiate(rows) + bulk - (bulk @ _simpson_weights(q.n))[..., None]


# The Galerkin step as it was before both halves were assembled from the
# section: the residual through the forward map on the nodes, and the
# Jacobian as K one-direction derivative calls.  Kept as the reference of
# ``_GalerkinMap.residual`` and ``.jacobian``; the state the two pass is the
# trial ``Impedance``.

def forward_galerkin_residual(gmap, alpha):
    q = gmap.impedance(alpha)
    image = forward_transform(q, gmap.cfg)
    return gmap.project @ (image.f.values - gmap.target), q


def loop_galerkin_jacobian(gmap, q):
    cols = [gmap.project @ frechet_apply(q, gmap.cfg, GridFunction(s)).values
            for s in gmap.sines]
    return np.stack(cols, axis=1)


# The root finder that located eigenvalues before bracket-safeguarded Newton:
# count brackets, a fixed run of sign bisections, then Newton with capped
# steps.  Kept as its reference, the one label oracle for steep potentials.

SIGN_ROUNDS = 10
MAX_REPAIR = 48
BISECT_RTOL = 1e-12


def bisect_solve_levels(prob, a, b, N, max_newton=16):
    """Eigenvalues at the problem grid by counts, sign bisection and Newton."""
    regime = regime_of(a, b)
    slots = np.arange(N)
    targets = unperturbed_eigenvalues(regime, N + 1)
    shift = prob.c0 + boundary_shift(regime, a, b)
    targets = targets + shift

    mids = np.empty(N + 1)
    mids[0] = targets[0] - 0.5 * (targets[1] - targets[0])
    mids[1:] = 0.5 * (targets[:-1] + targets[1:])

    counts = _count_below(prob, mids, a, b)
    lo, hi = mids[:-1].copy(), mids[1:].copy()
    clo, chi = counts[:-1].copy(), counts[1:].copy()

    # Nothing lies below min V - m**2 - 1, m = max(1, 1 - min(a, b)): the
    # zero problem has nothing below -m**2, V shifts the spectrum by at
    # least its minimum, and the 1 covers the integrator error.
    co = prob._coefficients()
    m = max(1.0, 1.0 - min(a, b))
    floor = min(co.V.min(), co.samples.min()) - m * m - 1.0
    gaps = np.maximum(targets[1:] - targets[:-1], 1.0)
    for _ in range(MAX_REPAIR):
        bad_lo = clo > slots
        bad_hi = chi < slots + 1
        if not bad_lo.any() and not bad_hi.any():
            break
        if bad_lo.any():
            lo[bad_lo] = floor
            clo[bad_lo] = _count_below(prob, lo[bad_lo], a, b)
        if bad_hi.any():
            hi[bad_hi] += gaps[bad_hi]
            chi[bad_hi] = _count_below(prob, hi[bad_hi], a, b)
    else:
        raise BracketError(
            f"could not isolate {N} eigenvalues; counts lo={clo}, hi={chi}")

    for _ in range(MAX_REPAIR):
        wide = (chi - clo) > 1
        if not wide.any():
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        cm = _count_below(prob, mid, a, b)
        take_lo = cm <= slots[wide]
        idx = np.flatnonzero(wide)
        lo[idx[take_lo]] = mid[take_lo]
        clo[idx[take_lo]] = cm[take_lo]
        hi[idx[~take_lo]] = mid[~take_lo]
        chi[idx[~take_lo]] = cm[~take_lo]
    else:
        raise BracketError("count bisection failed to separate eigenvalues")

    w_lo, _, _, _ = _endpoint_w(prob, lo, a, b, deriv=False)
    sign_lo = np.sign(w_lo)
    for _ in range(SIGN_ROUNDS):
        mid = 0.5 * (lo + hi)
        w_mid, _, _, _ = _endpoint_w(prob, mid, a, b, deriv=False)
        same = np.sign(w_mid) == sign_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)

    lam = 0.5 * (lo + hi)
    lam = bisect_newton_polish(prob, lam, a, b, max_newton, max_step=hi - lo)
    return regime, lam


def bisect_newton_polish(prob, lam, a, b, max_newton, max_step=None):
    """Newton iteration on the characteristic function, batched over roots."""
    lam = np.array(lam, dtype=float)
    for _ in range(max_newton):
        w, dw, _, _ = _endpoint_w(prob, lam, a, b, deriv=True)
        if np.any(dw == 0.0):
            raise BracketError("stationary characteristic value during polish")
        step = w / dw
        if max_step is not None:
            step = np.clip(step, -max_step, max_step)
        lam = lam - step
        if np.all(np.abs(step) <= BISECT_RTOL * np.maximum(1.0, np.abs(lam))):
            break
    return lam


# The polish as it was before value rounds: derivative rounds, and chord
# rounds for a root whose last Newton step was within CHORD, which reuse
# its last derivative.  Kept as the reference of ``spectral._newton_polish``;
# it takes no predicted slope.

_RTOL = 1e-12
_CHORD = math.sqrt(_RTOL)
_MAX_NEWTON = 16


def newton_polish(char, lam, lo, hi, value=None):
    """Newton on a characteristic function, each root kept in its bracket.

    ``char(x)`` returns the characteristic values at x, their
    lam-derivatives and the log of their common scale (w e**scale is the
    true value).  ``lo`` and ``hi`` bracket one root each, slot k first;
    any start inside its bracket is safe, and one near the root saves
    rounds.  The characteristic value is positive below the spectrum and
    changes sign at each simple eigenvalue, so in slot k it has the sign
    (-1)**k below the root; each evaluation shrinks the bracket by that
    sign, and a step that
    would leave the bracket takes its midpoint.  So does the second of two
    slow steps in a row, each longer than half the root's step before it,
    after the safeguard of rtsafe (Press et al., Numerical Recipes, sec.
    9.4): a start far from the root would otherwise crawl to it in steps
    that shrink too slowly.  One slow step is taken, because Newton's steps
    near a deep state shrink by less than half for a round or two before
    they turn quadratic.  A step after a midpoint has no step before it to
    compare with.  A root stops once its
    Newton step is within the tolerance, taken or not, at the step's end
    clipped to the bracket: a bracket can collapse to one ulp while the
    step is still finite.  It also stops where w is exactly 0 or no float
    lies inside its bracket: near two states that rounding cannot split w
    and dw are rounding noise.

    A ``char`` that returns a companion g and its lam-derivative dg after
    the scale gets (lam, g) back, g carried from each root's last
    evaluation x by the same step: g(x) + dg(x) (lam - x).

    Such a char may come with ``value``, which returns the values, their
    log scale and g, without derivatives.  A root whose last Newton step
    landed inside its bracket and within ``_CHORD`` then takes chord rounds
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995,
    sec. 5.4): ``value`` evaluates it, and its last dw, carried to the new
    scale, and its last dg are reused.  Such a round costs an endpoint
    sweep, not a derivative sweep.  A chord step longer than a tenth of
    the step before it sends the root back to a derivative round: beside a
    near-coincident state the stale dw contracts too slowly.
    """
    lam = np.array(lam, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    below = (-1.0) ** np.arange(lam.size)
    live = np.arange(lam.size)
    # Each root's last evaluation: w, dw, their log scale, g and dg.
    w, dw, scale, g, dg = np.zeros((5, lam.size))
    chord = np.zeros(lam.size, dtype=bool)
    # Each root's last Newton step, inf where it has none to compare with,
    # and whether that step was slow: longer than half the one before it.
    last = np.full(lam.size, np.inf)
    slow = np.zeros(lam.size, dtype=bool)
    for _ in range(_MAX_NEWTON):
        fresh, held = live[~chord[live]], live[chord[live]]
        if fresh.size:
            w[fresh], dw[fresh], scale[fresh], *carry = char(lam[fresh])
            if carry:
                g[fresh], dg[fresh] = carry
        if held.size:
            w[held], new_scale, g[held] = value(lam[held])
            dw[held] *= np.exp(scale[held] - new_scale)
            scale[held] = new_scale
        x, prev, was_chord = lam[live], last[live], chord[live]
        side = np.sign(w[live]) * below[live]
        low = np.where(side > 0, x, lo[live])
        high = np.where(side < 0, x, hi[live])
        lo[live], hi[live] = low, high
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(w[live] == 0.0, 0.0, w[live] / dw[live])
        trial = x - step
        reach = np.maximum(1.0, np.abs(x))
        done = (np.abs(step) <= _RTOL * reach) | (
            np.nextafter(low, high) >= high)
        inside = (trial > low) & (trial < high)
        slow_step = np.abs(step) > 0.5 * prev
        newton = inside & ~(slow_step & slow[live])
        lam[live] = np.where(newton | done, np.clip(trial, low, high),
                             0.5 * (low + high))
        last[live] = np.where(newton, np.abs(step), np.inf)
        slow[live] = newton & slow_step
        g[live] += dg[live] * (lam[live] - x)
        if value is not None:
            chord[live] = newton & (np.abs(step) <= _CHORD * reach) & (
                ~was_chord | (np.abs(step) <= 0.1 * prev))
        live = live[~done]
        if live.size == 0:
            return (lam, g) if carry else lam
    raise BracketError(
        f"Newton polish left {live.size} roots unconverged after "
        f"{_MAX_NEWTON} rounds")


def bisect_level(prob, a, b, N):
    """Eigenvalues and norming constants at the problem grid, old root finder."""
    _, lam = bisect_solve_levels(prob, a, b, N)
    norming, _ = _endpoint_quantities(prob, lam, a, b)
    return lam, norming

