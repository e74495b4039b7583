"""Independent reference values for the test suite.

Eigenvalue references come from a second-order finite-difference
discretization (central differences on a fine mesh, Robin ends via a ghost
node) sharpened by one Richardson step.  This pipeline shares no code with
the shooting solver under test: different discretization, different
eigenvalue algorithm (dense symmetric tridiagonal), different grids.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from liouville import (BracketError, GridFunction, Impedance, IntegrationError,
                       ImpedanceProblem, Potential, RangeError,
                       SchrodingerProblem, build_rho, cumulative_integral,
                       differentiate, frechet_apply, inner_product, integral,
                       resample, sup_norm)
from liouville.grid import _simpson_weights
from liouville.ode import (_count_below, _endpoint_w, _matmul, _nodes,
                           _quadratic_steps, resample_potential)
from liouville.spectral import (_endpoint_quantities, _newton_polish,
                                _problem_char, _solve_levels, _traces,
                                boundary_shift, regime_of,
                                unperturbed_eigenvalues)
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


# The per-cell RK4 loop that propagated every sweep before the blocked scan,
# kept as the reference the scan is tested against.  It integrates
# y'' = (V - lam) y + d y' and reads only the node and midpoint samples of a
# coefficient record: V and Vm, and the damping d and dm where the record
# has them (``damped_coefficients``); the package's records have none.

RENORM_EVERY = 512
RENORM_LIMIT = 1e250
_NO_DAMPING = np.zeros(1)  # a size-1 damping array reads as d = 0


def loop_step_matrices(Vn, Vm, dn, dm, lam, h, deriv, out, out_d, j0):
    """Fill RK4 step matrices for cells [j0, j0+len) at each lam column."""
    c0 = Vn[:-1, None] - lam[None, :]
    c1 = Vn[1:, None] - lam[None, :]
    cm = Vm[:, None] - lam[None, :]
    if dn.size == 1:
        d0 = d1 = dd = 0.0
    else:
        d0 = dn[:-1, None]
        d1 = dn[1:, None]
        dd = dm[:, None]
    half = 0.5 * h
    h6 = h / 6.0

    def column(y0, v0, col):
        k1y = v0
        k1v = c0 * y0 + d0 * v0
        a1y = y0 + half * k1y
        a1v = v0 + half * k1v
        k2y = a1v
        k2v = cm * a1y + dd * a1v
        a2y = y0 + half * k2y
        a2v = v0 + half * k2v
        k3y = a2v
        k3v = cm * a2y + dd * a2v
        a3y = y0 + h * k3y
        a3v = v0 + h * k3v
        k4y = a3v
        k4v = c1 * a3y + d1 * a3v
        out[2 * col][j0:j0 + c0.shape[0]] = y0 + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        out[2 * col + 1][j0:j0 + c0.shape[0]] = v0 + h6 * (k1v + 2.0 * (k2v + k3v) + k4v)
        if not deriv:
            return
        # Tangent of the same stage recursion with d(c)/d(lam) = -1.
        g1v = -y0
        b1y = 0.0
        b1v = half * g1v
        g2y = b1v
        g2v = cm * b1y + dd * b1v - a1y
        b2y = half * g2y
        b2v = half * g2v
        g3y = b2v
        g3v = cm * b2y + dd * b2v - a2y
        b3y = h * g3y
        b3v = h * g3v
        g4y = b3v
        g4v = c1 * b3y + d1 * b3v - a3y
        out_d[2 * col][j0:j0 + c0.shape[0]] = h6 * (2.0 * (g2y + g3y) + g4y)
        out_d[2 * col + 1][j0:j0 + c0.shape[0]] = h6 * (g1v + 2.0 * (g2v + g3v) + g4v)

    column(1.0, 0.0, 0)  # first column: (M11, M21)
    column(0.0, 1.0, 1)  # second column: (M12, M22)


def loop_build_matrices(co, lam: np.ndarray, deriv: bool,
                        reverse: bool):
    n = co.V.size - 1
    K = lam.size
    h = 1.0 / n
    dn, dm = getattr(co, "d", _NO_DAMPING), getattr(co, "dm", _NO_DAMPING)
    if reverse:
        Vn, Vm = co.V[::-1], co.Vm[::-1]
        dn = dn if dn.size == 1 else -dn[::-1]
        dm = dm if dm.size == 1 else -dm[::-1]
    else:
        Vn, Vm = co.V, co.Vm
    M = [np.empty((n, K)) for _ in range(4)]
    N = [np.empty((n, K)) for _ in range(4)] if deriv else None
    chunk = max(256, (1 << 22) // max(K, 1))
    for j0 in range(0, n, chunk):
        j1 = min(j0 + chunk, n)
        loop_step_matrices(Vn[j0:j1 + 1], Vm[j0:j1],
                           dn if dn.size == 1 else dn[j0:j1 + 1],
                           dm if dm.size == 1 else dm[j0:j1],
                           lam, h, deriv, M, N, j0)
    return M, N


def loop_sweep(co, lam: np.ndarray, y0, v0, *, deriv=False,
               trace=False, count=False, reverse=False):
    """Advance the batch across all cells; returns endpoint data and extras.

    Without ``trace`` the state is rescaled per column when it grows past the
    renormalization limit; accumulated log factors are reported so callers
    can reconstruct true magnitudes.  Traces are stored unscaled and overflow
    raises instead.
    """
    n = co.V.size - 1
    K = lam.size
    M, N = loop_build_matrices(co, lam, deriv, reverse)
    M11, M21, M12, M22 = M
    if deriv:
        N11, N21, N12, N22 = N
    y = np.broadcast_to(np.asarray(y0, dtype=float), (K,)).copy()
    v = np.broadcast_to(np.asarray(v0, dtype=float), (K,)).copy()
    dy = np.zeros(K)
    dv = np.zeros(K)
    logscale = np.zeros(K)
    if trace:
        Y = np.empty((n + 1, K))
        W = np.empty((n + 1, K))
        Y[0] = y
        W[0] = v
    if count:
        flips = np.zeros(K, dtype=int)
        last_sign = np.sign(y)
    # Overflow is detected explicitly after the loop; silence the transient.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            yn = M11[j] * y + M12[j] * v
            vn = M21[j] * y + M22[j] * v
            if deriv:
                dyn = M11[j] * dy + M12[j] * dv + N11[j] * y + N12[j] * v
                dvn = M21[j] * dy + M22[j] * dv + N21[j] * y + N22[j] * v
                dy, dv = dyn, dvn
            y, v = yn, vn
            if trace:
                Y[j + 1] = y
                W[j + 1] = v
            if count:
                # A flip at the final node with y(1) != 0 is a genuine zero
                # in the last cell; y(1) == 0 exactly contributes nothing,
                # keeping the count strict.
                s = np.sign(y)
                flips += (s != 0) & (s == -last_sign)
                np.copyto(last_sign, s, where=s != 0)
            if not trace and (j + 1) % RENORM_EVERY == 0:
                peak = np.maximum(np.abs(y), np.abs(v))
                if deriv:
                    peak = np.maximum(peak,
                                      np.maximum(np.abs(dy), np.abs(dv)))
                mask = peak > RENORM_LIMIT
                if mask.any():
                    factor = np.where(mask, peak, 1.0)
                    y /= factor
                    v /= factor
                    if deriv:
                        dy /= factor
                        dv /= factor
                    logscale += np.log(factor)
    if trace and not np.all(np.isfinite(Y[-1]) & np.isfinite(W[-1])):
        raise IntegrationError(
            f"trace integration overflowed (n={n}, lam up to {np.max(lam):.6g})")
    if not trace and not np.all(np.isfinite(y) & np.isfinite(v)):
        raise IntegrationError(
            f"integration overflowed despite rescaling (n={n})")
    out = {"y": y, "v": v, "logscale": logscale}
    if deriv:
        out["dy"] = dy
        out["dv"] = dv
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
# map nor the sweep with it; its coefficients are sampled by the global
# quintic spline below.  End data carry the weight rho(1), which makes them
# those of y = rho f.

def damped_coefficients(q, cfg):
    """Node and midpoint samples of u and of the damping d = -2q."""
    profile = build_rho(q)
    qv, Qv = q.f.values, profile.Q.values
    qm, Qm = spline_midpoints(qv), spline_midpoints(Qv)
    return SimpleNamespace(
        V=cfg.u1_value(qv) + cfg.u2.value(Qv),
        Vm=cfg.u1_value(qm) + cfg.u2.value(Qm),
        d=-2.0 * qv, dm=-2.0 * qm, rho1=profile.rho1)


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
    grid and on the doubled grid, combined by fourth-order extrapolation.
    """
    levels = []
    for qn in (q, Impedance(spline_resample(q.f, 2 * q.n))):
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
    return (16.0 * lam1 - lam0) / 15.0, (16.0 * norm1 - norm0) / 15.0


# The sign count that read every node in grid order, from the (n + 1, K)
# node array, before counts were read in the block layout of the scan.  Kept
# as the reference for ``ode._block_flips`` and used by the scalar-carry sweep.

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


# The blocked scan as it ran before the steps were stored in block order:
# the multiply-add wrote cell order, a copy moved it into the block layout,
# and the carry over the block totals updated each state component with its
# own NumPy call.  Kept as the reference for the output drift of the
# batched carry.

def _copy_blocked(M, nb: int, B: int, pad) -> np.ndarray:
    n, K = M.shape[1:]
    out = np.empty((B, 4, nb, K))
    full = n // B
    out[:, :, :full] = M[:, :full * B].reshape(4, full, B, K).transpose(2, 0, 1, 3)
    if full < nb:
        r = n - full * B
        out[:r, :, full] = M[:, full * B:].transpose(1, 0, 2)
        out[r:, :, full] = np.reshape(pad, (1, 4, 1))
    return out.reshape(B, 2, 2, nb, K)


def scalar_carry_sweep(co, lam: np.ndarray, y0, v0, *, deriv=False,
                       trace=False, count=False):
    """``ode._sweep`` before block-order storage and the batched carry."""
    n = co.V.size - 1
    K = lam.size
    A0, A1, A2 = _quadratic_steps(co.V, co.Vm)[..., None]
    M = (A2 * lam + A1) * lam + A0
    B = math.isqrt(n)
    nb = -(-n // B)
    nodes = trace or count
    y = np.broadcast_to(np.asarray(y0, dtype=float), (K,)).copy()
    v = np.broadcast_to(np.asarray(v0, dtype=float), (K,)).copy()
    dy = np.zeros(K)
    dv = np.zeros(K)
    logscale = np.zeros(K)
    with np.errstate(over="ignore", invalid="ignore"):
        P = _copy_blocked(M, nb, B, (1.0, 0.0, 0.0, 1.0))
        dP = _copy_blocked(A2 * (2.0 * lam) + A1, nb, B, (0.0,) * 4) if deriv else None
        for i in range(1, B):
            if deriv:
                np.add(_matmul(dP[i], P[i - 1]), _matmul(P[i], dP[i - 1]),
                       out=dP[i])
            _matmul(P[i], P[i - 1], out=P[i])
        T = P[B - 1]
        dT = dP[B - 1] if deriv else None
        starts = np.empty((2, nb, K))
        for b in range(nb):
            starts[0, b] = y
            starts[1, b] = v
            (t11, t21), (t12, t22) = T[:, :, b]
            if deriv:
                (n11, n21), (n12, n22) = dT[:, :, b]
                dy, dv = (t11 * dy + t12 * dv + n11 * y + n12 * v,
                          t21 * dy + t22 * dv + n21 * y + n22 * v)
            y, v = t11 * y + t12 * v, t21 * y + t22 * v
            if not trace:
                peak = np.maximum(np.abs(y), np.abs(v))
                if deriv:
                    peak = np.maximum(peak,
                                      np.maximum(np.abs(dy), np.abs(dv)))
                mask = peak > RENORM_LIMIT
                if mask.any():
                    factor = np.where(mask, peak, 1.0)
                    y /= factor
                    v /= factor
                    if deriv:
                        dy /= factor
                        dv /= factor
                    logscale += np.log(factor)
        if nodes:
            ys, vs = starts
            Y = _nodes(y0, P[:, 0, 0] * ys + P[:, 1, 0] * vs, n)
            W = _nodes(v0, P[:, 0, 1] * ys + P[:, 1, 1] * vs, n)
    if trace and not np.all(np.isfinite(Y[-1]) & np.isfinite(W[-1])):
        raise IntegrationError(
            f"trace integration overflowed (n={n}, lam up to {np.max(lam):.6g})")
    if not trace and not np.all(np.isfinite(y) & np.isfinite(v)):
        raise IntegrationError(
            f"integration overflowed despite rescaling (n={n})")
    out = {"y": y, "v": v, "logscale": logscale}
    if deriv:
        out["dy"] = dy
        out["dv"] = dv
    if trace:
        out["Y"] = Y
        out["W"] = W
    if count:
        out["flips"] = sign_flips(Y)
    return out

# The global quintic splines that formed RK4 midpoints and resampled grids
# before the local quintic interpolant, kept as its reference.

def spline_midpoints(values: np.ndarray) -> np.ndarray:
    from scipy.interpolate import make_interp_spline

    n = values.size - 1
    x = np.linspace(0.0, 1.0, n + 1)
    return make_interp_spline(x, values, k=5)(x[:-1] + 0.5 / n)


def spline_resample(f: GridFunction, n: int) -> GridFunction:
    """Quintic-spline resampling to a different resolution.

    Interpolation error is O(n**-6), below the order of every scheme that
    consumes the result.
    """
    if n == f.n:
        return f
    from scipy.interpolate import make_interp_spline

    spline = make_interp_spline(f.x, f.values, k=5)
    return GridFunction(spline(np.linspace(0.0, 1.0, n + 1)))


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


# The Galerkin Jacobian as K one-direction derivative calls, the column loop
# that the batched ``frechet_apply`` call replaced, kept as its reference.

def loop_galerkin_jacobian(gmap, q):
    cols = [gmap.project @ frechet_apply(q, gmap.cfg, GridFunction(s)).values
            for s in gmap.sines]
    return np.stack(cols, axis=1)


# The root finder that located eigenvalues before bracket-safeguarded Newton:
# count brackets, a fixed run of sign bisections, then Newton with capped
# steps.  Kept as its reference.

SIGN_ROUNDS = 10
MAX_REPAIR = 48
BISECT_RTOL = 1e-12


def bisect_solve_levels(prob, a, b, N, max_newton=16):
    """Eigenvalues at the problem grid by counts, sign bisection and Newton."""
    regime = regime_of(a, b)
    slots = np.arange(N)
    targets = unperturbed_eigenvalues(regime, N + 1)
    shift = prob.coefficient_mean() + boundary_shift(regime, a, b)
    targets = targets + shift

    mids = np.empty(N + 1)
    mids[0] = targets[0] - 0.5 * (targets[1] - targets[0])
    mids[1:] = 0.5 * (targets[:-1] + targets[1:])

    counts = _count_below(prob, mids, a, b)
    lo, hi = mids[:-1].copy(), mids[1:].copy()
    clo, chi = counts[:-1].copy(), counts[1:].copy()

    gaps = np.maximum(targets[1:] - targets[:-1], 1.0)
    for _ in range(MAX_REPAIR):
        bad_lo = clo > slots
        bad_hi = chi < slots + 1
        if not bad_lo.any() and not bad_hi.any():
            break
        if bad_lo.any():
            lo[bad_lo] -= gaps[bad_lo]
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


def bisect_level(prob, a, b, N):
    """Eigenvalues and norming constants at the problem grid, old root finder."""
    _, lam = bisect_solve_levels(prob, a, b, N)
    norming, _ = _endpoint_quantities(prob, lam, a, b)
    return lam, norming


def cell_power_transfer(n, lam):
    """(C, S, dC, dS) of the zero problem's RK4 transfer over n cells.

    The transfer by repeated squaring of the unit-cell block
    [[M, M'], [0, M]] with M' = dM/dz, which the closed form replaced: its
    first row holds C, n S and their z-derivatives, z = lam / n**2.
    """
    M = _quadratic_steps(np.zeros(2), np.zeros(1))
    M = M[..., 0].reshape(3, 2, 2).transpose(0, 2, 1)
    G = np.zeros((3, 4, 4))
    G[:, :2, :2] = G[:, 2:, 2:] = M
    G[:2, :2, 2:] = M[1:] * np.array([1.0, 2.0])[:, None, None]
    z = np.asarray(lam, dtype=float)[:, None, None] / n**2
    row = np.linalg.matrix_power((G[2] * z + G[1]) * z + G[0], n)[:, 0]
    return tuple(row.T / np.array([1.0, n, n**2, n**3])[:, None])


# The two-level solve that every spectrum took before normal-form problems
# moved to one level and the zero-potential correction: bracket-kept Newton
# at the problem grid and at the doubled grid, combined by fourth-order
# extrapolation.  Newton runs on chunks of SLOT_CHUNK slots, an even number
# so that every chunk keeps the sign pattern of its brackets; the chunks
# bound the sweep memory of a 16384-cell reference.

SLOT_CHUNK = 16


def doubled(prob):
    """The same problem on twice the cells."""
    if isinstance(prob, ImpedanceProblem):
        return ImpedanceProblem(Impedance(resample(prob.q.f, 2 * prob.n)),
                                prob.cfg)
    return SchrodingerProblem(resample_potential(prob.p, 2 * prob.n))


def richardson_spectrum(prob, a, b, N):
    """Eigenvalues and norming constants from two grid levels, extrapolated."""
    lo, hi = _solve_levels(prob, a, b, N)
    fine = doubled(prob)
    lam, norming = np.empty(N), np.empty(N)
    for start in range(0, N, SLOT_CHUNK):
        k = slice(start, start + SLOT_CHUNK)
        lam0, _ = _newton_polish(_problem_char(prob, a, b)[0],
                                 0.5 * (lo[k] + hi[k]), lo[k], hi[k])
        norm0, _ = _endpoint_quantities(prob, lam0, a, b)
        lam1, _ = _newton_polish(_problem_char(fine, a, b)[0], lam0, lo[k],
                                 hi[k])
        norm1, _ = _endpoint_quantities(fine, lam1, a, b)
        lam[k] = (16.0 * lam1 - lam0) / 15.0
        norming[k] = (16.0 * norm1 - norm0) / 15.0
    return lam, norming


# The readers at stored eigenvalues before they moved to one level and the
# zero-potential correction: normalizing constants as the Simpson integral
# of y**2 along a trace, and trace-identity ratios exp(sign * nu) / |dw|
# from the endpoint data, each read at the problem grid and at the doubled
# grid at the same eigenvalues and combined by fourth-order extrapolation.

def two_level_normalizing(prob, lam):
    """alpha_n = int y_n**2 with y_n'(0) = 1 (Dirichlet pairs), two levels."""
    def level(p, x):
        Y = _traces(p._coefficients(), x, 0.0, 1.0)[0]
        return _simpson_weights(p.n) @ (Y * Y)

    return _two_levels(prob, lam, level)


def two_level_ratios(prob, lam, a, b, sign):
    """Trace-identity ratios exp(sign * nu) / |dw| at lam, two levels."""
    def level(p, x):
        norming, log_dw = _endpoint_quantities(p, x, a, b)
        return np.exp(sign * norming - log_dw)

    return _two_levels(prob, lam, level)


def _two_levels(prob, lam, level):
    """``level`` at both grids, extrapolated, by chunks of SLOT_CHUNK slots."""
    fine = doubled(prob)
    lam = np.asarray(lam, dtype=float)
    out = np.empty(lam.size)
    for start in range(0, lam.size, SLOT_CHUNK):
        k = slice(start, start + SLOT_CHUNK)
        out[k] = (16.0 * level(fine, lam[k]) - level(prob, lam[k])) / 15.0
    return out
