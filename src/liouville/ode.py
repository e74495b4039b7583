"""Shooting integration for both pictures of the eigenvalue equation.

Both problems are integrated in first-order form y'' = (V - lam) y + d y':
the normal form has V = p, d = 0; the impedance form has V = u, d = -2q
(the weight never appears explicitly, only its logarithmic slope).  The
integrator is classical fixed-step RK4, evaluated as a per-cell 2x2 step
matrix so a whole batch of spectral parameters advances in lockstep.  The
derivative of the flow with respect to lam propagates alongside by the
product rule, which is exactly the variational equation of the discrete map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError
from .grid import GridFunction, inner_product, integral, resample
from .transform import ConditionU, Impedance, Potential, build_rho

__all__ = [
    "INF",
    "is_dirichlet",
    "SchrodingerProblem",
    "ImpedanceProblem",
    "StateTrace",
    "shoot_forward",
    "shoot_backward",
    "wronskian",
    "oscillation_count",
]

INF = math.inf

_RENORM_EVERY = 512
_RENORM_LIMIT = 1e250
_OVERFLOW_LIMIT = 1e280
_LOG_VALUE_LIMIT = 700.0


def is_dirichlet(b: float) -> bool:
    """True when a boundary parameter encodes the Dirichlet condition."""
    return math.isinf(b)


@dataclass(frozen=True, eq=False)
class _Coefficients:
    """Node and midpoint samples of V and the damping d at one resolution."""

    V: np.ndarray
    Vm: np.ndarray
    d: np.ndarray
    dm: np.ndarray
    rho1: float


def _midpoints(values: np.ndarray) -> np.ndarray:
    from scipy.interpolate import make_interp_spline

    n = values.size - 1
    x = np.linspace(0.0, 1.0, n + 1)
    return make_interp_spline(x, values, k=5)(x[:-1] + 0.5 / n)


@dataclass(frozen=True, eq=False)
class SchrodingerProblem:
    """Eigenvalue problem -y'' + p y = lam y on [0, 1]."""

    p: Potential
    _cache: dict = field(default_factory=dict, repr=False)

    kind = "schrodinger"

    @property
    def n(self) -> int:
        return self.p.n

    @property
    def c0(self) -> float:
        return 0.0

    def with_resolution(self, n: int) -> "SchrodingerProblem":
        if n == self.n:
            return self
        return SchrodingerProblem(Potential(resample(self.p.f, n)))

    def coefficient_mean(self) -> float:
        return integral(self.p.f)

    def _coefficients(self) -> _Coefficients:
        co = self._cache.get("coeffs")
        if co is None:
            v = self.p.f.values
            zn = np.zeros(1)
            co = _Coefficients(V=v, Vm=_midpoints(v), d=zn, dm=zn, rho1=1.0)
            self._cache["coeffs"] = co
        return co


@dataclass(frozen=True, eq=False)
class ImpedanceProblem:
    """Impedance-form problem in expanded shape -f'' - 2q f' + u f = lam f."""

    q: Impedance
    cfg: ConditionU = field(default_factory=ConditionU.zero)
    _cache: dict = field(default_factory=dict, repr=False)

    kind = "impedance"

    @property
    def n(self) -> int:
        return self.q.n

    @property
    def c0(self) -> float:
        c = self._cache.get("c0")
        if c is None:
            self._coefficients()
            c = self._cache["c0"]
        return c

    def with_resolution(self, n: int) -> "ImpedanceProblem":
        if n == self.n:
            return self
        return ImpedanceProblem(Impedance(resample(self.q.f, n)), self.cfg)

    def coefficient_mean(self) -> float:
        return self.c0

    def _coefficients(self) -> _Coefficients:
        co = self._cache.get("coeffs")
        if co is None:
            profile = build_rho(self.q)
            self.cfg.validate(float(np.max(np.abs(profile.Q.values))))
            qv = self.q.f.values
            Qv = profile.Q.values
            u = self.cfg.u1_value(qv) + self.cfg.u2.value(Qv)
            qm = _midpoints(qv)
            Qm = _midpoints(Qv)
            um = self.cfg.u1_value(qm) + self.cfg.u2.value(Qm)
            co = _Coefficients(V=u, Vm=um, d=-2.0 * qv, dm=-2.0 * qm,
                               rho1=profile.rho1)
            self._cache["coeffs"] = co
            self._cache["c0"] = inner_product(self.q.f, self.q.f) + integral(
                GridFunction(u))
        return co


@dataclass(frozen=True, eq=False)
class StateTrace:
    """Solution values and first derivative along the grid for one lam."""

    lam: float
    y: GridFunction
    dy: GridFunction


def _step_matrices(Vn, Vm, dn, dm, lam, h, deriv, out, out_d, j0):
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


def _build_matrices(co: _Coefficients, lam: np.ndarray, deriv: bool,
                    reverse: bool):
    n = co.V.size - 1
    K = lam.size
    h = 1.0 / n
    if reverse:
        Vn, Vm = co.V[::-1], co.Vm[::-1]
        dn = co.d if co.d.size == 1 else -co.d[::-1]
        dm = co.dm if co.dm.size == 1 else -co.dm[::-1]
    else:
        Vn, Vm, dn, dm = co.V, co.Vm, co.d, co.dm
    M = [np.empty((n, K)) for _ in range(4)]
    N = [np.empty((n, K)) for _ in range(4)] if deriv else None
    chunk = max(256, (1 << 22) // max(K, 1))
    for j0 in range(0, n, chunk):
        j1 = min(j0 + chunk, n)
        _step_matrices(Vn[j0:j1 + 1], Vm[j0:j1],
                       dn if dn.size == 1 else dn[j0:j1 + 1],
                       dm if dm.size == 1 else dm[j0:j1],
                       lam, h, deriv, M, N, j0)
    return M, N


def _sweep(co: _Coefficients, lam: np.ndarray, y0, v0, *, deriv=False,
           trace=False, count=False, reverse=False, renorm=True):
    """Advance the batch across all cells; returns endpoint data and extras.

    With ``renorm`` the state is rescaled per column when it grows past the
    renormalization limit; accumulated log factors are reported so callers
    can reconstruct true magnitudes.  Traces are stored unscaled and overflow
    raises instead.
    """
    n = co.V.size - 1
    K = lam.size
    M, N = _build_matrices(co, lam, deriv, reverse)
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
    renorm_on = renorm and not trace
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
            if renorm_on and (j + 1) % _RENORM_EVERY == 0:
                peak = np.maximum(np.abs(y), np.abs(v))
                if deriv:
                    peak = np.maximum(peak,
                                      np.maximum(np.abs(dy), np.abs(dv)))
                mask = peak > _RENORM_LIMIT
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


def _initial_data(a: float):
    return (0.0, 1.0) if is_dirichlet(a) else (1.0, float(a))


def _count_below(prob, lam: np.ndarray, a: float, b: float) -> np.ndarray:
    """Exact number of eigenvalues strictly below each lam (batched)."""
    co = prob._coefficients()
    y0, v0 = _initial_data(a)
    res = _sweep(co, np.asarray(lam, dtype=float), y0, v0, count=True)
    if is_dirichlet(b):
        # frac < pi always, so the endpoint term never fires.
        return res["flips"].copy()
    s = np.sqrt(np.maximum(np.asarray(lam, dtype=float), 1.0))
    frac = np.mod(np.arctan2(s * res["y"], res["v"]), math.pi)
    beta = np.arctan2(s, -float(b))
    return res["flips"] + (frac > beta).astype(int)


def _endpoint_w(prob, lam: np.ndarray, a: float, b: float, deriv: bool):
    """Scaled characteristic values (and lam-derivatives) at each lam."""
    co = prob._coefficients()
    y0, v0 = _initial_data(a)
    res = _sweep(co, np.asarray(lam, dtype=float), y0, v0, deriv=deriv)
    if is_dirichlet(b):
        w = res["y"]
        dw = res.get("dy")
    else:
        w = res["v"] + float(b) * res["y"]
        dw = res.get("dv") + float(b) * res.get("dy") if deriv else None
    scale = res["logscale"] + math.log(co.rho1)
    return (w, dw, scale, res) if deriv else (w, None, scale, res)


def oscillation_count(prob, lam: float, a: float = INF) -> int:
    """Number of interior zeros of the forward shot at this lam."""
    co = prob._coefficients()
    y0, v0 = _initial_data(a)
    res = _sweep(co, np.asarray([float(lam)]), y0, v0, count=True)
    return int(res["flips"][0])


def wronskian(prob, lam: float, a: float = INF, b: float = INF,
              deriv: bool = False, scaled: bool = False):
    """Characteristic function of the boundary pair (a, b) at lam.

    The impedance picture carries its endpoint weight factor, so the value
    agrees identically with the normal-form characteristic function of the
    transformed potential evaluated at lam - c0.  With ``deriv`` the
    lam-derivative (variational, exact to integrator order) is returned as a
    second element.  With ``scaled`` values come as (mantissa..., log_scale)
    to survive deep negative lam.
    """
    w, dw, scale, _ = _endpoint_w(prob, np.asarray([float(lam)]), a, b, deriv)
    ls = float(scale[0])
    if scaled:
        if deriv:
            return float(w[0]), float(dw[0]), ls
        return float(w[0]), ls

    def collapse(mant: float) -> float:
        # The mantissa may itself carry many e-folds between rescaling
        # checkpoints, so the representability test must use the total log.
        if mant == 0.0:
            return 0.0
        total = ls + math.log(abs(mant))
        if total > _LOG_VALUE_LIMIT:
            raise IntegrationError(
                f"characteristic value overflows at lam={lam:.6g}; "
                "request the scaled form")
        return math.copysign(math.exp(total), mant)

    if deriv:
        return collapse(float(w[0])), collapse(float(dw[0]))
    return collapse(float(w[0]))


def _trace_result(prob, lam: float, res, reverse: bool) -> StateTrace:
    ls = float(res["logscale"][0])
    if abs(ls) > 0.0:
        raise IntegrationError("trace integration left the value range")
    yv = res["Y"][:, 0]
    wv = res["W"][:, 0]
    if reverse:
        yv = yv[::-1]
        wv = -wv[::-1]
    return StateTrace(lam=float(lam), y=GridFunction(yv), dy=GridFunction(wv))


def shoot_forward(prob, lam: float, y0: float = 0.0, dy0: float = 1.0) -> StateTrace:
    """Integrate from x = 0 with the given initial data, keeping the trace."""
    res = _sweep(prob._coefficients(), np.asarray([float(lam)]), float(y0),
                 float(dy0), trace=True, renorm=False)
    return _trace_result(prob, lam, res, reverse=False)


def shoot_backward(prob, lam: float, b: float = INF) -> StateTrace:
    """Integrate from x = 1 with data encoding the right boundary condition.

    Convention: finite b uses (y, y')(1) = (1, -b); Dirichlet uses (0, -1).
    """
    if is_dirichlet(b):
        g0, g1 = 0.0, 1.0   # g(s) = y(1-s): g' = -y'
    else:
        g0, g1 = 1.0, float(b)
    res = _sweep(prob._coefficients(), np.asarray([float(lam)]), g0, g1,
                 trace=True, renorm=False, reverse=True)
    return _trace_result(prob, lam, res, reverse=True)
