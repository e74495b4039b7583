"""The impedance-to-potential map and the norm estimates that control it.

An impedance slope q (vanishing at both endpoints, with square-integrable
derivative) together with a perturbation profile u = u1(q) + u2(Q) determines
a zero-mean potential

    p = q' + q**2 + u - c0,      c0 = int_0^1 (q**2 + u) dx,

where Q(x) = int_0^x q.  The profile must satisfy a monotone-decay condition:
u2' <= 0 on the operating range of Q.  This module builds the map, its
Frechet derivative, and a report of the norm identities and bounds relating
p to q.

Each :class:`Impedance` derives its arrays once: q' when it is built (its
finite-norm check needs it) and Q with its sup on first use, where the
exp-range guard is applied.  Every reader of q' or Q shares those read-only
arrays, and the map works on plain arrays: it wraps only its output and
never forms the weight rho = exp(Q), which ``build_rho`` alone computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConditionError, RangeError
from .grid import (
    DEFAULT_CELLS,
    GridFunction,
    _simpson_weights,
    cumulative_integral,
    differentiate,
    inner_product,
    integral,
    l2_norm,
    sup_norm,
)

__all__ = [
    "DecayTerm",
    "ConditionU",
    "MonotoneBound",
    "Impedance",
    "Potential",
    "ImpedanceProfile",
    "EstimateRow",
    "EstimateReport",
    "build_rho",
    "evaluate_u",
    "compute_c0",
    "forward_transform",
    "frechet_apply",
    "estimate_suite",
    "calibrate_bounds",
]

ENDPOINT_TOL = 1e-12
MEAN_TOL = 1e-10
LOG_RANGE_LIMIT = 700.0
_RANGE_SAMPLES = 1024
# Knots per probe ray in ``calibrate_bounds``; relative agreement that
# ``estimate_suite`` asks of its identity rows.
_CALIBRATION_KNOTS = 9
_ESTIMATE_REL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DecayTerm:
    """The accumulated-argument term u2(t).

    kind 'zero' is identically 0; 'exp' is E * exp(-beta t) with E, beta >= 0
    (never increasing, so always admissible); 'poly' is an arbitrary
    polynomial in t and is checked against the decay condition on use.
    """

    kind: str = "zero"
    E: float = 0.0
    beta: float = 0.0
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("zero", "exp", "poly"):
            raise ValueError(f"unknown decay term kind {self.kind!r}")
        if self.kind == "exp" and (self.E < 0.0 or self.beta < 0.0):
            raise ConditionError("exponential decay term needs E >= 0 and beta >= 0")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "exp":
            return self.E * np.exp(-self.beta * t)
        return npoly.polyval(t, self.coeffs) if self.coeffs else np.zeros_like(t)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "exp":
            return -self.beta * self.E * np.exp(-self.beta * t)
        if len(self.coeffs) < 2:
            return np.zeros_like(t)
        return npoly.polyval(t, npoly.polyder(self.coeffs))


@dataclass(frozen=True, eq=False)
class MonotoneBound:
    """Tabulated nondecreasing majorant; evaluates as a right-continuous step."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.array(self.knots, dtype=float, copy=True)
        v = np.array(self.values, dtype=float, copy=True)
        if k.shape != v.shape or k.ndim != 1 or k.size == 0:
            raise ValueError("knots and values must be equal-length vectors")
        if np.any(np.diff(k) < 0) or np.any(np.diff(v) < 0):
            raise ValueError("knots and values must be nondecreasing")
        k.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def __call__(self, r: float) -> float:
        i = int(np.searchsorted(self.knots, r, side="right")) - 1
        return float(self.values[max(i, 0)])


@dataclass(frozen=True, eq=False)
class ConditionU:
    """Perturbation profile u(x) = u1(q(x)) + u2(Q(x)).

    u1 is a polynomial (ascending coefficients) in the pointwise slope value;
    u2 is a :class:`DecayTerm` in the accumulated log-impedance.  F1 and F2
    are optional nondecreasing majorants with

        max(||u1(q)||, ||u1'(q)||) <= F1(||q'||),   ||u2'(Q)|| <= F2(||q||);

    when absent they are calibrated on demand from the input at hand.
    """

    u1: tuple = ()
    u2: DecayTerm = field(default_factory=DecayTerm)
    F1: MonotoneBound | None = None
    F2: MonotoneBound | None = None

    def __post_init__(self):
        object.__setattr__(self, "u1", tuple(float(c) for c in self.u1))

    @classmethod
    def zero(cls) -> "ConditionU":
        return cls()

    @classmethod
    def exponential(cls, E: float, beta: float, u1=()) -> "ConditionU":
        return cls(u1=u1, u2=DecayTerm("exp", E=float(E), beta=float(beta)))

    @property
    def is_zero(self) -> bool:
        return not self.u1 and self.u2.kind == "zero"

    def u1_value(self, s):
        s = np.asarray(s, dtype=float)
        return npoly.polyval(s, self.u1) if self.u1 else np.zeros_like(s)

    def u1_derivative(self, s):
        s = np.asarray(s, dtype=float)
        if len(self.u1) < 2:
            return np.zeros_like(s)
        return npoly.polyval(s, npoly.polyder(self.u1))

    def validate(self, radius: float) -> None:
        """Check u2' <= 0 on [-radius, radius] by dense sampling.

        Zero and exponential terms never increase (``DecayTerm`` rejects
        negative E and beta), so only polynomial terms are sampled.
        """
        if self.u2.kind != "poly":
            return
        grid = np.linspace(-radius, radius, _RANGE_SAMPLES)
        if not np.all(self.u2.derivative(grid) <= 1e-12):
            raise ConditionError(
                f"decay term increases on [-{radius:.3g}, {radius:.3g}]"
            )


@dataclass(frozen=True, eq=False)
class Impedance:
    """Slope q of a log-impedance: q(0) = q(1) = 0 with q' in L2.

    ``dq`` holds q' on the same grid, and ``Q`` the accumulated
    log-impedance int_0^x q with its sup ``Q_sup``; all are read-only.
    """

    f: GridFunction
    dq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = self.f.values
        if abs(v[0]) > ENDPOINT_TOL or abs(v[-1]) > ENDPOINT_TOL:
            raise ValueError("impedance slope must vanish at both endpoints")
        dq = differentiate(self.f)
        if not math.isfinite(l2_norm(dq)):
            raise ValueError("impedance slope must have finite derivative norm")
        object.__setattr__(self, "dq", dq.values)

    @cached_property
    def _log_profile(self) -> tuple:
        # Built on first use, not at construction: a slope whose Q leaves
        # the exp range is still a slope, and only the readers of Q refuse it.
        Q = cumulative_integral(self.f.values)
        peak = float(np.max(np.abs(Q)))
        if peak > LOG_RANGE_LIMIT:
            raise RangeError(f"accumulated log-impedance reaches {peak:.3g}")
        Q.flags.writeable = False
        return Q, peak

    @property
    def Q(self) -> np.ndarray:
        """Q = int_0^x q; raises RangeError when sup|Q| > LOG_RANGE_LIMIT."""
        return self._log_profile[0]

    @property
    def Q_sup(self) -> float:
        """sup|Q|, under the same guard as ``Q``."""
        return self._log_profile[1]

    @property
    def n(self) -> int:
        return self.f.n

    @classmethod
    def from_callable(cls, fn, n: int = DEFAULT_CELLS) -> "Impedance":
        return cls(GridFunction.from_callable(fn, n))


@dataclass(frozen=True, eq=False)
class Potential:
    """Zero-mean potential entering the normal-form operator."""

    f: GridFunction

    def __post_init__(self):
        m = integral(self.f)
        if abs(m) > MEAN_TOL * (1.0 + l2_norm(self.f)):
            raise ValueError(f"potential must have zero mean, got {m:.3e}")

    @property
    def n(self) -> int:
        return self.f.n

    @classmethod
    def from_callable(cls, fn, n: int = DEFAULT_CELLS) -> "Potential":
        return cls(GridFunction.from_callable(fn, n))


@dataclass(frozen=True, eq=False)
class ImpedanceProfile:
    """Accumulated log-impedance Q and weight rho = exp(Q), with Q(0) = 0."""

    Q: GridFunction
    rho: GridFunction

    @property
    def rho1(self) -> float:
        return float(self.rho.values[-1])


def build_rho(q: Impedance) -> ImpedanceProfile:
    """Accumulate Q = int_0^x q and exponentiate, guarding the exp range."""
    return ImpedanceProfile(Q=GridFunction(q.Q), rho=GridFunction(np.exp(q.Q)))


def _u_values(q: Impedance, cfg: ConditionU) -> np.ndarray:
    """Node values of u1(q) + u2(Q), after the range and decay checks."""
    cfg.validate(q.Q_sup)
    return cfg.u1_value(q.f.values) + cfg.u2.value(q.Q)


def evaluate_u(q: Impedance, cfg: ConditionU) -> GridFunction:
    """Pointwise perturbation u1(q) + u2(Q), after checking the decay condition."""
    return GridFunction(_u_values(q, cfg))


def compute_c0(q: Impedance, cfg: ConditionU) -> float:
    """Spectral shift c0 = ||q||**2 + int_0^1 u."""
    u = _u_values(q, cfg)
    return inner_product(q.f, q.f) + float(_simpson_weights(q.n) @ u)


def forward_transform(q: Impedance, cfg: ConditionU | None = None) -> Potential:
    """Potential p = q' + q**2 + u - c0 produced by the change of picture.

    The discrete mean of the raw combination is subtracted, which equals c0
    up to the quadrature residue of int q' (zero in the continuum), so the
    output lands exactly in the zero-mean potential space at any resolution.
    """
    if cfg is None:
        cfg = ConditionU.zero()
    u = _u_values(q, cfg)
    v = q.f.values
    raw = q.dq + v * v + u
    return Potential(GridFunction(raw - float(_simpson_weights(q.n) @ raw)))


def frechet_apply(q: Impedance, cfg: ConditionU, f):
    """Directional derivative of the transform at q in direction f.

    f is one direction, a GridFunction, which gives a GridFunction, or a
    (K, n + 1) array of direction rows on q's grid, which gives the K
    derivative rows at once.  Every direction must vanish at both endpoints
    (a tangent direction of the slope space).
    """
    rows = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    if np.any(np.abs(rows[..., [0, -1]]) > ENDPOINT_TOL):
        raise ValueError("direction must vanish at both endpoints")
    if rows.shape[-1] != q.n + 1:
        raise ValueError("direction and slope live on different grids")
    cfg.validate(q.Q_sup)
    bulk = 2.0 * (q.f.values * rows) + cfg.u1_derivative(q.f.values) * rows
    # u2'(Q) is identically zero for the zero term, so the running integral
    # of the directions is needed only for the other two kinds.
    if cfg.u2.kind != "zero":
        bulk = bulk + cfg.u2.derivative(q.Q) * cumulative_integral(rows)
    out = differentiate(rows) + bulk - (bulk @ _simpson_weights(q.n))[..., None]
    return GridFunction(out) if isinstance(f, GridFunction) else out


@dataclass(frozen=True)
class EstimateRow:
    name: str
    lhs: float
    rhs: float
    relation: str  # '==' or '<='
    satisfied: bool
    margin: float  # rhs - lhs for '<=', |lhs - rhs| / scale for '=='


@dataclass(frozen=True)
class EstimateReport:
    rows: tuple
    f1_at_input: float
    f2_at_input: float
    calibrated: bool

    @property
    def passed(self) -> bool:
        return all(r.satisfied for r in self.rows)

    def row(self, name: str) -> EstimateRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _scaled_norm_sq_poly(coeffs, moments) -> np.ndarray:
    """Coefficients in t of ||g(t q)||**2 for polynomial g, from moments of q."""
    out = np.zeros(2 * (len(coeffs) - 1) + 1 if len(coeffs) else 1)
    for j, aj in enumerate(coeffs):
        for k, ak in enumerate(coeffs):
            out[j + k] += aj * ak * moments[j + k]
    return out


def _segment_max(pcoeffs, t0: float) -> float:
    """Maximum of an ascending-coefficient polynomial over [0, t0]."""
    candidates = [0.0, t0]
    dp = npoly.polyder(pcoeffs)
    if np.any(dp):
        for r in npoly.polyroots(dp):
            if abs(r.imag) < 1e-10 and 0.0 < r.real < t0:
                candidates.append(float(r.real))
    return max(float(npoly.polyval(t, pcoeffs)) for t in candidates)


def calibrate_bounds(cfg: ConditionU, probes) -> ConditionU:
    """Tabulate majorants F1, F2 from scaled copies of the probe slopes.

    Each probe q contributes knots along the ray {t q : t in [0, 1]} with the
    true maxima over the sub-segment, so the tabulated bounds satisfy the
    decay-condition hypotheses on every swept ray:

        F1(||(t q)'||) >= sup_{s <= t} max(||u1(s q)||, ||u1'(s q)||)
        F2(||t q||)    >= sup_{s <= t} ||u2'(s Q)||

    The derivative norm enters F1 because it controls the pointwise slope of
    u1 along the ray.  Polynomial terms reduce to exact polynomials in t via
    moments of q; the exponential decay term has a convex squared norm in t,
    so its segment maximum sits at an endpoint.
    """
    xs1, ys1, xs2, ys2 = [0.0], [0.0], [0.0], [0.0]
    zero = np.zeros(1)
    ys1[0] = max(float(np.abs(cfg.u1_value(zero))[0]),
                 float(np.abs(cfg.u1_derivative(zero))[0]))
    ys2[0] = float(np.abs(cfg.u2.derivative(zero))[0])
    for q in probes:
        deg = max(len(cfg.u1) - 1, 1)
        q_moms = [integral(GridFunction(q.f.values ** m)) if m else 1.0
                  for m in range(2 * deg + 1)]
        p_val = _scaled_norm_sq_poly(cfg.u1, q_moms)
        p_der = _scaled_norm_sq_poly(npoly.polyder(cfg.u1) if len(cfg.u1) > 1 else (0.0,),
                                     q_moms)
        Q = cumulative_integral(q.f)
        if cfg.u2.kind == "poly" and len(cfg.u2.coeffs) > 1:
            Q_moms = [integral(GridFunction(Q.values ** m)) if m else 1.0
                      for m in range(2 * (len(cfg.u2.coeffs) - 1) + 1)]
            p_dec = _scaled_norm_sq_poly(npoly.polyder(cfg.u2.coeffs), Q_moms)
        else:
            p_dec = None
        norm_dq = l2_norm(differentiate(q.f))
        norm_q = l2_norm(q.f)
        for t in np.linspace(0.0, 1.0, _CALIBRATION_KNOTS)[1:]:
            t = float(t)
            xs1.append(t * norm_dq)
            ys1.append(math.sqrt(max(_segment_max(p_val, t),
                                     _segment_max(p_der, t), 0.0)))
            xs2.append(t * norm_q)
            if cfg.u2.kind == "exp":
                # ||u2'(s Q)||**2 is convex in s: endpoint maximum.
                end = (cfg.u2.beta * cfg.u2.E) ** 2 * integral(
                    GridFunction(np.exp(-2.0 * cfg.u2.beta * t * Q.values)))
                ys2.append(math.sqrt(max(end, ys2[0] ** 2)))
            elif p_dec is not None:
                ys2.append(math.sqrt(max(_segment_max(p_dec, t), 0.0)))
            else:
                ys2.append(0.0)
    order1 = np.argsort(xs1)
    order2 = np.argsort(xs2)
    f1 = MonotoneBound(np.asarray(xs1)[order1],
                       np.maximum.accumulate(np.asarray(ys1)[order1]))
    f2 = MonotoneBound(np.asarray(xs2)[order2],
                       np.maximum.accumulate(np.asarray(ys2)[order2]))
    return replace(cfg, F1=f1, F2=f2)


def estimate_suite(q: Impedance, cfg: ConditionU | None = None) -> EstimateReport:
    """Evaluate the norm identities and bounds linking p = P(q) to q.

    Identity rows are satisfied when both sides agree to
    ``_ESTIMATE_REL_TOL`` relatively; inequality rows allow a same-order
    roundoff slack.
    """
    if cfg is None:
        cfg = ConditionU.zero()
    calibrated = cfg.F1 is None or cfg.F2 is None
    if calibrated:
        cfg = calibrate_bounds(cfg, [q])

    dq = GridFunction(q.dq)
    qq = q.f * q.f
    u = evaluate_u(q, cfg)
    c0 = inner_product(q.f, q.f) + integral(u)
    p = dq + qq + u - c0
    h = qq + u - c0
    u2Q = GridFunction(cfg.u2.value(q.Q))
    du2Q = GridFunction(cfg.u2.derivative(q.Q))
    u1q = GridFunction(cfg.u1_value(q.f.values))

    norm_p = l2_norm(p)
    norm_dq = l2_norm(dq)
    norm_h = l2_norm(h)
    norm_qq = l2_norm(qq)
    norm_q = l2_norm(q.f)
    f1 = cfg.F1(norm_dq)
    f2 = cfg.F2(norm_q)
    big_f = norm_dq * f1 + norm_q * f2

    rows = []

    def identity(name, lhs, rhs):
        scale = max(abs(lhs), abs(rhs), 1e-30)
        err = abs(lhs - rhs) / scale
        rows.append(EstimateRow(name, lhs, rhs, "==", err <= _ESTIMATE_REL_TOL,
                                err))

    def bound(name, lhs, rhs):
        # Inequalities can saturate (the slack term may vanish identically),
        # so the verdict allows the same relative tolerance as the identities.
        slack = _ESTIMATE_REL_TOL * max(abs(lhs), abs(rhs), 1.0)
        rows.append(EstimateRow(name, lhs, rhs, "<=", lhs <= rhs + slack, rhs - lhs))

    # Cross term: 2(q', h) = 2(q', u2(Q)) = -2(q**2, u2'(Q)) after parts.
    identity("pe1_identity",
             norm_p ** 2,
             norm_dq ** 2 + norm_h ** 2 - 2.0 * inner_product(qq, du2Q))
    bound("pe1_lower", norm_dq ** 2 + norm_h ** 2, norm_p ** 2)
    bound("pu2_decay",
          l2_norm(u2Q - float(cfg.u2.value(0.0))),
          q.Q_sup * f2)
    bound("pu2_local",
          l2_norm(u1q - float(cfg.u1_value(0.0))),
          sup_norm(q.f) * f1)
    bound("pu_mean", l2_norm(u - integral(u)), l2_norm(u - float(u.values[0])))
    bound("pu_centered", l2_norm(u - integral(u)), big_f)
    bound("pu_h", norm_h, norm_qq + big_f)
    bound("pe3", norm_p, norm_dq + norm_h + math.sqrt(norm_qq * f2))
    bound("theorem_lower", norm_dq, norm_p)
    bound("theorem_upper",
          norm_p,
          norm_dq + norm_qq + norm_dq * f1 + norm_q * f2 + math.sqrt(norm_qq * f2))
    if cfg.is_zero:
        identity("pe4_identity",
                 norm_p ** 2,
                 norm_dq ** 2 + norm_qq ** 2 - c0 ** 2)

    return EstimateReport(rows=tuple(rows), f1_at_input=f1, f2_at_input=f2,
                          calibrated=calibrated)
