"""Newton inversion of the impedance-to-potential map and spectral fits.

The forward map takes a slope q (vanishing at both endpoints) to the
mean-zero potential p = q' + q**2 + u - c0.  Inversion runs a damped Newton
iteration on a trigonometric Galerkin section of that map: q lives in the
span of sin(pi k x), the residual is projected onto cos(pi k x), and the
Jacobian is the projected exact directional derivative
P'(q) phi = phi' + (2q + u1'(q)) phi + u2'(Q) int phi - mean.  Only the
pointwise factors 2q + u1'(q) and u2'(Q) depend on q, so the projected
derivative and running integrals of the sine rows are built once per grid
and basis size (n, K) in a process, and each Newton step assembles the
K x K Jacobian from weighted products with them.  Newton starts from zero;
if that leg stagnates or misses the full tolerance, it restarts once from
rho'/rho, rho the positive Neumann ground state of -y'' + p y, which is
the inverse itself when u = 0.

Fits reconstruct a potential or a slope from truncated spectral data by
Gauss-Newton on Fourier coefficients.  The map is a global isomorphism
between the two inverse problems, so a slope fit runs the same iteration on
slope coefficients, with the map's derivative as the chain rule.  The fit
Jacobian is exact: eigenvalue gradients are the squared eigenfunctions and
norming-constant gradients the product of the eigenfunction with a second
solution, integrated from one trace sweep at the eigenvalues of the accepted
iterate, so a Gauss-Newton step costs one spectral solve per trial step and
nothing per basis mode.  Each solve starts Newton from a predicted ladder
instead of the phase-matched starts (see ``_gauss_newton``); the count sweep
still fixes every label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (BracketError, DegenerateEigenfunctionError, FitError,
                     IntegrationError, InversionError, RangeError, TargetError)
from .grid import (GridFunction, _read_only, _simpson_weights,
                   cumulative_integral, differentiate, l2_norm, trig_basis)
from .ode import INF, SchrodingerProblem, shoot_forward
from .spectral import (_exact_ladder, _potential_gradients, regime_of,
                       solve_spectrum, unperturbed_eigenvalues)
from .transform import ConditionU, Impedance, Potential, forward_transform, frechet_apply

__all__ = [
    "InversionConfig",
    "InversionReport",
    "FitTarget",
    "FitReport",
    "ImpedanceFitReport",
    "invert_transform",
    "invert_transform_detailed",
    "fit_potential",
    "fit_potential_detailed",
    "fit_impedance",
    "fit_impedance_detailed",
]

_FIT_CAP = 12
# Newton and Gauss-Newton take at most _MAX_ITER steps; damping halves a
# step up to _MAX_HALVINGS times before declaring stagnation, after which
# an inversion restarts once from the ground state.
_MAX_ITER = 30
_MAX_HALVINGS = 20


@dataclass(frozen=True)
class InversionConfig:
    """Sizes and tolerance of the inversion and the fits: the Galerkin
    dimension ``basis_size``, the L2 residual tolerance ``tol``, and the
    ``fit_grid`` cells of the mesh spectral fits integrate on."""

    basis_size: int = 16
    tol: float = 1e-9
    fit_grid: int = 1024

    def __post_init__(self):
        if self.basis_size < 1:
            raise ValueError("basis_size must be at least 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tolerance must be finite and positive")


@dataclass(frozen=True)
class InversionReport:
    """Outcome of one inversion run, with per-iterate projected residuals."""

    q: Impedance
    residuals: tuple
    full_residual: float
    converged: bool
    restarted: bool
    iterations: int


@lru_cache(maxsize=4)
def _galerkin_section(n: int, K: int) -> tuple:
    """The read-only tables of a Galerkin section on n cells with K modes.

    In order: the sine rows, the cosine rows with the Simpson weights
    folded in (``project``), ``project`` applied to the derivative of the
    sine rows, the row sums of ``project`` and the running integrals of the
    sine rows.  They depend on (n, K) alone, so they are built once per
    process.
    """
    sines = trig_basis("sine", K, n)
    project = trig_basis("cosine", K, n) * _simpson_weights(n)[None, :]
    return _read_only(sines, project, project @ differentiate(sines).T,
                      project.sum(axis=1), cumulative_integral(sines))


class _GalerkinMap:
    """Projected forward map and Jacobian on a fixed grid.

    ``sines`` holds the K basis rows sqrt(2) sin(pi k x) of the slope and
    ``project`` the K cosine rows with the Simpson weights folded in, so the
    Jacobian is ``project`` applied to ``frechet_apply`` of the K sine rows.
    That derivative is phi' + g phi + d int phi less its mean, where only
    g = 2q + u1'(q) and d = u2'(Q) depend on q.  The projected derivative
    of the rows, their running integrals (used when u2 is not zero) and
    the row sums of ``project`` come from ``_galerkin_section``, built once
    per (n, K), so a Jacobian costs one or two weighted K x (n + 1) x K
    products and no stencil pass.
    """

    def __init__(self, p: Potential, cfg: ConditionU, icfg: InversionConfig):
        self.cfg = cfg
        self.target = p.f.values
        self.weights = _simpson_weights(p.n)
        (self.sines, self.project, self.project_derivative, self.project_mean,
         integrals) = _galerkin_section(p.n, icfg.basis_size)
        self.sine_integrals = None if cfg.u2.kind == "zero" else integrals

    def impedance(self, alpha: np.ndarray) -> Impedance:
        values = alpha @ self.sines
        values[[0, -1]] = 0.0
        return Impedance(GridFunction(values))

    def residual(self, alpha: np.ndarray):
        q = self.impedance(alpha)
        image = forward_transform(q, self.cfg)
        return self.project @ (image.f.values - self.target), q, image

    def jacobian(self, q: Impedance) -> np.ndarray:
        """``project`` applied to ``frechet_apply(q, cfg, sines)``, assembled."""
        g = 2.0 * q.f.values + self.cfg.u1_derivative(q.f.values)
        J = self.project_derivative + (self.project * g) @ self.sines.T
        mean = self.sines @ (self.weights * g)
        if self.sine_integrals is not None:
            Q = cumulative_integral(q.f.values)
            self.cfg.validate(float(np.max(np.abs(Q))))
            d = self.cfg.u2.derivative(Q)
            J += (self.project * d) @ self.sine_integrals.T
            mean += self.sine_integrals @ (self.weights * d)
        return J - np.outer(self.project_mean, mean)


def _damped_step(residual, rnorm: float, rejects: tuple):
    """First step length s = 1, 1/2, ... whose ``residual(s)`` (r first) has
    a norm below rnorm, as (s, norm, residual(s)), or None after
    _MAX_HALVINGS halvings.  A trial raising one of ``rejects`` (an overlong
    step can overflow the integrator) is rejected; any other error, such as
    a condition violation, is a contract error and propagates.
    """
    s = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        try:
            out = residual(s)
            norm = float(np.linalg.norm(out[0]))
        except rejects:
            norm = math.inf
        if norm < rnorm:
            return s, norm, out
        s *= 0.5
    return None


def _newton_leg(gmap: _GalerkinMap, alpha: np.ndarray, tol_proj: float,
                history: list):
    """Damped Newton from alpha toward the target: the last accepted slope,
    its forward image, and whether the leg converged."""
    r, q, image = gmap.residual(alpha)
    rnorm = float(np.linalg.norm(r))
    history.append(rnorm)
    for _ in range(_MAX_ITER):
        if rnorm <= tol_proj:
            return q, image, True
        try:
            step = np.linalg.solve(gmap.jacobian(q), -r)
        except np.linalg.LinAlgError as exc:
            raise InversionError(
                "singular Galerkin Jacobian during inversion",
                residuals=tuple(history)) from exc
        found = _damped_step(lambda s: gmap.residual(alpha + s * step),
                             rnorm, (IntegrationError, RangeError))
        if found is None:
            return q, image, False
        s, rnorm, (r, q, image) = found
        alpha = alpha + s * step
        history.append(rnorm)
    return q, image, rnorm <= tol_proj


def _ground_state_slope(p: Potential, history: list) -> np.ndarray:
    """rho'/rho at the nodes, rho the Neumann ground state of -y'' + p y:
    with u = 0, rho = exp(int q) solves -rho'' + p rho = -c0 rho with
    rho'(0) = rho'(1) = 0 and rho > 0, so this is the inverse of the map."""
    prob = SchrodingerProblem(p)
    try:
        lam0 = solve_spectrum(prob, 0.0, 0.0, 1).eigenvalues[0]
        rho = shoot_forward(prob, lam0, 1.0, 0.0)
    except (BracketError, DegenerateEigenfunctionError,
            IntegrationError) as exc:
        raise InversionError(f"ground-state restart failed: {exc}",
                             residuals=tuple(history)) from exc
    if not np.all(rho.y.values > 0.0):
        raise InversionError(
            "ground-state restart failed: the Neumann ground state is not "
            "positive at every node", residuals=tuple(history))
    q = rho.dy.values / rho.y.values
    q[0] = q[-1] = 0.0
    return q


def invert_transform_detailed(p: Potential, cfg: ConditionU | None = None,
                              icfg: InversionConfig | None = None
                              ) -> InversionReport:
    """Invert the forward map and keep the iteration history.

    Runs damped Newton from zero, then, if that stagnates or misses the full
    tolerance, once more from the sine projection of the ground-state slope.
    Raises when the final full residual exceeds the tolerance.
    """
    cfg = cfg or ConditionU.zero()
    icfg = icfg or InversionConfig()
    gmap = _GalerkinMap(p, cfg, icfg)
    tol_proj = 0.3 * icfg.tol
    history: list = []
    q, image, converged = _newton_leg(gmap, np.zeros(icfg.basis_size),
                                      tol_proj, history)
    restarted = not converged or l2_norm(image.f - p.f) > icfg.tol
    if restarted:
        start = gmap.sines @ (gmap.weights * _ground_state_slope(p, history))
        q, image, converged = _newton_leg(gmap, start, tol_proj, history)
    if not converged:
        raise InversionError(
            "inversion stagnated after the ground-state restart with "
            f"projected residual {history[-1]:.3e}", residuals=tuple(history))
    full = l2_norm(image.f - p.f)
    if full > icfg.tol:
        proj = history[-1]
        raise InversionError(
            f"projected residual is {proj:.3e} but the full residual "
            f"{full:.3e} exceeds tolerance {icfg.tol:.3e}; the residual "
            f"P(q) - p has l2 mass {math.sqrt(max(full**2 - proj**2, 0.0)):.3e}"
            f" outside the K={icfg.basis_size} Galerkin span",
            residuals=tuple(history))
    return InversionReport(q=q, residuals=tuple(history), full_residual=full,
                           converged=True, restarted=restarted,
                           iterations=len(history) - 1)


def invert_transform(p: Potential, cfg: ConditionU | None = None,
                     icfg: InversionConfig | None = None) -> Impedance:
    """Recover the impedance slope q with P(q) = p.

    The returned slope vanishes at both endpoints and reproduces the target
    within the configured L2 tolerance.
    """
    return invert_transform_detailed(p, cfg, icfg).q


@dataclass(frozen=True)
class FitTarget:
    """Truncated spectral targets for the finite-dimensional fits.

    ``regime`` is one of ``dirichlet``, ``mixed``, ``generic`` or
    ``symmetric-dirichlet`` (eigenvalues only, even modes, Dirichlet ends),
    and must match the pair (a, b).  Remainders are the eigenvalue
    deviations from the unperturbed ladder after removing constant shifts;
    ``norming`` holds the norming-constant deviations and may be omitted
    only for the symmetric regime.
    """

    regime: str
    remainders: np.ndarray
    norming: Optional[np.ndarray] = None
    a: float = INF
    b: float = INF
    N: int = 0

    def __post_init__(self):
        rem = np.asarray(self.remainders, dtype=float)
        object.__setattr__(self, "remainders", rem)
        if self.norming is not None:
            nor = np.asarray(self.norming, dtype=float)
            object.__setattr__(self, "norming", nor)
        if self.regime not in ("dirichlet", "mixed", "generic",
                               "symmetric-dirichlet"):
            raise TargetError(f"unknown regime {self.regime!r}")
        N = self.N or rem.size
        object.__setattr__(self, "N", N)
        if rem.size != N:
            raise TargetError(f"expected {N} remainders, got {rem.size}")
        if self.regime != "symmetric-dirichlet":
            if self.norming is None:
                raise TargetError(
                    f"{self.regime} targets need norming deviations")
            if self.norming.size != N:
                raise TargetError(
                    f"expected {N} norming deviations, got {self.norming.size}")
        pair = regime_of(self.a, self.b)
        if self.regime.replace("symmetric-", "") != pair:
            raise TargetError(f"a {self.regime} target does not match the "
                              f"{pair} pair ({self.a}, {self.b})")
        ladder = unperturbed_eigenvalues(pair, N) + rem
        if not np.all(np.diff(ladder) > 0.0):
            raise TargetError(
                "target eigenvalue ladder violates the admissibility ordering")

    @classmethod
    def from_spectral_data(cls, data, regime: str | None = None) -> "FitTarget":
        regime = regime or data.regime
        norming = None if regime == "symmetric-dirichlet" \
            else data.norming_deviation.entries
        return cls(regime=regime, remainders=data.remainders.entries,
                   norming=norming, a=data.a, b=data.b, N=data.N)


@dataclass(frozen=True)
class FitReport:
    """Outcome of a spectral fit."""

    potential: Potential
    residuals: tuple
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ImpedanceFitReport:
    """Outcome of an impedance fit; ``fit`` holds its Gauss-Newton history."""

    q: Impedance
    potential: Potential
    fit: FitReport


class _FitMap:
    """Residuals of computed spectral data against a fixed target.

    theta weighs the potential rows ``basis`` or, given ``cfg``, the slope
    rows ``slopes``, their running integrals; the potential is then P(q).
    """

    def __init__(self, target: FitTarget, icfg: InversionConfig,
                 cfg: ConditionU | None = None):
        self.target = target
        self.n = icfg.fit_grid
        self.cfg = cfg
        symmetric = target.regime == "symmetric-dirichlet"
        # Full-period modes: the even rows k = 2m of the half-period basis.
        cos, sin = (trig_basis(kind, 2 * target.N, self.n)[1::2]
                    for kind in ("cosine", "sine"))
        self.basis = cos if symmetric else np.concatenate([cos, sin])
        self.boundary = (target.a, target.b)
        self.weights = 2.0 * math.pi * np.arange(1, target.N + 1, dtype=float)
        slopes = np.concatenate([sin, math.sqrt(2.0) - cos]) \
            / np.tile(self.weights, 2)[:, None]
        slopes[:, [0, -1]] = 0.0
        self.slopes = slopes[:self.basis.shape[0]]
        # At theta = 0 the potential is zero, also for slopes
        # (P(0) = u(0) - c0 = 0), so its corrected eigenvalues are the
        # exact zero ladder.
        self.zero_ladder = _exact_ladder(target.a, target.b, target.N)[0]

    def impedance(self, theta: np.ndarray) -> Impedance:
        return Impedance(GridFunction(theta @ self.slopes))

    def potential(self, theta: np.ndarray) -> Potential:
        if self.cfg is None:
            return Potential(GridFunction(theta @ self.basis))
        return forward_transform(self.impedance(theta), self.cfg)

    def residual(self, theta: np.ndarray, guess: np.ndarray | None = None):
        """Residual at theta, with the solved problem and its eigenvalues.

        ``guess`` predicts the eigenvalues at theta.  It only places the
        Newton starts of the solve (see ``spectral._pipeline``), so the
        result does not depend on it beyond the Newton tolerance.
        """
        prob = SchrodingerProblem(self.potential(theta))
        a, b = self.boundary
        data = solve_spectrum(prob, a, b, self.target.N, _guess=guess)
        r = data.remainders.entries - self.target.remainders
        if self.target.regime != "symmetric-dirichlet":
            dev = data.norming_deviation.entries - self.target.norming
            r = np.concatenate([r, self.weights * dev])
        return r, prob, data.eigenvalues

    def jacobian(self, theta: np.ndarray, prob: SchrodingerProblem,
                 lam: np.ndarray) -> np.ndarray:
        """Exact Jacobian of the residual at theta and its solved problem.

        The remainders differ from the eigenvalues by a shift that does not
        depend on p, so their rows are the eigenvalue gradients.  Slope
        coefficients take them along P'(q) of the slope rows.
        """
        symmetric = self.target.regime == "symmetric-dirichlet"
        directions = self.basis if self.cfg is None else \
            frechet_apply(self.impedance(theta), self.cfg, self.slopes)
        dlam, dnu = _potential_gradients(prob, lam, *self.boundary,
                                         directions, norming=not symmetric)
        if symmetric:
            return dlam
        return np.concatenate([dlam, self.weights[:, None] * dnu])


def _gauss_newton(target: FitTarget, icfg: InversionConfig,
                  cfg: ConditionU | None):
    """Damped Gauss-Newton on a ``_FitMap``: the map, theta and report.

    Each solve starts Newton from a predicted ladder: the exact zero ladder
    at theta = 0, and lam + s J_lam step for the trial theta + s step, where
    J_lam is the eigenvalue rows of the Jacobian the step was solved with.
    """
    if target.N > _FIT_CAP:
        raise TargetError(
            f"fits are desk scale: N={target.N} exceeds the cap {_FIT_CAP}")
    if target.N < 1:
        raise TargetError("need at least one target eigenvalue")
    fmap = _FitMap(target, icfg, cfg)
    theta = np.zeros(fmap.basis.shape[0])
    r, prob, lam = fmap.residual(theta, fmap.zero_ladder)
    rnorm = float(np.linalg.norm(r))
    history = [rnorm]
    for _ in range(_MAX_ITER):
        if rnorm <= icfg.tol:
            break
        J = fmap.jacobian(theta, prob, lam)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        dlam = J[:target.N] @ step
        found = _damped_step(
            lambda s: fmap.residual(theta + s * step, lam + s * dlam), rnorm,
            (BracketError, DegenerateEigenfunctionError, IntegrationError,
             RangeError))
        if found is None:
            raise FitError(
                f"fit stagnated with residual {rnorm:.3e} above tolerance "
                f"{icfg.tol:.3e}", residuals=tuple(history))
        s, rnorm, (r, prob, lam) = found
        theta = theta + s * step
        history.append(rnorm)
    if rnorm > icfg.tol:
        raise FitError(
            f"fit did not reach tolerance within {_MAX_ITER} "
            f"iterations (residual {rnorm:.3e})", residuals=tuple(history))
    return fmap, theta, FitReport(potential=prob.p, residuals=tuple(history),
                                  converged=True, iterations=len(history) - 1)


def fit_potential_detailed(target: FitTarget,
                           icfg: InversionConfig | None = None) -> FitReport:
    """Gauss-Newton fit of a potential to truncated spectral data.

    The symmetric regime fits N even modes to N eigenvalue remainders; the
    general regimes fit 2N full-period modes to remainders plus weighted
    norming deviations.  Stagnation above tolerance raises with the residual
    history attached.
    """
    return _gauss_newton(target, icfg or InversionConfig(), None)[2]


def fit_potential(target: FitTarget,
                  icfg: InversionConfig | None = None) -> Potential:
    """Potential whose computed spectral data matches the target."""
    return fit_potential_detailed(target, icfg).potential


def fit_impedance_detailed(target: FitTarget, cfg: ConditionU | None = None,
                           icfg: InversionConfig | None = None
                           ) -> ImpedanceFitReport:
    """Gauss-Newton fit of an impedance slope to truncated spectral data.

    The iteration of ``fit_potential_detailed`` runs on slope coefficients,
    so the slope is held to ``tol`` on the same spectral residual.
    """
    fmap, theta, fit = _gauss_newton(target, icfg or InversionConfig(),
                                     cfg or ConditionU.zero())
    return ImpedanceFitReport(q=fmap.impedance(theta), potential=fit.potential,
                              fit=fit)


def fit_impedance(target: FitTarget, cfg: ConditionU | None = None,
                  icfg: InversionConfig | None = None) -> Impedance:
    """Impedance slope reconstructed from truncated spectral data."""
    return fit_impedance_detailed(target, cfg, icfg).q
