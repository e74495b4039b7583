"""Newton inversion of the impedance-to-potential map and spectral fits.

The forward map takes a slope q (vanishing at both endpoints) to the
mean-zero potential p = q' + q**2 + u - c0.  Inversion runs a damped Newton
iteration on a trigonometric Galerkin section of that map: q lives in the
span of sin(pi k x), the residual is projected onto cos(pi k x), and the
Jacobian is the projected exact directional derivative
P'(q) phi = phi' + (2q + u1'(q)) phi + u2'(Q) int phi - mean.  Only the
pointwise factors 2q + u1'(q) and u2'(Q) depend on q, so the projected
derivative and running integrals of the sine rows are built once per map
and each Newton step assembles the K x K Jacobian from weighted products
with them.  A continuation fallback (scaling the target up in stages)
engages when plain damping stagnates.

Fits reconstruct a potential or a slope from truncated spectral data by
Gauss-Newton on Fourier coefficients.  The map is a global isomorphism
between the two inverse problems, so a slope fit runs the same iteration on
slope coefficients, with the map's derivative as the chain rule.  The fit
Jacobian is exact: eigenvalue gradients are the squared eigenfunctions and
norming-constant gradients the product of the eigenfunction with a second
solution, integrated from trace sweeps at the eigenvalues of the accepted
iterate, so a Gauss-Newton step costs one spectral solve per trial step and
nothing per basis mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BracketError, DegenerateEigenfunctionError, FitError,
                     IntegrationError, InversionError, RangeError, TargetError)
from .grid import (GridFunction, _simpson_weights, cumulative_integral,
                   differentiate, l2_norm, trig_basis)
from .ode import INF, SchrodingerProblem
from .spectral import (_potential_gradients, solve_spectrum,
                       unperturbed_eigenvalues)
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
# the continuation fallback re-solves through _HOMOTOPY_STAGES scaled copies
# of the target.
_MAX_ITER = 30
_MAX_HALVINGS = 20
_HOMOTOPY_STAGES = 4


@dataclass(frozen=True)
class InversionConfig:
    """Sizes and tolerance of the inversion and the fits.

    ``basis_size`` is the Galerkin dimension of the inversion; ``tol`` is the
    residual tolerance in L2; spectral fits integrate on a ``fit_grid``-cell
    mesh.
    """

    basis_size: int = 16
    tol: float = 1e-9
    fit_grid: int = 1024

    def __post_init__(self):
        if self.basis_size < 1:
            raise ValueError("basis_size must be at least 1")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class InversionReport:
    """Outcome of one inversion run, with per-iterate projected residuals."""

    q: Impedance
    residuals: tuple
    full_residual: float
    converged: bool
    used_homotopy: bool
    iterations: int


class _GalerkinMap:
    """Projected forward map and Jacobian on a fixed grid.

    ``sines`` holds the K basis rows sqrt(2) sin(pi k x) of the slope and
    ``project`` the K cosine rows with the Simpson weights folded in, so the
    Jacobian is ``project`` applied to ``frechet_apply`` of the K sine rows.
    That derivative is phi' + g phi + d int phi less its mean, where only
    g = 2q + u1'(q) and d = u2'(Q) depend on q.  The projected derivative
    of the rows, their running integrals (when u2 is not zero) and the
    row sums of ``project`` are built here, so a Jacobian costs one or two
    weighted K x (n + 1) x K products and no stencil pass.
    """

    def __init__(self, p: Potential, cfg: ConditionU, icfg: InversionConfig):
        self.cfg = cfg
        self.n = p.n
        self.target = p.f.values
        K = icfg.basis_size
        self.weights = _simpson_weights(self.n)
        self.sines = trig_basis("sine", K, self.n)
        self.project = trig_basis("cosine", K, self.n) * self.weights[None, :]
        self.project_derivative = self.project @ differentiate(self.sines).T
        self.project_mean = self.project.sum(axis=1)
        self.sine_integrals = None if cfg.u2.kind == "zero" \
            else cumulative_integral(self.sines)

    def impedance(self, alpha: np.ndarray) -> Impedance:
        values = alpha @ self.sines
        values[0] = 0.0
        values[-1] = 0.0
        return Impedance(GridFunction(values))

    def residual(self, alpha: np.ndarray, scale: float):
        q = self.impedance(alpha)
        image = forward_transform(q, self.cfg)
        r = self.project @ (image.f.values - scale * self.target)
        return q, image, r

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


def _newton_leg(gmap: _GalerkinMap, alpha: np.ndarray, scale: float,
                tol_proj: float, history: list):
    """Damped Newton toward the scaled target.

    Returns (alpha, q, image, converged): the last accepted coefficients,
    their slope and its forward image, and whether the leg converged.
    """
    q, image, r = gmap.residual(alpha, scale)
    rnorm = float(np.linalg.norm(r))
    history.append(rnorm)
    for _ in range(_MAX_ITER):
        if rnorm <= tol_proj:
            return alpha, q, image, True
        J = gmap.jacobian(q)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise InversionError(
                "singular Galerkin Jacobian during inversion",
                residuals=tuple(history)) from exc
        s = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = alpha + s * step
            # An overlong trial step can overflow the integrator; that is
            # a rejected step, not a failure of the iteration.  Condition
            # violations are contract errors and propagate.
            try:
                q_try, image_try, r_try = gmap.residual(trial, scale)
                r_try_norm = float(np.linalg.norm(r_try))
            except (IntegrationError, RangeError):
                r_try_norm = math.inf
            if r_try_norm < rnorm:
                alpha, q, image, r = trial, q_try, image_try, r_try
                rnorm = r_try_norm
                history.append(rnorm)
                break
            s *= 0.5
        else:
            return alpha, q, image, False
    return alpha, q, image, rnorm <= tol_proj


def invert_transform_detailed(p: Potential, cfg: ConditionU | None = None,
                              icfg: InversionConfig | None = None
                              ) -> InversionReport:
    """Invert the forward map and keep the iteration history.

    Runs damped Newton from zero; if that stagnates, re-solves through a
    ladder of scaled targets (continuation) and reports that the fallback
    was used.  Raises when the final full residual exceeds the tolerance.
    """
    cfg = cfg or ConditionU.zero()
    icfg = icfg or InversionConfig()
    gmap = _GalerkinMap(p, cfg, icfg)
    tol_proj = 0.3 * icfg.tol
    history: list = []
    alpha = np.zeros(icfg.basis_size)
    alpha, q, image, converged = _newton_leg(gmap, alpha, 1.0, tol_proj,
                                             history)
    used_homotopy = False
    if not converged:
        used_homotopy = True
        alpha = np.zeros(icfg.basis_size)
        for t in np.linspace(1.0 / _HOMOTOPY_STAGES, 1.0, _HOMOTOPY_STAGES):
            alpha, q, image, converged = _newton_leg(
                gmap, alpha, float(t), tol_proj, history)
            if not converged:
                raise InversionError(
                    f"inversion stagnated at continuation stage t={t:.3f} "
                    f"with projected residual {history[-1]:.3e}",
                    residuals=tuple(history))
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
                           converged=True, used_homotopy=used_homotopy,
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
    ``symmetric-dirichlet`` (eigenvalues only, even modes).  Remainders are
    the eigenvalue deviations from the unperturbed ladder after removing
    constant shifts; ``norming`` holds the norming-constant deviations and
    may be omitted only for the symmetric regime.
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
        base = "dirichlet" if self.regime == "symmetric-dirichlet" else self.regime
        ladder = unperturbed_eigenvalues(base, N) + rem
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
        self.boundary = (INF, INF) if symmetric else (target.a, target.b)
        self.weights = 2.0 * math.pi * np.arange(1, target.N + 1, dtype=float)
        slopes = np.concatenate([sin, math.sqrt(2.0) - cos]) \
            / np.tile(self.weights, 2)[:, None]
        slopes[:, [0, -1]] = 0.0
        self.slopes = slopes[:self.basis.shape[0]]

    def impedance(self, theta: np.ndarray) -> Impedance:
        return Impedance(GridFunction(theta @ self.slopes))

    def potential(self, theta: np.ndarray) -> Potential:
        if self.cfg is None:
            return Potential(GridFunction(theta @ self.basis))
        return forward_transform(self.impedance(theta), self.cfg)

    def residual(self, theta: np.ndarray):
        """Residual at theta, with the solved problem and its eigenvalues."""
        prob = SchrodingerProblem(self.potential(theta))
        a, b = self.boundary
        data = solve_spectrum(prob, a, b, self.target.N)
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
        dlam, dnu = _potential_gradients(prob, lam, self.boundary[0],
                                         directions, norming=not symmetric)
        if symmetric:
            return dlam
        return np.concatenate([dlam, self.weights[:, None] * dnu])


def _gauss_newton(target: FitTarget, icfg: InversionConfig,
                  cfg: ConditionU | None):
    """Damped Gauss-Newton on a ``_FitMap``: the map, theta and report."""
    if target.N > _FIT_CAP:
        raise TargetError(
            f"fits are desk scale: N={target.N} exceeds the cap {_FIT_CAP}")
    if target.N < 1:
        raise TargetError("need at least one target eigenvalue")
    fmap = _FitMap(target, icfg, cfg)
    theta = np.zeros(fmap.basis.shape[0])
    r, prob, lam = fmap.residual(theta)
    rnorm = float(np.linalg.norm(r))
    history = [rnorm]
    for _ in range(_MAX_ITER):
        if rnorm <= icfg.tol:
            break
        J = fmap.jacobian(theta, prob, lam)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        s = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = theta + s * step
            try:
                r_try, prob_try, lam_try = fmap.residual(trial)
                r_try_norm = float(np.linalg.norm(r_try))
            except (BracketError, DegenerateEigenfunctionError,
                    IntegrationError, RangeError):
                r_try_norm = math.inf
            if r_try_norm < rnorm:
                theta, r, rnorm, prob, lam = (trial, r_try, r_try_norm,
                                              prob_try, lam_try)
                history.append(rnorm)
                break
            s *= 0.5
        else:
            raise FitError(
                f"fit stagnated with residual {rnorm:.3e} above tolerance "
                f"{icfg.tol:.3e}", residuals=tuple(history))
    else:
        if rnorm > icfg.tol:
            raise FitError(
                f"fit did not reach tolerance within {_MAX_ITER} "
                f"iterations (residual {rnorm:.3e})",
                residuals=tuple(history))
    return fmap, theta, FitReport(potential=prob.p, residuals=tuple(history),
                                  converged=True,
                                  iterations=len(history) - 1)


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
