"""Eigenvalues, norming constants, product formulas, and trace identities.

Spectra are located by exact oscillation-count bracketing, then found by
Newton steps on the characteristic function with its variational
lam-derivative, each iterate kept inside its count bracket.  Quantities are
computed at two grid levels and combined by fourth-order extrapolation,
which removes the leading integrator error.

Three boundary regimes are supported, encoded by the pair (a, b) with inf
meaning a Dirichlet end: both ends Dirichlet (eigenvalues labelled from 1),
Dirichlet-Robin (labelled from 0), and Robin-Robin (labelled from 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    DegenerateEigenfunctionError,
    PoleCollisionError,
)
from .grid import SequenceData, _simpson_weights
from .ode import (
    ImpedanceProblem,
    SchrodingerProblem,
    _count_below,
    _endpoint_w,
    _initial_data,
    _sweep,
    is_dirichlet,
)
from .transform import ConditionU, Impedance, build_rho, forward_transform

__all__ = [
    "SpectralData",
    "AdmissibilityReport",
    "EquivalenceReport",
    "regime_of",
    "unperturbed_eigenvalues",
    "unperturbed_norming",
    "boundary_shift",
    "compute_eigenvalues",
    "solve_spectrum",
    "norming_constants",
    "normalizing_constants",
    "extract_remainders",
    "hadamard_wronskian",
    "identity_b",
    "identity_ab",
    "characterize",
    "equivalence_report",
]


# Newton stops a root once its step is within _RTOL * max(1, |lam|);
# _MAX_NEWTON bounds the rounds of one polish and _MAX_REPAIR the rounds of
# each count stage.
_RTOL = 1e-12
_MAX_NEWTON = 16
_MAX_REPAIR = 48

# Tail-growth tolerances and noise floor of ``characterize``.
_GROWTH_TOL = 0.01
_ALPHA_GROWTH_TOL = 0.25
_NOISE_FLOOR = 1e-4


def regime_of(a: float, b: float) -> str:
    if is_dirichlet(a) and is_dirichlet(b):
        return "dirichlet"
    if is_dirichlet(a):
        return "mixed"
    if is_dirichlet(b):
        raise ValueError("the Robin-Dirichlet orientation is not supported; "
                         "reflect the problem instead")
    return "generic"


def unperturbed_eigenvalues(regime: str, N: int) -> np.ndarray:
    """Reference eigenvalues for the zero problem, by slot 0..N-1."""
    k = np.arange(N, dtype=float)
    if regime == "dirichlet":
        return (math.pi * (k + 1.0)) ** 2
    if regime == "mixed":
        return (math.pi * (k + 0.5)) ** 2
    return (math.pi * k) ** 2


def unperturbed_norming(regime: str, N: int) -> np.ndarray:
    """Norming constants of the zero problem, by slot."""
    k = np.arange(N, dtype=float)
    if regime == "mixed":
        return -np.log(math.pi * (k + 0.5))
    return np.zeros(N)


def boundary_shift(regime: str, a: float, b: float) -> float:
    """First-order eigenvalue shift contributed by the boundary parameters."""
    if regime == "dirichlet":
        return 0.0
    if regime == "mixed":
        return 2.0 * float(b)
    return 2.0 * (float(a) + float(b))


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Truncated spectral data of one problem under one boundary pair."""

    kind: str
    a: float
    b: float
    c0: float
    eigenvalues: np.ndarray
    norming: np.ndarray
    remainders: SequenceData
    N: int

    @property
    def regime(self) -> str:
        return regime_of(self.a, self.b)

    @property
    def norming_deviation(self) -> SequenceData:
        """Norming constants less those of the zero problem."""
        dev = self.norming - unperturbed_norming(self.regime, self.norming.size)
        return SequenceData(dev, alpha=1.0)


def _solve_levels(prob, a, b, N):
    """Count brackets [lo, hi] holding exactly the eigenvalue of each slot.

    Slot k (from 0) ends with k eigenvalues below lo and k + 1 below hi.
    """
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
    for _ in range(_MAX_REPAIR):
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

    for _ in range(_MAX_REPAIR):
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
    return regime, lo, hi


def _newton_polish(prob, lam, lo, hi, a, b):
    """Newton on the characteristic function, each root kept in its bracket.

    ``lo`` and ``hi`` are count brackets from ``_solve_levels``, slot k
    first.  The characteristic value is positive below the spectrum and
    changes sign at each simple eigenvalue, so in slot k it has the sign
    (-1)**k below the root; each evaluation shrinks the bracket by that
    sign, and a step that would leave the bracket takes its midpoint.  A
    root stops once its Newton step is within the tolerance, taken or not,
    at the step's end clipped to the bracket: a bracket can collapse to one
    ulp while the step is still finite.
    """
    lam = np.array(lam, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    below = (-1.0) ** np.arange(lam.size)
    live = np.arange(lam.size)
    for _ in range(_MAX_NEWTON):
        x = lam[live]
        w, dw, _, _ = _endpoint_w(prob, x, a, b, deriv=True)
        side = np.sign(w) * below[live]
        low = np.where(side > 0, x, lo[live])
        high = np.where(side < 0, x, hi[live])
        lo[live], hi[live] = low, high
        with np.errstate(divide="ignore", invalid="ignore"):
            step = w / dw
        trial = x - step
        done = np.abs(step) <= _RTOL * np.maximum(1.0, np.abs(x))
        inside = (trial > low) & (trial < high)
        lam[live] = np.where(inside | done, np.clip(trial, low, high),
                             0.5 * (low + high))
        live = live[~done]
        if live.size == 0:
            return lam
    raise BracketError(
        f"Newton polish left {live.size} roots unconverged after "
        f"{_MAX_NEWTON} rounds")


def _endpoint_quantities(prob, lam, a, b, regime, deriv=False):
    """Norming constants at the eigenvalues lam, and log|dw| with ``deriv``."""
    _, dw, _, res = _endpoint_w(prob, lam, a, b, deriv=deriv)
    rho1 = prob._coefficients().rho1
    numerator = np.abs(res["v"]) if regime == "dirichlet" else np.abs(res["y"])
    if np.any(numerator == 0.0):
        raise DegenerateEigenfunctionError(
            "eigenfunction endpoint data vanished; spectrum is corrupted")
    norming = np.log(numerator) + math.log(rho1) + res["logscale"]
    if not deriv:
        return norming, None
    return norming, np.log(np.abs(dw)) + math.log(rho1) + res["logscale"]


def _traces(prob, lam, y0, v0):
    """Unscaled shots from the data (y0, v0) at x = 0, one column per lam.

    Impedance shots carry the weight rho, which makes them the normal-form
    solutions of the transformed potential.
    """
    res = _sweep(prob._coefficients(), np.asarray(lam, dtype=float), y0, v0,
                 trace=True)
    Y = res["Y"]
    if prob.kind == "impedance":
        Y = build_rho(prob.q).rho.values[:, None] * Y
    return Y


def _alpha_quantities(prob, lam):
    """Normalizing integrals int y**2 for Dirichlet eigenfunctions."""
    Y = _traces(prob, lam, 0.0, 1.0)
    weights = _simpson_weights(Y.shape[0] - 1)
    return weights @ (Y * Y)


def _potential_gradients(prob, lam, a, directions, norming=True):
    """Exact derivatives of eigenvalues and norming constants along directions.

    ``lam`` holds eigenvalues of the normal-form problem ``prob`` under left
    parameter ``a``; ``directions`` holds one perturbation phi_j of p per row,
    sampled on the problem grid.  With y_n the shot from the left data at
    lam_n and z_n a second solution with Wronskian W = y z' - y' z,

        d lam_n = int phi y_n**2 / int y_n**2,
        d nu_n = -(int phi z_n y_n - d lam_n int z_n y_n) / W.

    The second formula holds for nu = log|y(1)| and nu = log|y'(1)| alike,
    because int y_n**2 (d p - d lam_n) = 0; it needs no right-end data.
    Returns (d lam, d nu) of shape (N, J); d nu is None without ``norming``.
    """
    weights = _simpson_weights(prob.n)[:, None]
    y0, v0 = _initial_data(a)
    Y = _traces(prob, lam, y0, v0)
    Yw = weights * Y
    dlam = (directions @ (Yw * Y)) / np.sum(Yw * Y, axis=0)
    if not norming:
        return dlam.T, None
    z0, w0 = (1.0, 0.0) if is_dirichlet(a) else (0.0, 1.0)
    ZYw = _traces(prob, lam, z0, w0) * Yw
    dnu = (dlam * np.sum(ZYw, axis=0) - directions @ ZYw) / (y0 * w0 - v0 * z0)
    return dlam.T, dnu.T


def _extrapolate(coarse, fine):
    """Fourth-order combination of problem-grid and doubled-grid values.

    It cancels the leading O(h**4) integrator error of either level.
    """
    return (16.0 * fine - coarse) / 15.0


def _pipeline(prob, a, b, N):
    regime, lo, hi = _solve_levels(prob, a, b, N)
    lam0 = _newton_polish(prob, 0.5 * (lo + hi), lo, hi, a, b)
    norm0, _ = _endpoint_quantities(prob, lam0, a, b, regime)
    fine = prob.with_resolution(2 * prob.n)
    lam1 = _newton_polish(fine, lam0, lo, hi, a, b)
    norm1, _ = _endpoint_quantities(fine, lam1, a, b, regime)
    return {
        "regime": regime, "lam": _extrapolate(lam0, lam1),
        "norming": _extrapolate(norm0, norm1), "lam_levels": (lam0, lam1),
    }


def compute_eigenvalues(prob, a: float, b: float, N: int) -> np.ndarray:
    """First N eigenvalues of the problem under the boundary pair (a, b)."""
    if N < 1:
        raise ValueError("need at least one eigenvalue")
    return _pipeline(prob, a, b, N)["lam"]


def solve_spectrum(prob, a: float, b: float, N: int) -> SpectralData:
    """Eigenvalues plus norming constants, packaged with their remainders."""
    out = _pipeline(prob, a, b, N)
    return SpectralData(
        kind=prob.kind, a=float(a), b=float(b), c0=prob.c0,
        eigenvalues=out["lam"], norming=out["norming"],
        remainders=_remainders(out["lam"], a, b, prob.c0), N=N,
    )


def norming_constants(prob, data: SpectralData) -> np.ndarray:
    """Norming constants at the eigenvalues stored in ``data``.

    Dirichlet pairs use the endpoint slope ratio; the other regimes use the
    endpoint value ratio.  Impedance problems include their endpoint weight,
    which makes the constants agree across the two pictures.
    """
    regime = regime_of(data.a, data.b)
    lam = np.asarray(data.eigenvalues, dtype=float)
    # Both levels are read at the supplied eigenvalues, so the leading
    # integrator error has the same coefficient and cancels exactly.
    n0, _ = _endpoint_quantities(prob, lam, data.a, data.b, regime)
    fine = prob.with_resolution(2 * prob.n)
    n1, _ = _endpoint_quantities(fine, lam, data.a, data.b, regime)
    return _extrapolate(n0, n1)


def normalizing_constants(prob, data: SpectralData) -> np.ndarray:
    """Integrals alpha_n = int y_n**2 with y_n'(0) = 1 (Dirichlet pairs only)."""
    if regime_of(data.a, data.b) != "dirichlet":
        raise ValueError("normalizing constants are defined for Dirichlet pairs")
    lam = np.asarray(data.eigenvalues, dtype=float)
    fine = prob.with_resolution(2 * prob.n)
    return _extrapolate(_alpha_quantities(prob, lam),
                        _alpha_quantities(fine, lam))


def _remainders(lam, a, b, c0) -> SequenceData:
    """Eigenvalues less the reference ladder and the shift c0 + boundary terms."""
    regime = regime_of(a, b)
    shift = c0 + boundary_shift(regime, a, b)
    return SequenceData(lam - unperturbed_eigenvalues(regime, lam.size) - shift)


def extract_remainders(data: SpectralData):
    """Split eigenvalues and norming constants from their reference values.

    Returns (remainders, norming deviations); the remainders subtract the
    reference eigenvalues and the constant shift c0 + boundary terms, the
    deviations subtract the zero-problem norming constants.
    """
    return (_remainders(data.eigenvalues, data.a, data.b, data.c0),
            data.norming_deviation)


def _entire_cos_sqrt(lam: float) -> float:
    z = complex(lam) ** 0.5
    return complex(np.cos(z)).real


def _entire_sinc_sqrt(lam: float) -> float:
    if abs(lam) < 1e-8:
        return 1.0 - lam / 6.0 + lam * lam / 120.0
    z = complex(lam) ** 0.5
    return complex(np.sin(z) / z).real


def hadamard_wronskian(data: SpectralData, lam: float, M: int) -> float:
    """Truncated product-formula value of the characteristic function.

    Multiplies the zero-problem characteristic function by M factors
    (lam - lam_k)/(lam - lam0_k).  Converges to the direct value as M grows;
    evaluation too close to either sequence raises.
    """
    if M < 1 or M > data.N:
        raise ValueError(f"ladder length M={M} outside 1..{data.N}")
    regime = regime_of(data.a, data.b)
    ref = unperturbed_eigenvalues(regime, M)
    eigs = data.eigenvalues[:M]
    lam = float(lam)
    tol = 1e-9
    for pole in np.concatenate([ref, eigs]):
        if abs(lam - pole) < tol * max(1.0, abs(lam), abs(pole)):
            raise PoleCollisionError(f"lam={lam} collides with {pole}")
    if regime == "dirichlet":
        front = _entire_sinc_sqrt(lam)
    elif regime == "mixed":
        front = _entire_cos_sqrt(lam)
    else:
        front = -lam * _entire_sinc_sqrt(lam)
    return front * float(np.prod((lam - eigs) / (lam - ref)))


def _identity_terms(prob, data, M, sign: float):
    """Extrapolated ratios exp(sign * norming) / |dw| at the eigenvalues."""
    lam = np.asarray(data.eigenvalues[:M], dtype=float)
    regime = regime_of(data.a, data.b)

    def level(p):
        norming, log_dw = _endpoint_quantities(p, lam, data.a, data.b, regime,
                                               deriv=True)
        return np.exp(sign * norming - log_dw)

    return _extrapolate(level(prob), level(prob.with_resolution(2 * prob.n)))


def identity_b(prob, data: SpectralData, M: int) -> np.ndarray:
    """Partial sums of the fixed-b trace identity (Dirichlet-Robin pairs).

    Returns S_1..S_M with S_m = sum_{k<m} (2 - exp(norming_k)/|dw(lam_k)|);
    the sums converge to the boundary parameter b.
    """
    if regime_of(data.a, data.b) != "mixed":
        raise ValueError("the fixed-b identity needs a Dirichlet-Robin pair")
    if M > data.N:
        raise ValueError("identity ladder exceeds stored data")
    ratios = _identity_terms(prob, data, M, sign=+1.0)
    return np.cumsum(2.0 - ratios)


def identity_ab(prob, data: SpectralData, M: int):
    """Partial-sum pair of the Robin-Robin trace identities.

    Returns (S_b, S_a) arrays; S_b converges to b and S_a to a, both starting
    from -1 and accumulating 2 - exp(+-norming)/|dw| over the first M
    eigenvalues (labelled from 0).
    """
    if regime_of(data.a, data.b) != "generic":
        raise ValueError("the trace-identity pair needs a Robin-Robin pair")
    if M > data.N:
        raise ValueError("identity ladder exceeds stored data")
    r_plus = _identity_terms(prob, data, M, sign=+1.0)
    r_minus = _identity_terms(prob, data, M, sign=-1.0)
    return -1.0 + np.cumsum(2.0 - r_plus), -1.0 + np.cumsum(2.0 - r_minus)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdicts of the sequence-space membership tests."""

    ordering_ok: bool
    remainder_tail_ok: bool
    norming_tail_ok: bool
    alpha_tail_ok: bool | None
    remainder_growth: float
    norming_growth: float
    alpha_growth: float | None

    @property
    def passed(self) -> bool:
        verdicts = [self.ordering_ok, self.remainder_tail_ok,
                    self.norming_tail_ok]
        if self.alpha_tail_ok is not None:
            verdicts.append(self.alpha_tail_ok)
        return all(verdicts)


def _tail_growth(weighted_sq: np.ndarray) -> float:
    """Relative growth of the cumulative sum over the second half.

    A sequence whose full weighted energy sits below the noise floor is
    trivially summable: without the floor, a ladder that is zero up to
    solver noise divides noise by noise and reports spurious growth.
    """
    N = weighted_sq.size
    if N < 2:
        return 0.0
    s_half = float(np.sum(weighted_sq[:N // 2]))
    s_full = float(np.sum(weighted_sq))
    if s_full <= _NOISE_FLOOR:
        return 0.0
    return (s_full - s_half) / max(s_half, 1e-16)


def characterize(data: SpectralData,
                 normalizing: np.ndarray | None = None) -> AdmissibilityReport:
    """Check computed or externally supplied data against the admissible set.

    Ordering must be strict; the remainder and weighted norming sequences
    must look summable, judged by the relative growth of their cumulative
    squares over the second half of the ladder.  For Dirichlet pairs the
    normalizing constants, when supplied, are tested through
    2 (pi n)**2 alpha_n - 1 with an extra weight.

    The alpha condition gets a wider tolerance: admissible data carries a
    universal 1/n**2 component there, so its weighted tail behaves like a
    barely convergent series at practical truncations (a few percent of
    growth), while a corrupted sequence registers order-one growth.
    Sequences whose total weighted energy stays below ``_NOISE_FLOOR`` count
    as summable outright, so solver-level noise never trips the verdict.
    """
    ordering_ok = bool(np.all(np.diff(data.eigenvalues) > 0.0))
    rem = data.remainders.entries
    pos = np.arange(1, rem.size + 1, dtype=float)
    g_rem = _tail_growth(rem * rem)
    dev = data.norming_deviation.entries
    wdev = (2.0 * math.pi * pos[:dev.size]) * dev
    g_dev = _tail_growth(wdev * wdev)
    g_alpha = None
    alpha_ok = None
    if normalizing is not None:
        n_lab = np.arange(1, normalizing.size + 1, dtype=float)
        g = 2.0 * (math.pi * n_lab) ** 2 * normalizing - 1.0
        wg = (2.0 * math.pi * n_lab) * g
        g_alpha = _tail_growth(wg * wg)
        alpha_ok = g_alpha <= _ALPHA_GROWTH_TOL
    return AdmissibilityReport(
        ordering_ok=ordering_ok,
        remainder_tail_ok=g_rem <= _GROWTH_TOL,
        norming_tail_ok=g_dev <= _GROWTH_TOL,
        alpha_tail_ok=alpha_ok,
        remainder_growth=g_rem,
        norming_growth=g_dev,
        alpha_growth=g_alpha,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Side-by-side spectra of one impedance problem in both pictures."""

    c0: float
    impedance_eigenvalues: np.ndarray
    schrodinger_eigenvalues: np.ndarray
    impedance_norming: np.ndarray
    schrodinger_norming: np.ndarray

    @property
    def eigenvalue_discrepancy(self) -> float:
        shifted = self.schrodinger_eigenvalues + self.c0
        scale = np.maximum(1.0, np.abs(shifted))
        return float(np.max(np.abs(self.impedance_eigenvalues - shifted) / scale))

    @property
    def norming_discrepancy(self) -> float:
        return float(np.max(np.abs(self.impedance_norming -
                                   self.schrodinger_norming)))


def equivalence_report(q: Impedance, cfg: ConditionU, a: float, b: float,
                       N: int) -> EquivalenceReport:
    """Solve one problem in both pictures and tabulate the match.

    The impedance eigenvalues must equal the transformed-potential
    eigenvalues shifted by c0, and the norming constants must agree
    outright (the endpoint weight accounts for the change of dependent
    variable).
    """
    imp = ImpedanceProblem(q, cfg)
    sch = SchrodingerProblem(forward_transform(q, cfg))
    di = solve_spectrum(imp, a, b, N)
    ds = solve_spectrum(sch, a, b, N)
    return EquivalenceReport(
        c0=imp.c0,
        impedance_eigenvalues=di.eigenvalues,
        schrodinger_eigenvalues=ds.eigenvalues,
        impedance_norming=di.norming,
        schrodinger_norming=ds.norming,
    )
