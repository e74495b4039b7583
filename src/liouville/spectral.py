"""Eigenvalues, norming constants, product formulas, and trace identities.

Spectra are located by exact oscillation-count bracketing, then found by
Newton steps on the characteristic function with its variational
lam-derivative, each iterate kept inside its count bracket.  Both pictures
are solved as normal forms (an impedance problem through the Liouville map,
see ``ode``), at the problem grid, and corrected by the integrator error of
the zero potential under the same boundary pair (asymptotic correction:
Paine, de Hoog & Anderssen, Computing 26, 1981), which the zero problem
shows exactly and without a sweep.  The norming constants, normalizing
constants and trace-identity terms at stored eigenvalues are read the same
way: one grid level at the discrete eigenvalues those imply, plus the
correction of each quantity.  The few boundary pairs that correction does
not cover are computed at two grid levels and combined by fourth-order
extrapolation, which removes the leading integrator error.

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
    _count_below,
    _endpoint_w,
    _initial_data,
    _quadratic_steps,
    _sweep,
    is_dirichlet,
)

__all__ = [
    "SpectralData",
    "AdmissibilityReport",
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


def _spectrum_floor(prob, a, b):
    """A lam below the whole spectrum: min V - m**2 - 1.

    With m = max(1, 1 - min(a, b)) nothing of the zero problem lies below
    -m**2 (see ``_exact_ladder``), and V shifts the spectrum by no less than
    its minimum; the 1 leaves room for the integrator error.
    """
    co = prob._coefficients()
    m = max(1.0, 1.0 - min(a, b))
    return min(float(co.V.min()), float(co.Vm.min())) - m * m - 1.0


def _solve_levels(prob, a, b, N):
    """Count brackets [lo, hi] holding exactly the eigenvalue of each slot.

    Slot k (from 0) ends with k eigenvalues below lo and k + 1 below hi.  A
    lower bracket that counts too many moves to ``_spectrum_floor`` at once,
    and the count bisection takes it up from there.  Every count brings the
    Pruefer phase at x = 1 (``_count_below``), which is carried with its
    bracket end to place the Newton starts (``_phase_starts``).
    Returns (lo, hi, start).
    """
    regime = regime_of(a, b)
    slots = np.arange(N)
    targets = unperturbed_eigenvalues(regime, N + 1)
    shift = prob.coefficient_mean() + boundary_shift(regime, a, b)
    targets = targets + shift

    mids = np.empty(N + 1)
    mids[0] = targets[0] - 0.5 * (targets[1] - targets[0])
    mids[1:] = 0.5 * (targets[:-1] + targets[1:])

    counts, theta = _count_below(prob, mids, a, b, phase=True)
    lo, hi = mids[:-1].copy(), mids[1:].copy()
    clo, chi = counts[:-1].copy(), counts[1:].copy()
    tlo, thi = theta[:-1].copy(), theta[1:].copy()

    gaps = np.maximum(targets[1:] - targets[:-1], 1.0)
    for _ in range(_MAX_REPAIR):
        bad_lo = clo > slots
        bad_hi = chi < slots + 1
        if not bad_lo.any() and not bad_hi.any():
            break
        if bad_lo.any():
            lo[bad_lo] = _spectrum_floor(prob, a, b)
            clo[bad_lo], tlo[bad_lo] = _count_below(prob, lo[bad_lo], a, b,
                                                    phase=True)
        if bad_hi.any():
            hi[bad_hi] += gaps[bad_hi]
            chi[bad_hi], thi[bad_hi] = _count_below(prob, hi[bad_hi], a, b,
                                                    phase=True)
    else:
        raise BracketError(
            f"could not isolate {N} eigenvalues; counts lo={clo}, hi={chi}")

    for _ in range(_MAX_REPAIR):
        wide = (chi - clo) > 1
        if not wide.any():
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        cm, tm = _count_below(prob, mid, a, b, phase=True)
        take_lo = cm <= slots[wide]
        idx = np.flatnonzero(wide)
        lo[idx[take_lo]] = mid[take_lo]
        clo[idx[take_lo]] = cm[take_lo]
        tlo[idx[take_lo]] = tm[take_lo]
        hi[idx[~take_lo]] = mid[~take_lo]
        chi[idx[~take_lo]] = cm[~take_lo]
        thi[idx[~take_lo]] = tm[~take_lo]
    else:
        raise BracketError("count bisection failed to separate eigenvalues")
    return lo, hi, _phase_starts(lo, hi, tlo, thi, b)


def _phase_starts(lo, hi, tlo, thi, b):
    """Newton starts where the bracket's phase reaches the root's phase.

    The Pruefer phase at x = 1 turns nearly linearly in sqrt(lam) (at the
    rate 1 for the zero potential), so across slot k's bracket it is taken
    linear in sqrt(lam) between theta(lo) and theta(hi) and solved for the
    root phase of ``_count_below``: (k + 1) pi, or k pi + atan2(sqrt(lam),
    -b), whose slow turn two substitutions take up.  Where lo <= 1 (the
    phase there is scaled by 1, not sqrt(lam)) or the start does not land
    strictly inside its bracket, the bracket midpoint is the start.
    """
    k = np.arange(lo.size)
    mid = 0.5 * (lo + hi)
    r_lo = np.sqrt(np.maximum(lo, 1.0))
    r = np.sqrt(np.maximum(mid, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = (np.sqrt(np.maximum(hi, 1.0)) - r_lo) / (thi - tlo)
        for _ in range(1 if is_dirichlet(b) else 2):
            turn = math.pi if is_dirichlet(b) else np.arctan2(r, -float(b))
            r = r_lo + (math.pi * k + turn - tlo) * rate
    start = r * r
    keep = (lo > 1.0) & (start > lo) & (start < hi)
    return np.where(keep, start, mid)


def _newton_polish(char, lam, lo, hi):
    """Newton on a characteristic function, each root kept in its bracket.

    ``char(x)`` returns the characteristic values at x and their
    lam-derivatives.  ``lo`` and ``hi`` bracket one root each, slot k first
    (count brackets from ``_solve_levels``); any start inside its bracket is
    safe, and a start near the root (``_phase_starts``) saves rounds.  The
    characteristic value is positive below the spectrum and changes sign at
    each simple eigenvalue, so in slot k it has the sign (-1)**k below the
    root; each evaluation shrinks the bracket by that sign, and a step that
    would leave the bracket takes its midpoint.  A root stops once its
    Newton step is within the tolerance, taken or not, at the step's end
    clipped to the bracket: a bracket can collapse to one ulp while the
    step is still finite.

    A ``char`` that returns a companion g and its lam-derivative dg after
    w and dw gets (lam, g) back, g carried from each root's last evaluation
    x by the same step: g(x) + dg(x) (lam - x).
    """
    lam = np.array(lam, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    below = (-1.0) ** np.arange(lam.size)
    live = np.arange(lam.size)
    companion = np.empty(lam.size)
    for _ in range(_MAX_NEWTON):
        x = lam[live]
        w, dw, *rest = char(x)
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
        if rest:
            g, dg = rest
            companion[live[done]] = (g + dg * (lam[live] - x))[done]
        live = live[~done]
        if live.size == 0:
            return (lam, companion) if rest else lam
    raise BracketError(
        f"Newton polish left {live.size} roots unconverged after "
        f"{_MAX_NEWTON} rounds")


def _problem_char(prob, a, b, norming=False):
    """The problem's characteristic function as ``_newton_polish`` reads it.

    With ``norming`` it returns the norming constant nu of
    ``_endpoint_quantities`` and its lam-derivative as the companion, read
    from the same sweep: nu = log|num| + log scale with num = y'(1) for a
    Dirichlet pair, else y(1), and dnu/dlam = dnum / num.
    """
    dirichlet_pair = regime_of(a, b) == "dirichlet"

    def char(x):
        w, dw, scale, res = _endpoint_w(prob, x, a, b, deriv=True)
        if not norming:
            return w, dw
        num, dnum = ((res["v"], res["dv"]) if dirichlet_pair
                     else (res["y"], res["dy"]))
        with np.errstate(divide="ignore", invalid="ignore"):
            return w, dw, np.log(np.abs(num)) + scale, dnum / num
    return char


def _endpoint_quantities(prob, lam, a, b, deriv=True):
    """Norming constants nu and log|dw| at the eigenvalues lam, from one sweep.

    nu = log|y'(1)| for a Dirichlet pair, else log|y(1)|, of the shot from
    the left data; dw is the lam-derivative of the characteristic function.
    Without ``deriv`` an endpoint sweep gives the row nu alone, as (nu,).
    """
    _, dw, _, res = _endpoint_w(prob, lam, a, b, deriv=deriv)
    numerator = np.abs(res["v"] if is_dirichlet(b) else res["y"])
    if np.any(numerator == 0.0):
        raise DegenerateEigenfunctionError(
            "eigenfunction endpoint data vanished; spectrum is corrupted")
    norming = np.log(numerator) + res["logscale"]
    if not deriv:
        return (norming,)
    return norming, np.log(np.abs(dw)) + res["logscale"]


def _require_finite(*rows):
    """Raise where a row of norming constants (or of log|dw|) is not finite."""
    if not all(np.all(np.isfinite(row)) for row in rows):
        raise DegenerateEigenfunctionError(
            "a norming constant is not finite: eigenfunction endpoint data "
            "vanished")


def _traces(prob, lam, y0, v0):
    """Unscaled normal-form shots from the data (y0, v0) at x = 0, by lam.

    y0 and v0 are scalars or hold one value per lam column.  For an
    impedance problem these are y = rho f.
    """
    res = _sweep(prob._coefficients(), np.asarray(lam, dtype=float), y0, v0,
                 trace=True)
    return res["Y"]


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
    With ``norming`` the shots y_n and z_n are the two halves of one trace
    sweep of 2N columns.  Returns (d lam, d nu) of shape (N, J); d nu is
    None without ``norming``.
    """
    weights = _simpson_weights(prob.n)[:, None]
    lam = np.asarray(lam, dtype=float)
    N = lam.size
    y0, v0 = _initial_data(a)
    if not norming:
        Y = _traces(prob, lam, y0, v0)
    else:
        z0, w0 = (1.0, 0.0) if is_dirichlet(a) else (0.0, 1.0)
        YZ = _traces(prob, np.concatenate([lam, lam]),
                     np.repeat([y0, z0], N), np.repeat([v0, w0], N))
        Y, Z = YZ[:, :N], YZ[:, N:]
    Yw = weights * Y
    dlam = (directions @ (Yw * Y)) / np.sum(Yw * Y, axis=0)
    if not norming:
        return dlam.T, None
    ZYw = Z * Yw
    dnu = (dlam * np.sum(ZYw, axis=0) - directions @ ZYw) / (y0 * w0 - v0 * z0)
    return dlam.T, dnu.T


def _extrapolate(coarse, fine):
    """Fourth-order combination of problem-grid and doubled-grid values.

    It cancels the leading O(h**4) integrator error of either level.  It is
    used only where ``_normal_form_correction`` gives None.
    """
    return (16.0 * fine - coarse) / 15.0


# Every transfer matrix of the zero problem y'' = -lam y is C I + S A with
# A = [[0, 1], [-lam, 0]]: the exact one over [0, 1] has C = cos(w) and
# S = sin(w) / w at w = sqrt(lam), and an RK4 cell matrix has the same form
# with polynomials in lam.  The functions below pass a transfer as the tuple
# (C, S, dC, dS) of those entries and their lam-derivatives.

def _unit_block():
    """Coefficients of 1, z, z**2 in G(z) = [[M, M'], [0, M]], shape (3, 4, 4).

    M(z) is the RK4 cell matrix of y'' = -z y on a cell of unit width, from
    ``_quadratic_steps``, and M' = dM/dz.
    """
    M = _quadratic_steps(np.zeros(2), np.zeros(1))
    M = M[..., 0].reshape(3, 2, 2).transpose(0, 2, 1)  # stored by column
    G = np.zeros((3, 4, 4))
    G[:, :2, :2] = G[:, 2:, 2:] = M
    G[:2, :2, 2:] = M[1:] * np.array([1.0, 2.0])[:, None, None]
    return G


_UNIT_BLOCK = _unit_block()


def _cos_sinc_sqrt(lam):
    """cos(sqrt(lam)) and sin(sqrt(lam)) / sqrt(lam), entire in lam."""
    lam = np.asarray(lam, dtype=float)
    z = np.sqrt(lam.astype(complex))
    small = np.abs(lam) < 1e-8
    safe = np.where(small, 1.0, z)
    sinc = np.where(small, 1.0 - lam / 6.0 + lam * lam / 120.0,
                    (np.sin(safe) / safe).real)
    return np.cos(z).real, sinc


def _exact_transfer(lam):
    """The exact transfer of the zero problem over [0, 1]."""
    C, S = _cos_sinc_sqrt(lam)
    small = np.abs(lam) < 1e-3
    # d/dlam sin(w)/w = (C - S) / (2 lam), by its Taylor series near 0.
    dS = np.where(small, -1.0 / 6.0 + lam / 60.0,
                  (C - S) / (2.0 * np.where(small, 1.0, lam)))
    return C, S, -0.5 * S, dS


def _discrete_transfer(n, lam):
    """The RK4 transfer of the zero problem over n cells.

    Every cell matrix is the same M(lam), so the transfer is M(lam)**n and
    needs no sweep.  In the cell variable s = n x a cell has unit width and
    the equation reads z = lam / n**2.  Repeated squaring of the block
    [[M, M'], [0, M]] of that unit cell gives the power and, in its upper
    right block, the z-derivative; its first row holds C, n S and their
    z-derivatives.
    """
    z = np.asarray(lam, dtype=float)[:, None, None] / n**2
    B0, B1, B2 = _UNIT_BLOCK
    row = np.linalg.matrix_power((B2 * z + B1) * z + B0, n)[:, 0]
    return tuple(row.T / np.array([1.0, n, n**2, n**3])[:, None])


def _phase_matched(n, lam):
    """Where the RK4 transfer over n cells turns by the exact phase sqrt(lam).

    A unit cell turns (y, y') by phi(t) = atan2(t S, C) at t = sqrt(z),
    with C and S its entries M11 and M12; three Newton steps solve
    n phi(t) = sqrt(lam) for lam = (n t)**2.  For the zero problem with
    Dirichlet ends that is the discrete eigenvalue itself, and with Robin
    ends it is within a small shift of it.  lam <= 0 is returned as it is.
    """
    target = np.sqrt(np.maximum(lam, 0.0)) / n
    t = target
    B0, B1, B2 = _UNIT_BLOCK[:, 0, :, None]
    for _ in range(3):
        z = t * t
        C, S, dC, dS = (B2 * z + B1) * z + B0
        slope = (C * (S + 2.0 * z * dS) - 2.0 * z * S * dC) / (C * C + z * S * S)
        t = t - (np.arctan2(t * S, C) - target) / slope
    return np.where(lam > 0.0, (n * t) ** 2, lam)


def _zero_ends(transfer, lam, a):
    """(y, v, dy, dv) at x = 1 of the shot from the left data of ``a``.

    ``transfer`` is the (C, S, dC, dS) of the zero problem at ``lam``; the
    conventions are those of ``_endpoint_w``.
    """
    C, S, dC, dS = transfer
    if is_dirichlet(a):
        return S, C, dS, dC
    return (C + a * S, a * C - lam * S,
            dC + a * dS, a * dC - S - lam * dS)


def _zero_char(transfer, a, b):
    """The zero problem's characteristic function as ``_newton_polish`` reads it."""
    def char(x):
        y, v, dy, dv = _zero_ends(transfer(x), x, a)
        if is_dirichlet(b):
            return y, dy
        return v + b * y, dv + b * dy
    return char


def _zero_quantities(transfer, lam, a, b):
    """nu and log|dw| of the zero problem at lam, as in ``_endpoint_quantities``.

    The boundary state of a Robin left end a below about -18 has y(1) =
    cosh|a| - sinh|a| cancelled to zero, so nu is -inf there (and its
    correction -inf or nan); the readers of corrected norming constants
    reject it with ``_require_finite``.
    """
    y, v, dy, dv = _zero_ends(transfer(lam), lam, a)
    with np.errstate(divide="ignore"):
        if is_dirichlet(b):
            return np.log(np.abs(v)), np.log(np.abs(dy))
        return np.log(np.abs(y)), np.log(np.abs(dv + b * dy))


def _exact_ladder(a, b, N):
    """Eigenvalues, norming constants and log|dw| of p = 0 under (a, b), by slot.

    Robin ends take a bracketed Newton on the closed-form characteristic
    function.  With a Dirichlet left end, slot k >= 1 lies in
    ((k pi)**2, ((k + 1) pi)**2), since w cot w = -b has one root in each of
    those w-intervals.  A Robin left end interlaces with that ladder: slot k
    lies between its slots k - 1 and k, and so in
    (((k - 1) pi)**2, ((k + 1) pi)**2).  When ab < t_0, the points
    t_k = ((k + 1/2) pi)**2 separate the slots as well: there the
    characteristic function is (ab - t_k) (-1)**k / sqrt(t_k), whose sign
    places t_k between slots k and k + 1, and no ladder is solved for them.
    Below -m**2 with m = max(1, 1 - min(a, b)) nothing lies: at lam = -v**2,
    2 v w(lam) = e**v (v + a) (v + b) - e**-v (v - a) (v - b) for Robin
    ends and e**v (v + b) + e**-v (v - b) for a Dirichlet left end, positive
    for v >= m.  An end with a or b below -1 holds a state near -a**2 or
    -b**2, where the lowest slot starts.  A Dirichlet pair is closed form:
    w = sin(k pi) / (k pi) has dw = cos(k pi) / (2 lam).
    """
    regime = regime_of(a, b)
    if regime == "dirichlet":
        lam = unperturbed_eigenvalues(regime, N)
        return lam, unperturbed_norming(regime, N), -np.log(2.0 * lam)
    if regime == "mixed":
        edges = (math.pi * np.arange(N + 1)) ** 2
    else:
        edges = np.empty(N + 1)
        edges[1:] = ((np.arange(N) + 0.5) * math.pi) ** 2
        if a * b >= edges[1]:
            edges[1:] = _exact_ladder(math.inf, b, N)[0]
    low = min(a, b)
    edges[0] = -max(1.0, 1.0 - low) ** 2
    lo, hi = edges[:-1], edges[1:]
    # First-order starts; the positive ones are sharpened by the Pruefer
    # phase: y = R sin(t), y' = w R cos(t) turns at the rate w = sqrt(lam),
    # from t = atan2(w, a) (0 for Dirichlet) to atan2(w, -b) + k pi in slot k.
    start = unperturbed_eigenvalues(regime, N) + boundary_shift(regime, a, b)
    w = np.sqrt(np.maximum(start, 0.0))
    for _ in range(3):
        turn = np.arctan2(w, -b) - (0.0 if is_dirichlet(a) else np.arctan2(w, a))
        w = np.maximum(math.pi * np.arange(N) + turn, 0.0)
    start = np.where(start > 0.0, w * w, start)
    if low < -1.0:
        start[0] = -low * low
    lam = _newton_polish(_zero_char(_exact_transfer, a, b),
                         np.clip(start, lo, hi), lo, hi)
    return (lam, *_zero_quantities(_exact_transfer, lam, a, b))


def _zero_correction(n, a, b, N):
    """Exact less discrete eigenvalues, nu and log|dw| of p = 0, by slot.

    The discrete integrator error of a normal-form eigenvalue is dominated
    by a part that does not depend on the potential, so adding these
    differences to the values of any potential on n cells removes it, and
    the same holds for nu and log|dw| read at the discrete eigenvalue.  The
    discrete values come from Newton on the RK4 transfer M(lam)**n, started
    where the transfer turns by the exact phase and kept halfway to the
    neighbouring starts; where that does not isolate a root, the Newton
    polish raises ``BracketError``.
    """
    lam, norming, log_dw = _exact_ladder(a, b, N + 1)
    start = _phase_matched(n, lam)
    hi = 0.5 * (start[1:] + start[:-1])
    lo = np.concatenate([[2.0 * start[0] - hi[0]], hi[:-1]])

    def transfer(x):
        return _discrete_transfer(n, x)

    lam_h = _newton_polish(_zero_char(transfer, a, b), start[:N], lo, hi)
    norming_h, log_dw_h = _zero_quantities(transfer, lam_h, a, b)
    with np.errstate(invalid="ignore"):
        return lam[:N] - lam_h, norming[:N] - norming_h, log_dw[:N] - log_dw_h


def _normal_form_correction(n, a, b, N):
    """``_zero_correction`` on n cells, or None where it does not apply.

    Both pictures integrate a normal form, whose constant shift c0 moves
    the discrete and the exact eigenvalues alike, so the correction is that
    of the grid and the boundary pair.  None marks the pairs where the zero
    ladder cannot be matched slot by slot, and ``_zero_correction`` raises:
    two Robin ends below about -10, whose boundary states nearly coincide.
    """
    try:
        return _zero_correction(n, a, b, N)
    except BracketError:
        return None


# The default of ``_pipeline``'s ``_correction``: compute it there.  A caller
# that solves many problems on one grid and pair passes the correction it
# computed once, None (no correction applies) included.
_OWN_CORRECTION = object()


def _pipeline(prob, a, b, N, *, _guess=None, _correction=_OWN_CORRECTION):
    """Eigenvalues and norming constants by slot.

    One grid level plus the zero-potential correction: Newton from the
    phase-matched starts of ``_solve_levels``, whose last sweep at each root
    gives its norming constant as well.  ``_guess`` predicts the corrected
    eigenvalues; less the correction it replaces the phase start of each
    slot where it lies strictly inside that slot's count bracket, so a
    guess cannot change a label, only the rounds Newton takes.  Where the
    correction does not apply, the guess is ignored: Newton from the
    bracket midpoints at the problem grid and the doubled grid, norming
    constants read at both roots, and ``_extrapolate``.
    """
    lo, hi, start = _solve_levels(prob, a, b, N)
    correction = _normal_form_correction(prob.n, a, b, N) \
        if _correction is _OWN_CORRECTION else _correction
    if correction is not None:
        dlam, dnorm, _ = correction
        if _guess is not None:
            raw = np.asarray(_guess, dtype=float) - dlam
            start = np.where((raw > lo) & (raw < hi), raw, start)
        lam0, norm0 = _newton_polish(_problem_char(prob, a, b, norming=True),
                                     start, lo, hi)
        return lam0 + dlam, norm0 + dnorm
    lam0 = _newton_polish(_problem_char(prob, a, b), 0.5 * (lo + hi), lo, hi)
    norm0, = _endpoint_quantities(prob, lam0, a, b, deriv=False)
    fine = prob.with_resolution(2 * prob.n)
    lam1 = _newton_polish(_problem_char(fine, a, b), lam0, lo, hi)
    norm1, = _endpoint_quantities(fine, lam1, a, b, deriv=False)
    return _extrapolate(lam0, lam1), _extrapolate(norm0, norm1)


def compute_eigenvalues(prob, a: float, b: float, N: int) -> np.ndarray:
    """First N eigenvalues of the problem under the boundary pair (a, b)."""
    if N < 1:
        raise ValueError("need at least one eigenvalue")
    return _pipeline(prob, a, b, N)[0]


def solve_spectrum(prob, a: float, b: float, N: int, *, _guess=None,
                   _correction=_OWN_CORRECTION) -> SpectralData:
    """Eigenvalues plus norming constants, packaged with their remainders.

    The private keywords reach ``_pipeline``: a predicted ladder for the
    Newton starts and a zero-potential correction computed by the caller
    (``_normal_form_correction`` of the grid, pair and N).  Without them
    the solve starts from the phase-matched starts and computes its own
    correction.
    """
    lam, norming = _pipeline(prob, a, b, N, _guess=_guess,
                             _correction=_correction)
    _require_finite(norming)
    return SpectralData(
        kind=prob.kind, a=float(a), b=float(b), c0=prob.c0,
        eigenvalues=lam, norming=norming,
        remainders=_remainders(lam, a, b, prob.c0), N=N,
    )


def _stored_quantities(prob, data: SpectralData, M: int | None = None,
                       deriv: bool = True):
    """nu and log|dw| at the first M (default all) stored eigenvalues.

    Where ``solve_spectrum`` corrects one level, one level is read at the
    discrete eigenvalues that the stored ones imply (data less the
    zero-potential correction) and the correction of each quantity is
    added.  Elsewhere two levels are read at the stored values: the leading
    integrator error then has the same coefficient and ``_extrapolate``
    cancels it.  Without ``deriv`` endpoint sweeps give (nu,) alone, as in
    ``_endpoint_quantities``.
    """
    a, b = data.a, data.b
    lam = np.asarray(data.eigenvalues[:M], dtype=float)
    correction = _normal_form_correction(prob.n, a, b, lam.size)
    if correction is not None:
        rows = _endpoint_quantities(prob, lam - correction[0], a, b, deriv)
        rows = tuple(row + d for row, d in zip(rows, correction[1:]))
    else:
        fine = prob.with_resolution(2 * prob.n)
        rows = tuple(map(_extrapolate,
                         _endpoint_quantities(prob, lam, a, b, deriv),
                         _endpoint_quantities(fine, lam, a, b, deriv)))
    _require_finite(*rows)
    return rows


def norming_constants(prob, data: SpectralData) -> np.ndarray:
    """Norming constants at the eigenvalues stored in ``data``.

    Dirichlet pairs use the endpoint slope ratio; the other regimes use the
    endpoint value ratio, read from the normal form of either picture (for
    an impedance problem, those of f times rho(1)), so the constants agree
    across the two pictures.  They are read by ``_stored_quantities``: one
    grid level at the discrete eigenvalues that the stored ones imply, plus
    the zero-potential correction.
    """
    return _stored_quantities(prob, data, deriv=False)[0]


def normalizing_constants(prob, data: SpectralData) -> np.ndarray:
    """Integrals alpha_n = int y_n**2 with y_n'(0) = 1 (Dirichlet pairs only).

    For a Dirichlet pair alpha_n = y_n'(1) dw(lam_n) (Poeschel & Trubowitz,
    Inverse Spectral Theory, 1987, ch. 2), that is exp(nu + log|dw|), read
    at the stored eigenvalues by ``_stored_quantities``.
    """
    if regime_of(data.a, data.b) != "dirichlet":
        raise ValueError("normalizing constants are defined for Dirichlet pairs")
    norming, log_dw = _stored_quantities(prob, data)
    return np.exp(norming + log_dw)


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
    cos, sinc = _cos_sinc_sqrt(lam)
    if regime == "dirichlet":
        front = float(sinc)
    elif regime == "mixed":
        front = float(cos)
    else:
        front = -lam * float(sinc)
    return front * float(np.prod((lam - eigs) / (lam - ref)))


def identity_b(prob, data: SpectralData, M: int) -> np.ndarray:
    """Partial sums of the fixed-b trace identity (Dirichlet-Robin pairs).

    Returns S_1..S_M with S_m = sum_{k<m} (2 - exp(norming_k)/|dw(lam_k)|);
    the sums converge to the boundary parameter b.
    """
    if regime_of(data.a, data.b) != "mixed":
        raise ValueError("the fixed-b identity needs a Dirichlet-Robin pair")
    if M > data.N:
        raise ValueError("identity ladder exceeds stored data")
    norming, log_dw = _stored_quantities(prob, data, M)
    return np.cumsum(2.0 - np.exp(norming - log_dw))


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
    norming, log_dw = _stored_quantities(prob, data, M)
    r_plus, r_minus = np.exp(norming - log_dw), np.exp(-norming - log_dw)
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
