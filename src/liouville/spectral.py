"""Eigenvalues, norming constants, product formulas, and trace identities.

Spectra are located by exact oscillation-count bracketing, then found by
Newton steps on the characteristic function with its variational
lam-derivative, each iterate kept inside its count bracket; a root already
near takes chord steps, which reuse its last derivative.  Both pictures
are solved as normal forms (an impedance problem through the Liouville map,
see ``ode``), at the problem grid, and corrected by the integrator error of
the zero potential under the same boundary pair (asymptotic correction:
Paine, de Hoog & Anderssen, Computing 26, 1981), which the zero problem
shows exactly and without a sweep.  The norming constants, normalizing
constants and trace-identity terms at stored eigenvalues are read the same
way: one grid level at the discrete eigenvalues those imply, plus the
correction of each quantity.  Every boundary pair takes that one path; a
state that decays away from x = 0 has its norming constant read from the
shot of the right data, which grows toward it.

Three boundary regimes are supported, encoded by the pair (a, b) with inf
meaning a Dirichlet end: both ends Dirichlet (eigenvalues labelled from 1),
Dirichlet-Robin (labelled from 0), and Robin-Robin (labelled from 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BracketError,
    DegenerateEigenfunctionError,
    PoleCollisionError,
)
from .grid import SequenceData, _read_only, _simpson_weights
from .ode import (_count_below, _end, _endpoint_w, _pair, _sweep, _traces,
                  is_dirichlet)

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


# Newton stops a root once its step is within _RTOL * max(1, |lam|), and
# takes chord rounds after a step within _CHORD * max(1, |lam|);
# _MAX_NEWTON bounds the rounds of one polish and _MAX_REPAIR those of the
# bracket repair before the count bisection.
_RTOL = 1e-12
_CHORD = math.sqrt(_RTOL)
_MAX_NEWTON = 16
_MAX_REPAIR = 48

# Tail-growth tolerances and noise floor of ``characterize``.
_GROWTH_TOL = 0.01
_ALPHA_GROWTH_TOL = 0.25
_NOISE_FLOOR = 1e-4


def regime_of(a: float, b: float) -> str:
    left, right = is_dirichlet(a), is_dirichlet(b)
    if right and not left:
        raise ValueError("the Robin-Dirichlet orientation is not supported; "
                         "reflect the problem instead")
    return "dirichlet" if right else "mixed" if left else "generic"


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

    # Bisection halves a bracket until it holds one eigenvalue, or until no
    # float lies strictly inside it: rounding cannot split that pair.
    while True:
        wide = (chi - clo) > 1
        if not wide.any():
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        if np.any((mid <= lo[wide]) | (mid >= hi[wide])):
            raise BracketError("count bisection failed to separate eigenvalues")
        cm, tm = _count_below(prob, mid, a, b, phase=True)
        take_lo = cm <= slots[wide]
        idx = np.flatnonzero(wide)
        lo[idx[take_lo]] = mid[take_lo]
        clo[idx[take_lo]] = cm[take_lo]
        tlo[idx[take_lo]] = tm[take_lo]
        hi[idx[~take_lo]] = mid[~take_lo]
        chi[idx[~take_lo]] = cm[~take_lo]
        thi[idx[~take_lo]] = tm[~take_lo]
    return lo, hi, _phase_starts(lo, hi, tlo, thi, b)


def _phase_starts(lo, hi, tlo, thi, b):
    """Newton starts where the bracket's phase reaches the root's phase.

    The Pruefer phase at x = 1 turns nearly linearly in sqrt(lam) (at the
    rate 1 for the zero potential), so across slot k's bracket it is taken
    linear in sqrt(lam) between theta(lo) and theta(hi) and solved for the
    root phase of ``_count_below``: k pi + atan2(sqrt(lam), -b), whose slow
    turn two substitutions take up; at a Dirichlet end atan2(r, -inf) = pi
    for every r > 0, so the second repeats the first.  Where lo <= 1 (the
    phase there is scaled by 1, not sqrt(lam)) or the start does not land
    strictly inside its bracket, the bracket midpoint is the start.
    """
    k = np.arange(lo.size)
    mid = 0.5 * (lo + hi)
    r_lo = np.sqrt(np.maximum(lo, 1.0))
    r = np.sqrt(np.maximum(mid, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = (np.sqrt(np.maximum(hi, 1.0)) - r_lo) / (thi - tlo)
        for _ in range(2):
            r = r_lo + (math.pi * k + np.arctan2(r, -b) - tlo) * rate
    start = r * r
    keep = (lo > 1.0) & (start > lo) & (start < hi)
    return np.where(keep, start, mid)


def _newton_polish(char, lam, lo, hi, value=None):
    """Newton on a characteristic function, each root kept in its bracket.

    ``char(x)`` returns the characteristic values at x, their
    lam-derivatives and the log of their common scale (w e**scale is the
    true value).  ``lo`` and ``hi`` bracket one root each, slot k first
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
    the scale gets (lam, g) back, g carried from each root's last
    evaluation x by the same step: g(x) + dg(x) (lam - x).

    Such a char may come with ``value``, which returns the values, their
    log scale and g, without derivatives.  A root whose last step landed
    inside its bracket and within ``_CHORD`` then takes chord rounds
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995,
    sec. 5.4): ``value`` evaluates it, and its last dw, carried to the new
    scale, and its last dg are reused.  Such a round costs an endpoint
    sweep, not a derivative sweep.
    """
    lam = np.array(lam, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    below = (-1.0) ** np.arange(lam.size)
    live = np.arange(lam.size)
    # Each root's last evaluation: w, dw, their log scale, g and dg.
    w, dw, scale, g, dg = np.zeros((5, lam.size))
    chord = np.zeros(lam.size, dtype=bool)
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
        x = lam[live]
        side = np.sign(w[live]) * below[live]
        low = np.where(side > 0, x, lo[live])
        high = np.where(side < 0, x, hi[live])
        lo[live], hi[live] = low, high
        with np.errstate(divide="ignore", invalid="ignore"):
            step = w[live] / dw[live]
        trial = x - step
        reach = np.maximum(1.0, np.abs(x))
        done = np.abs(step) <= _RTOL * reach
        inside = (trial > low) & (trial < high)
        lam[live] = np.where(inside | done, np.clip(trial, low, high),
                             0.5 * (low + high))
        g[live] += dg[live] * (lam[live] - x)
        if value is not None:
            chord[live] = inside & (np.abs(step) <= _CHORD * reach)
        live = live[~done]
        if live.size == 0:
            return (lam, g) if carry else lam
    raise BracketError(
        f"Newton polish left {live.size} roots unconverged after "
        f"{_MAX_NEWTON} rounds")


def _problem_char(prob, a, b):
    """The problem's characteristic function and its ``value`` form, as
    ``_newton_polish`` reads them.

    Its companion is the norming constant nu of ``_endpoint_quantities``
    and its lam-derivative, read from the same sweep: nu = log|num| +
    log scale with num the read of b at x = 1, and dnu/dlam = dnum / num.
    The value form reads w and nu from an endpoint sweep.
    """
    read = _end(b).read

    def evaluate(x, deriv):
        w, dw, scale, res = _endpoint_w(prob, x, a, b, deriv)
        num = _pair(read, res["y"], res["v"])
        with np.errstate(divide="ignore", invalid="ignore"):
            nu = np.log(np.abs(num)) + scale
            if not deriv:
                return w, scale, nu
            return w, dw, scale, nu, _pair(read, res["dy"], res["dv"]) / num

    return (lambda x: evaluate(x, True)), (lambda x: evaluate(x, False))


def _endpoint_quantities(prob, lam, a, b, deriv=True):
    """Norming constants nu and log|dw| at the eigenvalues lam, from one sweep.

    nu = log|y'(1)| for a Dirichlet pair, else log|y(1)|, of the shot from
    the left data; dw is the lam-derivative of the characteristic function.
    Without ``deriv`` an endpoint sweep gives the row nu alone, as (nu,).
    """
    _, dw, _, res = _endpoint_w(prob, lam, a, b, deriv=deriv)
    with np.errstate(divide="ignore"):
        norming = np.log(np.abs(_pair(_end(b).read, res["y"], res["v"]))) \
            + res["logscale"]
    if not deriv:
        return (norming,)
    return norming, np.log(np.abs(dw)) + res["logscale"]


def _require_finite(*rows):
    """Raise where a row of norming constants (or of log|dw|) is not finite."""
    if not all(np.all(np.isfinite(row)) for row in rows):
        raise DegenerateEigenfunctionError(
            "a norming constant is not finite: eigenfunction endpoint data "
            "vanished")


def _potential_gradients(prob, lam, a, b, directions, norming=True):
    """Exact derivatives of eigenvalues and norming constants along directions.

    ``lam`` holds eigenvalues of the normal-form problem ``prob`` under the
    pair (a, b); ``directions`` holds one perturbation phi_j of p per row,
    sampled on the problem grid.  With y_n an eigenfunction at lam_n and
    z_n the shot from the read row of a swapped, so that the Wronskian
    W = y z' - y' z is +-1,

        d lam_n = int phi y_n**2 / int y_n**2,
        d nu_n = -(int phi z_n y_n - d lam_n int z_n y_n) / W.

    The second formula holds for nu = log|y(1)| and nu = log|y'(1)| alike,
    because int y_n**2 (d p - d lam_n) = 0.  Both are unchanged when y_n is
    scaled, so y_n is the shot from the left data, or, below lam = -1 where
    the shot of the right data grows more (the test of ``_norming``), that
    shot read backward: a state that decays away from x = 0 leaves the
    forward shot with the rounding of the growing solution.  With
    ``norming`` the forward shots y_n and z_n are the two halves of one
    trace sweep of 2N columns.  Returns (d lam, d nu) of shape (N, J); d nu
    is None without ``norming``.
    """
    weights = _simpson_weights(prob.n)[:, None]
    lam = np.asarray(lam, dtype=float)
    N = lam.size
    co = prob._coefficients()
    left, right = _end(a), _end(b)
    (y0, v0), (w0, z0) = left.data, left.read
    if not norming:
        Y, W = _traces(co, lam, y0, v0)
    else:
        YZ, W = _traces(co, np.concatenate([lam, lam]),
                        np.repeat([y0, z0], N), np.repeat([v0, w0], N))
        Y, Z = YZ[:, :N], YZ[:, N:]
    wronskian = np.full(N, y0 * w0 - v0 * z0)
    deep = np.flatnonzero(lam < -1.0)
    if deep.size:
        G, dG = _traces(co.reflected(), lam[deep], *right.data)
        grows = np.abs(_pair(left.read, G[-1], dG[-1])) \
            > np.abs(_pair(right.read, Y[-1, deep], W[-1, deep]))
        deep = deep[grows]
        Y[:, deep] = G[::-1, grows]
        # g(s) = y(1 - s), so y'(0) = -g'(1).
        wronskian[deep] = G[-1, grows] * w0 + dG[-1, grows] * z0
    Yw = weights * Y
    dlam = (directions @ (Yw * Y)) / np.sum(Yw * Y, axis=0)
    if not norming:
        return dlam.T, None
    ZYw = Z * Yw
    dnu = (dlam * np.sum(ZYw, axis=0) - directions @ ZYw) / wronskian
    return dlam.T, dnu.T


# Every transfer matrix of the zero problem y'' = -lam y is C I + S A with
# A = [[0, 1], [-lam, 0]], here C = R H(u) and S = K G(u) with H(u) =
# cos(sqrt u) and G(u) = sin(sqrt u) / sqrt u = sum (-u)**k / (2k + 1)!,
# entire in u; the exact transfer over [0, 1] has R = K = 1 and u = lam.
# A transfer is passed as (C, S, dC, dS, R, dR, u, du), d meaning d/dlam.
_SINC_SLOPE = [(-1.0) ** k * k / math.factorial(2 * k + 1) for k in range(1, 7)]


def _cos_sinc_sqrt(u):
    """H(u), G(u) and G'(u) = (H - G) / (2u), G' by its series where
    |u| < 0.1."""
    u = np.asarray(u, dtype=float)
    w = np.sqrt(u.astype(complex))
    H = np.cos(w).real
    G = np.where(w == 0.0, 1.0, (np.sin(w) / np.where(w == 0.0, 1.0, w)).real)
    small = np.abs(u) < 0.1
    return H, G, np.where(small, np.polynomial.polynomial.polyval(
        u, _SINC_SLOPE), (H - G) / (2.0 * np.where(small, 1.0, u)))


def _exact_transfer(lam):
    """The exact transfer of the zero problem over [0, 1]."""
    H, G, dG = _cos_sinc_sqrt(lam)
    one = np.ones_like(H)
    return H, G, -0.5 * G, dG, one, 0.0 * one, lam, one


def _cell_phase(z):
    """C1, S1 and r = arg(mu) / sqrt(z) of the RK4 unit cell at z (see
    ``_discrete_transfer``), with r = 1 at z = 0."""
    C1, S1 = 1.0 - z / 2.0 + z * z / 24.0, 1.0 - z / 6.0
    t = np.sqrt(np.abs(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(z > 0.0, np.arctan2(t * S1, C1),
                     np.arctanh(t * S1 / C1)) / t
    return C1, S1, np.where(t > 0.0, r, 1.0)


def _discrete_transfer(n, lam):
    """The RK4 transfer of the zero problem over n cells, in closed form.

    Every cell matrix is M = C1 I + S1 A, with C1 = 1 - z/2 + z**2/24 and
    S1 = 1 - z/6 at z = lam / n**2 in the cell variable.  Its eigenvalues
    mu = C1 +- i sqrt(z) S1 give M**n = (mu+**n + mu-**n) / 2 I +
    (mu+**n - mu-**n) / (2 i sqrt(z)) A: R = |mu|**n = det(M)**(n/2), with
    det(M) = 1 - z**3/72 + z**4/576, u = (n arg mu)**2 = lam r**2 and
    K = R r = det**((n - 1)/2) S1 / G(z r**2).
    """
    lam = np.asarray(lam, dtype=float)
    z = lam / n**2
    C1, S1, r = _cell_phase(z)
    dC1, dS1 = z / 12.0 - 0.5, -1.0 / 6.0
    excess = z**3 * (z / 576.0 - 1.0 / 72.0)
    det, ddet = 1.0 + excess, z * z * (z / 144.0 - 1.0 / 24.0)
    du = r * (C1 * S1 + 2.0 * z * (C1 * dS1 - S1 * dC1)) / det
    R = np.exp(0.5 * n * np.log1p(excess))
    K, dR, u = R * r, 0.5 * R * ddet / (n * det), lam * r * r
    _, G, dG = _cos_sinc_sqrt(z * r * r)
    dK = K * (0.5 * (n - 1) * ddet / det + dS1 / S1 - dG * du / G) / n**2
    H, G, dG = _cos_sinc_sqrt(u)
    return (R * H, K * G, dR * H - 0.5 * R * G * du, dK * G + K * dG * du,
            R, dR, u, du)


def _phase_matched(n, lam):
    """Where the RK4 transfer over n cells turns by the exact phase sqrt(lam).

    Three fixed-point steps x = lam / r(x / n**2)**2 (``_cell_phase``), to
    1.5e-7 relative where lam <= 1.2 n**2: for the zero problem the
    discrete eigenvalue with Dirichlet ends, a small shift off it with
    Robin ends.  lam <= 0 is kept.
    """
    x = np.array(lam, dtype=float)
    for _ in range(3):
        x = lam / _cell_phase(x / n**2)[2] ** 2
    return np.where(lam > 0.0, x, lam)


def _zero_pairing(transfer, lam, left, right):
    """l . T (y0, v0) and its lam-derivative: left = (y0, v0), right = l.

    It is C q0 + S q1 with q0 = l . (y0, v0) and q1 = l . (v0, -lam y0)
    where lam >= -1.  Below, where C and S grow like e**v, v = sqrt(-lam),
    and Robin combinations cancel them, it is summed by branch: T has the
    eigenvectors (1, +-v) of A, with eigenvalues E+- = R e**(+-sqrt(-u)), so
    l . T (y0, v0) = sum of E+- (v y0 +- v0) (l_y +- v l_v) / (2v).
    """
    C, S, dC, dS, R, dR, u, du = transfer
    (y0, v0), (ly, lv) = left, right
    q0, q1 = ly * y0 + lv * v0, ly * v0 - lam * lv * y0
    value, slope = C * q0 + S * q1, dC * q0 + dS * q1 - S * lv * y0
    deep = lam < -1.0
    if not deep.any():
        return value, slope
    v, psi = (np.sqrt(-np.where(deep, x, -1.0)) for x in (lam, u))
    dv, dpsi = -0.5 / v, -0.5 * du / psi
    branches, slopes = 0.0, 0.0
    for sign in (1.0, -1.0):
        E = R * np.exp(sign * psi)
        p, q = v * y0 + sign * v0, ly + sign * v * lv
        branches = branches + E * p * q
        slopes = slopes + (dR / R + sign * dpsi) * E * p * q \
            + E * dv * (y0 * q + sign * lv * p)
    branches = branches / (2.0 * v)
    slopes = slopes / (2.0 * v) - branches * dv / v
    return np.where(deep, branches, value), np.where(deep, slopes, slope)


def _zero_char(transfer, a, b):
    """The zero problem's characteristic function as ``_newton_polish`` reads
    it: the left data paired with the closing row of b at x = 1, at log
    scale 0."""
    data, closing = _end(a).data, _end(b).closing

    def char(x):
        return (*_zero_pairing(transfer(x), x, data, closing), 0.0)
    return char


def _zero_quantities(transfer, lam, a, b):
    """nu and log|dw| of the zero problem at lam, as in ``_endpoint_quantities``.

    nu is the read of b at x = 1, or below lam = -1 that of a at x = 0 of
    the shot from the right data (``_deep_read``), as ``_norming`` reads the
    problem's.
    """
    left, right = _end(a), _end(b)
    tr = transfer(lam)
    end, _ = _zero_pairing(tr, lam, left.data, right.read)
    start, _ = _zero_pairing(tr, lam, right.data, left.read)
    _, dw = _zero_pairing(tr, lam, left.data, right.closing)
    with np.errstate(divide="ignore"):
        return (_deep_read(lam, np.log(np.abs(end)), -np.log(np.abs(start)),
                           tr[4]), np.log(np.abs(dw)))


@lru_cache(maxsize=64)
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
    -b**2, where the lowest slots start.  The Pruefer phase that sharpens
    the starts leaves a Dirichlet a = +inf at atan2(w, inf) = 0.  A
    Dirichlet pair is closed form: w = sin(k pi) / (k pi) has
    dw = cos(k pi) / (2 lam).  The ladder depends on (a, b, N) alone, so it
    is solved once per process and its arrays are read-only.
    """
    regime = regime_of(a, b)
    if regime == "dirichlet":
        lam = unperturbed_eigenvalues(regime, N)
        return _read_only(lam, unperturbed_norming(regime, N),
                          -np.log(2.0 * lam))
    if regime == "mixed":
        edges = (math.pi * np.arange(N + 1)) ** 2
    else:
        edges = np.empty(N + 1)
        edges[1:] = ((np.arange(N) + 0.5) * math.pi) ** 2
        if a * b >= edges[1]:
            edges[1:] = _exact_ladder(math.inf, b, N)[0]
    edges[0] = -max(1.0, 1.0 - min(a, b)) ** 2
    lo, hi = edges[:-1], edges[1:]
    # First-order starts; the positive ones are sharpened by the Pruefer
    # phase: y = R sin(t), y' = w R cos(t) turns at the rate w = sqrt(lam),
    # from t = atan2(w, a) to atan2(w, -b) + k pi in slot k.
    start = unperturbed_eigenvalues(regime, N) + boundary_shift(regime, a, b)
    w = np.sqrt(np.maximum(start, 0.0))
    for _ in range(3):
        turn = np.arctan2(w, -b) - np.arctan2(w, a)
        w = np.maximum(math.pi * np.arange(N) + turn, 0.0)
    start = np.where(start > 0.0, w * w, start)
    deep = [-c * c for c in (a, b) if c < -1.0]
    if len(deep) == 2:
        # At lam = -v**2 both solve (v + a)(v + b) = e**(-2v) (v - a)(v - b),
        # a quadratic in v + a with the right side at the mean of -a and -b.
        v = -0.5 * (a + b)
        split = math.hypot(b - a, 2.0 * math.exp(-v) * math.sqrt(
            (v - a) * (v - b)))
        deep = [-(0.5 * (s * split - a - b)) ** 2 for s in (-1.0, 1.0)]
    deep = sorted(deep)[:N]
    start[:len(deep)] = deep
    lam = _newton_polish(_zero_char(_exact_transfer, a, b),
                         np.clip(start, lo, hi), lo, hi)
    return _read_only(lam, *_zero_quantities(_exact_transfer, lam, a, b))


@lru_cache(maxsize=64)
def _zero_correction(n, a, b, N):
    """Exact less discrete eigenvalues, nu and log|dw| of p = 0, by slot.

    The discrete integrator error of a normal-form eigenvalue is dominated
    by a part that does not depend on the potential (nor on the shift c0),
    so adding these differences to the values of any potential on n cells
    removes it, and the same holds for nu and log|dw| read at the discrete
    eigenvalue.  The discrete values come from Newton on M(lam)**n, started
    where the transfer turns by the exact phase and kept halfway to the
    neighbouring starts; where that does not isolate a root (two boundary
    states closer than rounding splits), it raises ``BracketError``.  Every
    solve on the same grid, pair and N shares one read-only result, built
    once per process.
    """
    lam, norming, log_dw = _exact_ladder(a, b, N + 1)
    start = _phase_matched(n, lam)
    hi = 0.5 * (start[1:] + start[:-1])
    lo = np.concatenate([[2.0 * start[0] - hi[0]], hi[:-1]])

    def transfer(x):
        return _discrete_transfer(n, x)

    lam_h = _newton_polish(_zero_char(transfer, a, b), start[:N], lo, hi)
    norming_h, log_dw_h = _zero_quantities(transfer, lam_h, a, b)
    return _read_only(lam[:N] - lam_h, norming[:N] - norming_h,
                      log_dw[:N] - log_dw_h)


def _deep_read(lam, forward, backward, R):
    """nu from the end each state grows toward: ``backward`` + 2 log R below
    lam = -1 where backward + forward < 0, else ``forward``.

    ``forward`` is log|read of b| at x = 1 of the shot from the left data,
    ``backward`` -log|read of a| at x = 0 of that from the right data.  RK4
    does not keep the Wronskian: over n cells of the zero problem a
    backward read falls short by 2 log R (``_discrete_transfer``).
    """
    take = (lam < -1.0) & (backward + forward < 0.0)
    return np.where(take, backward + 2.0 * np.log(R), forward)


def _norming(prob, lam, a, b, forward):
    """Norming constants at the discrete eigenvalues lam, each read from
    the end its state grows toward.

    ``forward`` holds the reads of the shots from the left data.  A state
    that decays away from x = 0, as that near -a**2 of a Robin end a << -1,
    leaves y(1) after terms of size e**|a| cancel, with the rounding of the
    growing solution.  Below lam = -1, one endpoint sweep of the reflected
    coefficients from the right data gives the backward read -log|z(0)|
    (z'(0) at a Dirichlet a), which ``_deep_read`` takes where that shot
    grows more; the 2 log R it adds is that of the zero problem, for whose
    forward reads the correction is computed.
    """
    nu = np.array(forward, dtype=float)
    deep = lam < -1.0
    if deep.any():
        res = _sweep(prob._coefficients().reflected(), lam[deep],
                     *_end(b).data)
        with np.errstate(divide="ignore"):
            back = -np.log(np.abs(_pair(_end(a).read, res["y"], res["v"]))) \
                - res["logscale"]
        nu[deep] = _deep_read(lam[deep], nu[deep], back, _discrete_transfer(
            prob.n, lam[deep])[4])
    return nu


def _pipeline(prob, a, b, N, *, _guess=None):
    """Eigenvalues and norming constants by slot.

    One grid level plus the zero-potential correction: Newton from the
    phase-matched starts of ``_solve_levels``, whose last sweep at each root
    gives its forward norming read for ``_norming``.  ``_guess`` predicts
    the corrected eigenvalues; less the correction it replaces the phase
    start of each slot where it lies strictly inside that slot's count
    bracket, so a guess cannot change a label, only the rounds Newton
    takes.
    """
    lo, hi, start = _solve_levels(prob, a, b, N)
    dlam, dnorm, _ = _zero_correction(prob.n, a, b, N)
    if _guess is not None:
        raw = np.asarray(_guess, dtype=float) - dlam
        start = np.where((raw > lo) & (raw < hi), raw, start)
    char, value = _problem_char(prob, a, b)
    lam, forward = _newton_polish(char, start, lo, hi, value)
    return lam + dlam, _norming(prob, lam, a, b, forward) + dnorm


def compute_eigenvalues(prob, a: float, b: float, N: int) -> np.ndarray:
    """First N eigenvalues of the problem under the boundary pair (a, b)."""
    if N < 1:
        raise ValueError("need at least one eigenvalue")
    return _pipeline(prob, a, b, N)[0]


def solve_spectrum(prob, a: float, b: float, N: int, *,
                   _guess=None) -> SpectralData:
    """Eigenvalues plus norming constants, packaged with their remainders.

    One grid level plus the zero-potential correction (``_pipeline``), for
    every boundary pair.  The private ``_guess`` reaches ``_pipeline``: a
    predicted ladder for the Newton starts.
    """
    lam, norming = _pipeline(prob, a, b, N, _guess=_guess)
    _require_finite(norming)
    return SpectralData(
        kind=prob.kind, a=float(a), b=float(b), c0=prob.c0,
        eigenvalues=lam, norming=norming,
        remainders=_remainders(lam, a, b, prob.c0), N=N,
    )


def _stored_quantities(prob, data: SpectralData, M: int | None = None,
                       deriv: bool = True):
    """nu and log|dw| at the first M (default all) stored eigenvalues.

    One level is read at the discrete eigenvalues that the stored ones
    imply (data less the zero-potential correction), nu by ``_norming``,
    and the correction of each quantity is added.  Without ``deriv``
    endpoint sweeps give (nu,) alone, as in ``_endpoint_quantities``.
    """
    a, b = data.a, data.b
    lam = np.asarray(data.eigenvalues[:M], dtype=float)
    dlam, *deltas = _zero_correction(prob.n, a, b, lam.size)
    nu, *rest = _endpoint_quantities(prob, lam - dlam, a, b, deriv)
    rows = (_norming(prob, lam - dlam, a, b, nu), *rest)
    rows = tuple(row + d for row, d in zip(rows, deltas))
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
    cos, sinc, _ = _cos_sinc_sqrt(lam)
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
    if M < 1 or M > data.N:
        raise ValueError(f"ladder length M={M} outside 1..{data.N}")
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
    if M < 1 or M > data.N:
        raise ValueError(f"ladder length M={M} outside 1..{data.N}")
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
