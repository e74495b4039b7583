"""Eigenvalues, norming constants, product formulas, and trace identities.

Spectra are found by Newton steps on the characteristic function, each
iterate kept inside its bracket.  Every round is one endpoint sweep: a
step's slope is the zero problem's lam-derivative at the same slot in the
first round, by complex step through its closed form, and the secant
through the root's last two evaluations after that.  Every ladder is
bracketed around its starts, a fit's predicted ladder or the zero ladder
shifted by the problem's c0, the mean of V, and one exact oscillation
count above the ladder proves the labels once each root lands inside its
own bracket; otherwise every slot is count-bracketed.  Two states that
rounding cannot split raise ``BracketError``.  Both pictures are solved as
normal forms (an impedance problem through the Liouville map, see
``ode``), at the problem grid, with no correction: the sixth-order Magnus
cells of ``ode`` are exact for constant V, the zero potential included,
and keep the Wronskian.  The norming constants, normalizing constants and
trace-identity terms at stored eigenvalues are read by one sweep at those
eigenvalues.  Every boundary pair takes that one path; a state that
decays away from x = 0 has its norming constant read from the shot of
the right data, which grows toward it.

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
from .ode import (_complex_step, _cosh_sinc, _count_below, _end, _endpoint_w,
                  _pair, _sweep, _traces, is_dirichlet)

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


# Newton stops a root once its step is within _RTOL * max(1, |lam|).
# _MAX_NEWTON bounds the rounds of one polish, each one endpoint sweep, and
# _MAX_REPAIR the rounds of the bracket repair before the count bisection.
_RTOL = 1e-12
_MAX_NEWTON = 32
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


def _spectrum_floor(a, b, prob=None):
    """A lam below the whole spectrum under (a, b): -m**2, or with ``prob``
    min V - m**2 - 1.

    With m = max(1, 1 - min(a, b)) nothing of the zero problem lies below
    -m**2 (see ``_exact_ladder``), and V shifts the spectrum by no less than
    its minimum; the 1 leaves room for the integrator error.
    """
    floor = -max(1.0, 1.0 - min(a, b)) ** 2
    if prob is None:
        return floor
    co = prob._coefficients()
    return min(float(co.V.min()), float(co.samples.min())) + floor - 1.0


def _solve_levels(prob, a, b, N):
    """Count brackets [lo, hi] holding exactly the eigenvalue of each slot.

    Slot k (from 0) ends with k eigenvalues below lo and k + 1 below hi.  A
    lower bracket that counts too many moves to ``_spectrum_floor`` at once,
    and the count bisection takes it up from there.  The first count sweep
    takes the N + 1 bracket points.  ``_level`` takes these brackets only
    where its start brackets cannot prove the labels.
    """
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
    clo, chi = counts[:N].copy(), counts[1:N + 1].copy()

    gaps = np.maximum(targets[1:] - targets[:-1], 1.0)
    for _ in range(_MAX_REPAIR):
        bad_lo = clo > slots
        bad_hi = chi < slots + 1
        if not bad_lo.any() and not bad_hi.any():
            break
        if bad_lo.any():
            lo[bad_lo] = _spectrum_floor(a, b, prob)
            clo[bad_lo] = _count_below(prob, lo[bad_lo], a, b)
        if bad_hi.any():
            hi[bad_hi] += gaps[bad_hi]
            chi[bad_hi] = _count_below(prob, hi[bad_hi], a, b)
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
            raise BracketError("count bisection failed to separate two "
                               "eigenvalues closer than rounding can split")
        cm = _count_below(prob, mid, a, b)
        take_lo = cm <= slots[wide]
        idx = np.flatnonzero(wide)
        lo[idx[take_lo]] = mid[take_lo]
        clo[idx[take_lo]] = cm[take_lo]
        hi[idx[~take_lo]] = mid[~take_lo]
        chi[idx[~take_lo]] = cm[~take_lo]
    return lo, hi


def _newton_polish(value, lam, lo, hi, log_dw):
    """Newton on a characteristic function, each root kept in its bracket.

    ``value(x)`` returns the characteristic values at x, the log of their
    common scale (w e**scale is the true value) and a companion g.  ``lo``
    and ``hi`` bracket one root each, slot k first; any start inside its
    bracket is safe, and one near the root saves rounds.  The
    characteristic value is positive below the spectrum and changes sign
    at each simple eigenvalue, so in slot k it has the sign (-1)**k below
    the root and its slope there the sign (-1)**(k + 1); each evaluation
    shrinks the bracket by the sign of w, and a step that would leave the
    bracket takes its midpoint.  So does the second of two slow steps in
    a row, each longer than half the root's step before it, after the
    safeguard of rtsafe (Press et al., Numerical Recipes, sec. 9.4): a
    start far from the root would otherwise crawl to it in steps that
    shrink too slowly.  One slow step is taken, because the steps near a
    deep state shrink by less than half for a round or two before they
    turn fast.  A step after a midpoint has no step before it to compare
    with.  A root stops once its step is within the tolerance, taken or
    not, at the step's end clipped to the bracket: a bracket can collapse
    to one ulp while the step is still finite.  It also stops where w is
    exactly 0 or no float lies inside its bracket: near two states that
    rounding cannot split w is rounding noise.

    Every round is one call of ``value`` on the live roots, an endpoint
    sweep for a problem.  ``log_dw`` predicts log|dw| at each root: round
    1 steps by that slope, with the sign of the slot, formed in logs so
    that a deep state cannot overflow; a root whose prediction is not
    finite takes the bracket midpoint.  Every later slope is the secant
    through the root's last two evaluations, both values carried to the
    newer log scale: the secant's efficiency index, 1.618 per evaluation,
    beats Newton's sqrt(2) when the derivative costs as much as the value
    (Ostrowski, Solution of Equations and Systems of Equations, 1960).  A
    secant that is not finite or has the wrong sign for its slot, as one
    across a turn of w far from the root, keeps the slope carried from
    before.  The polish returns (lam, g), g carried from each root's last
    evaluation x by the secant of g: g(x) + dg (lam - x), dg = 0 until two
    evaluations give a finite secant that is not 0.
    """
    lam = np.array(lam, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    below = (-1.0) ** np.arange(lam.size)
    live = np.arange(lam.size)
    # Each root's last evaluation: where it was, w and dw with their log
    # scale, g and dg.  A predicted slope is -below at the log scale log_dw.
    predicted = np.isfinite(log_dw)
    at = np.full(lam.size, np.nan)
    w, g, dg = np.zeros((3, lam.size))
    dw = np.where(predicted, -below, np.nan)
    scale = np.where(predicted, log_dw, 0.0)
    # Each root's last step, inf where it has none to compare with, and
    # whether that step was slow: longer than half the one before it.
    last = np.full(lam.size, np.inf)
    slow = np.zeros(lam.size, dtype=bool)
    for _ in range(_MAX_NEWTON):
        x = lam[live]
        w_x, scale_x, g_x = value(x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            carried = np.exp(scale[live] - scale_x)
            dx = x - at[live]
            dw_x = (w_x - w[live] * carried) / dx
            dg_x = (g_x - g[live]) / dx
            dw[live] = np.where(np.isfinite(dw_x) & (dw_x * below[live] < 0.0),
                                dw_x, dw[live] * carried)
            dg[live] = np.where(np.isfinite(dg_x) & (dg_x != 0.0), dg_x,
                                dg[live])
        at[live], w[live], scale[live], g[live] = x, w_x, scale_x, g_x
        side = np.sign(w_x) * below[live]
        low = np.where(side > 0, x, lo[live])
        high = np.where(side < 0, x, hi[live])
        lo[live], hi[live] = low, high
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(w_x == 0.0, 0.0, w_x / dw[live])
        trial = x - step
        done = (np.abs(step) <= _RTOL * np.maximum(1.0, np.abs(x))) | (
            np.nextafter(low, high) >= high)
        slow_step = np.abs(step) > 0.5 * last[live]
        newton = (trial > low) & (trial < high) & ~(slow_step & slow[live])
        lam[live] = np.where(newton | done, np.clip(trial, low, high),
                             0.5 * (low + high))
        last[live] = np.where(newton, np.abs(step), np.inf)
        slow[live] = newton & slow_step
        live = live[~done]
        if live.size == 0:
            return lam, g + dg * (lam - at)
    raise BracketError(
        f"Newton polish left {live.size} roots unconverged after "
        f"{_MAX_NEWTON} rounds")


def _problem_value(prob, a, b):
    """The problem's characteristic function as ``_newton_polish`` reads it.

    One endpoint sweep gives w, its log scale and the companion nu of
    ``_endpoint_quantities``: nu = log|num| + log scale with num the read
    of b at x = 1.  A read rounded to 0 has nu = -inf, and ``_norming``
    reads it backward.
    """
    read = _end(b).read

    def value(x):
        w, _, scale, res = _endpoint_w(prob, x, a, b, False)
        with np.errstate(divide="ignore"):
            return w, scale, np.log(np.abs(_pair(read, res["y"], res["v"]))) \
                + scale

    return value


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
    the shot of the right data grows more (``_reads_backward``, the test
    of ``_norming``), that shot read backward: a state that decays away
    from x = 0 leaves the forward shot with the rounding of the growing
    solution.  The second is also unchanged under z_n -> z_n + c y_n, so
    any second solution will do: a state below lam = -1 read forward grows
    toward x = 1, as the z_n from x = 0 does, and their integrals would
    cancel at e**(2|b|) scale, so it takes the z_n from x = 1 with a zero
    read there, and W = -read(y_n).  With ``norming`` the forward shots y_n
    and z_n are the two halves of one trace sweep of 2N columns, and the
    deep states' shots from x = 1 one reflected trace sweep.  Returns
    (d lam, d nu) of shape (N, J); d nu is None without ``norming``.
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
        K = deep.size
        (g0, h0), (r0, r1) = right.data, right.read
        # The reflected sweep shoots from the right data and, with
        # ``norming``, the second solution of every deep state from
        # x = 1 with a zero read there: (z, z')(1) = (r1, -r0).
        if norming:
            G, dG = _traces(co.reflected(), np.concatenate([lam[deep]] * 2),
                            np.repeat([g0, r1], K), np.repeat([h0, r0], K))
        else:
            G, dG = _traces(co.reflected(), lam[deep], g0, h0)
        read = _pair(right.read, Y[-1, deep], W[-1, deep])
        with np.errstate(divide="ignore"):
            back = _reads_backward(lam[deep], np.log(np.abs(read)), -np.log(
                np.abs(_pair(left.read, G[-1, :K], dG[-1, :K]))))
        Y[:, deep[back]] = G[::-1, :K][:, back]
        # g(s) = y(1 - s), so y'(0) = -g'(1).
        wronskian[deep[back]] = G[-1, :K][back] * w0 + dG[-1, :K][back] * z0
        if norming:
            # A state read forward grows toward x = 1, and so does the
            # shot z from x = 0: their integrals would cancel at that
            # scale.  The z from x = 1 decays toward it, and at x = 1
            # W = y z' - y' z = -read(y).
            ahead = deep[~back]
            Z[:, ahead] = G[::-1, K:][:, ~back]
            wronskian[ahead] = -read[~back]
    Yw = weights * Y
    dlam = (directions @ (Yw * Y)) / np.sum(Yw * Y, axis=0)
    if not norming:
        return dlam.T, None
    ZYw = Z * Yw
    dnu = (dlam * np.sum(ZYw, axis=0) - directions @ ZYw) / wronskian
    return dlam.T, dnu.T


def _zero_pairing(lam, left, right):
    """l . T (y0, v0) over the exact transfer T of the zero problem, and its
    lam-derivative: left = (y0, v0), right = l.

    T = C I + S A with A = [[0, 1], [-lam, 0]] and C, S of
    ``ode._cosh_sinc`` at u = -lam: cos sqrt(lam) and sin sqrt(lam) /
    sqrt(lam).  Below lam = -1, where C and S grow like e**v, v =
    sqrt(-lam), and Robin combinations cancel them, it is summed by branch:
    T has the eigenvectors (1, +-v) of A, with eigenvalues e**(+-v), so
    l . T (y0, v0) = sum of e**(+-v) (v y0 +- v0) (l_y +- v l_v) / (2v).
    Both forms are analytic in lam, so the pairing is taken at the point
    lam + ih of ``ode._complex_step``, as a derivative sweep takes its
    shot: the real part is the value and the imaginary part h times the
    slope, both to rounding.
    """
    lam = np.asarray(lam, dtype=float)
    z, h = _complex_step(lam)
    (y0, v0), (ly, lv) = left, right
    C, S = _cosh_sinc(-z)
    value = C * (ly * y0 + lv * v0) + S * (ly * v0 - z * lv * y0)
    deep = lam < -1.0
    if deep.any():
        v = np.sqrt(-np.where(deep, z, -1.0))
        value = np.where(deep, sum(
            np.exp(sign * v) * (v * y0 + sign * v0) * (ly + sign * v * lv)
            for sign in (1.0, -1.0)) / (2.0 * v), value)
    return value.real, value.imag / h


@lru_cache(maxsize=64)
def _exact_ladder(a, b, N):
    """Eigenvalues and log|dw| of p = 0 under (a, b), by slot.

    Both rows come from the closed-form characteristic function w and its
    complex-step slope dw (``_zero_pairing``).  A Dirichlet pair's
    eigenvalues are (k pi)**2.  Robin ends take a bracketed Newton on w, by
    the rounds of ``_newton_polish`` with first slopes from dw at the
    starts.  With a Dirichlet left end, slot k >= 1 lies in
    ((k pi)**2, ((k + 1) pi)**2), since w cot w = -b has one root in each
    of those w-intervals.  A Robin left
    end interlaces with that ladder: slot k lies between its slots k - 1
    and k, and so in (((k - 1) pi)**2, ((k + 1) pi)**2).  When ab < t_0,
    the points t_k = ((k + 1/2) pi)**2 separate the slots as well: there
    the characteristic function is (ab - t_k) (-1)**k / sqrt(t_k), whose
    sign places t_k between slots k and k + 1, and no ladder is solved for
    them.
    Below ``_spectrum_floor``, -m**2 with m = max(1, 1 - min(a, b)),
    nothing lies: at lam = -v**2, 2 v w(lam) = e**v (v + a) (v + b)
    - e**-v (v - a) (v - b) for Robin ends and e**v (v + b) + e**-v (v - b)
    for a Dirichlet left end, positive for v >= m.  An end with a or b below -1 holds a state near -a**2 or
    -b**2, where the lowest slots start; the others start from the
    first-order ladder (``boundary_shift``) clipped to their brackets.  Two
    such states whose closed-form starts are the same float (a = b below
    about -37) raise ``BracketError``: no polish splits them.  The ladder
    depends on (a, b, N) alone, so it is solved once per process and its
    arrays are read-only.
    """
    regime = regime_of(a, b)
    data, closing = _end(a).data, _end(b).closing

    def log_dw(x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(_zero_pairing(x, data, closing)[1]))

    if regime == "dirichlet":
        lam = unperturbed_eigenvalues(regime, N)
        return _read_only(lam, log_dw(lam))
    if regime == "mixed":
        edges = (math.pi * np.arange(N + 1)) ** 2
    else:
        edges = np.empty(N + 1)
        edges[1:] = ((np.arange(N) + 0.5) * math.pi) ** 2
        if a * b >= edges[1]:
            edges[1:] = _exact_ladder(math.inf, b, N)[0]
    edges[0] = _spectrum_floor(a, b)
    lo, hi = edges[:-1], edges[1:]
    start = unperturbed_eigenvalues(regime, N) + boundary_shift(regime, a, b)
    deep = [-c * c for c in (a, b) if c < -1.0]
    if len(deep) == 2:
        # At lam = -v**2 both solve (v + a)(v + b) = e**(-2v) (v - a)(v - b),
        # a quadratic in v + a with the right side at the mean of -a and -b.
        v = -0.5 * (a + b)
        split = math.hypot(b - a, 2.0 * math.exp(-v) * math.sqrt(
            (v - a) * (v - b)))
        deep = [-(0.5 * (s * split - a - b)) ** 2 for s in (-1.0, 1.0)]
    deep = sorted(deep)[:N]
    if len(deep) == 2 and deep[0] == deep[1]:
        raise BracketError(f"at (a, b) = ({a:g}, {b:g}) the zero problem's two "
                           "boundary states lie closer than rounding can split")
    start[:len(deep)] = deep
    start = np.clip(start, lo, hi)
    lam, _ = _newton_polish(
        lambda x: (_zero_pairing(x, data, closing)[0], *np.zeros((2, x.size))),
        start, lo, hi, log_dw(start))
    return _read_only(lam, log_dw(lam))


def _reads_backward(lam, forward, backward):
    """The states read from the right end: below lam = -1 where
    backward + forward < 0, the shot from the right data growing more.

    ``forward`` is log|read of b| at x = 1 of the shot from the left data,
    ``backward`` -log|read of a| at x = 0 of that from the right data.
    """
    return (lam < -1.0) & (backward + forward < 0.0)


def _norming(prob, lam, a, b, forward):
    """Norming constants at the discrete eigenvalues lam, each read from
    the end its state grows toward.

    ``forward`` holds the reads of the shots from the left data.  A state
    that decays away from x = 0, as that near -a**2 of a Robin end a << -1,
    leaves y(1) after terms of size e**|a| cancel, with the rounding of the
    growing solution.  Below lam = -1, one endpoint sweep of the reflected
    coefficients from the right data gives the backward read -log|z(0)|
    (z'(0) at a Dirichlet a), taken where that shot grows more
    (``_reads_backward``).  The two reads agree because the shots keep the
    Wronskian: every Magnus cell has determinant 1.
    """
    nu = np.array(forward, dtype=float)
    deep = lam < -1.0
    if deep.any():
        res = _sweep(prob._coefficients().reflected(), lam[deep],
                     *_end(b).data)
        with np.errstate(divide="ignore"):
            back = -np.log(np.abs(_pair(_end(a).read, res["y"], res["v"]))) \
                - res["logscale"]
        nu[deep] = np.where(_reads_backward(lam[deep], nu[deep], back), back,
                            nu[deep])
    return nu


def _level(prob, a, b, N, starts, log_dw, guess=None):
    """Eigenvalues of the problem grid and their forward norming reads, by
    slot.

    ``starts`` holds N + 1 starts s of the level; ``guess``, N predicted
    eigenvalues of the level, takes the place of the first N where it is
    finite and increasing below s_N.  Slot k is bracketed halfway to its
    neighbours' starts, slot 0 from ``_spectrum_floor`` and the last slot
    up to t = (s_{N-1} + s_N) / 2.  One count sweep of the single column t
    proves the labels: with N eigenvalues below t, N roots strictly inside
    those disjoint brackets are every eigenvalue below t, in order.  A
    count other than N, a root on its bracket's edge or a ``BracketError``
    sends the ladder to the count brackets of ``_solve_levels``.  Either
    way each slot starts from the first of the guess, the starts and the
    bracket midpoint inside its bracket, so a start cannot change a label,
    and ``log_dw`` predicts its first slope (``_newton_polish``).  Every
    sweep is a count or an endpoint sweep, none a derivative sweep.
    Newton's last sweep at each root gives its forward norming read,
    carried to the root by the secant of nu, which ``_norming`` completes.
    """
    value = _problem_value(prob, a, b)
    # Later rows take precedence where they lie inside the bracket.
    rows, s = [starts[:N]], starts
    if guess is not None:
        rows.append(guess)
        guessed = np.append(guess, starts[N])
        if np.all(np.isfinite(guessed)) and np.all(np.diff(guessed) > 0.0):
            s = guessed

    def polish(lo, hi):
        start = 0.5 * (lo + hi)
        for row in rows:
            start = np.where((row > lo) & (row < hi), row, start)
        return _newton_polish(value, start, lo, hi, log_dw)

    hi = 0.5 * (s[:-1] + s[1:])
    lo = np.concatenate([[_spectrum_floor(a, b, prob)], hi[:-1]])
    lam = None
    if _count_below(prob, hi[-1:], a, b)[0] == N:
        try:
            lam, forward = polish(lo, hi)
        except BracketError:
            pass
    if lam is None or not np.all((lam > lo) & (lam < hi)):
        lam, forward = polish(*_solve_levels(prob, a, b, N))
    return lam, forward


def _pipeline(prob, a, b, N, *, _guess=None):
    """Eigenvalues and norming constants by slot, from one grid level.

    ``_level`` starts from the eigenvalues of the zero problem's ladder
    (``_exact_ladder``) shifted by c0, the mean of V, since lam_k = lam0_k
    + int V + l2 (Poeschel & Trubowitz, Inverse Spectral Theory, 1987),
    and from ``_guess``, a prediction of the eigenvalues; each slot
    predicts its first slope by the ladder's other row, the zero problem's
    log|dw| at the same slot, and a slot without a finite prediction
    starts at its bracket midpoint.
    Eigenvalues that do not increase belong to two states that rounding
    cannot split, and raise ``BracketError``.  N < 1 raises ``ValueError``.
    """
    if N < 1:
        raise ValueError("need at least one eigenvalue")
    exact, log_dw = _exact_ladder(a, b, N + 1)
    lam, forward = _level(prob, a, b, N, exact + prob.c0, log_dw[:N], _guess)
    if not np.all(np.diff(lam) > 0.0):
        raise BracketError(
            "two eigenvalues lie closer than rounding can split")
    return lam, _norming(prob, lam, a, b, forward)


def compute_eigenvalues(prob, a: float, b: float, N: int) -> np.ndarray:
    """First N eigenvalues of the problem under the boundary pair (a, b)."""
    return _pipeline(prob, a, b, N)[0]


def solve_spectrum(prob, a: float, b: float, N: int, *,
                   _guess=None) -> SpectralData:
    """Eigenvalues plus norming constants, packaged with their remainders.

    One grid level (``_pipeline``), for every boundary pair and every N:
    the slots are bracketed around their
    starts and one count above the ladder proves their labels; the ladder
    is counted in full only where that cannot.  The private ``_guess``
    reaches ``_pipeline``: a predicted ladder for the brackets and the
    Newton starts.
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

    One endpoint sweep at them reads both (``_endpoint_quantities``), and
    ``_norming`` reads nu from the end each state grows toward.  Without
    ``deriv`` endpoint sweeps give (nu,) alone.
    """
    lam = np.asarray(data.eigenvalues[:M], dtype=float)
    nu, *rest = _endpoint_quantities(prob, lam, data.a, data.b, deriv)
    rows = (_norming(prob, lam, data.a, data.b, nu), *rest)
    _require_finite(*rows)
    return rows


def norming_constants(prob, data: SpectralData) -> np.ndarray:
    """Norming constants at the eigenvalues stored in ``data``.

    Dirichlet pairs use the endpoint slope ratio; the other regimes use the
    endpoint value ratio, read from the normal form of either picture (for
    an impedance problem, those of f times rho(1)), so the constants agree
    across the two pictures.  They are read at the stored eigenvalues by
    ``_stored_quantities``.
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

    Multiplies the characteristic function of the zero problem under the
    data's own pair, shifted by c0, by M factors (lam - lam_k)/(lam - mu_k),
    mu_k that problem's eigenvalues: ``_exact_ladder`` plus c0.  Each
    factor past M is 1 - (lam_k - mu_k) / (lam - mu_k), 1 + O(k**-4) for a
    smooth potential, so the error falls like M**-3.
    Evaluation too close to either sequence raises.  A pair whose zero
    problem holds two states that rounding cannot split (a = b below about
    -37) raises ``BracketError``.
    """
    if M < 1 or M > data.N:
        raise ValueError(f"ladder length M={M} outside 1..{data.N}")
    a, b, lam = data.a, data.b, float(lam)
    ref = _exact_ladder(a, b, M)[0] + data.c0
    eigs = data.eigenvalues[:M]
    tol = 1e-9
    for pole in np.concatenate([ref, eigs]):
        if abs(lam - pole) < tol * max(1.0, abs(lam), abs(pole)):
            raise PoleCollisionError(f"lam={lam} collides with {pole}")
    front, _ = _zero_pairing(lam - data.c0, _end(a).data, _end(b).closing)
    return float(front) * float(np.prod((lam - eigs) / (lam - ref)))


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
