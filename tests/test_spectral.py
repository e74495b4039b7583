"""Spectra, norming constants, product formula, trace identities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liouville import (INF, BracketError, ConditionU, FitTarget, GridFunction,
                       Impedance, ImpedanceProblem, PoleCollisionError,
                       Potential,
                       SchrodingerProblem, SequenceData, boundary_shift,
                       characterize, compute_c0, compute_eigenvalues,
                       extract_remainders, forward_transform,
                       hadamard_wronskian, identity_ab, identity_b,
                       normalizing_constants, norming_constants, regime_of,
                       oscillation_count, shoot_backward, solve_spectrum,
                       unperturbed_eigenvalues, unperturbed_norming,
                       wronskian)
from liouville import ode, spectral
from liouville.spectral import _potential_gradients
from oracles import bisect_level, cell_power_transfer, damped_spectrum, \
    dirichlet_exact, mixed_exact, oracle_eigenvalues, richardson_spectrum, \
    scalar_carry_sweep, sin2pi_potential, spline_midpoints, spline_resample, \
    two_level_normalizing, two_level_ratios

N_GRID = 2048
FREE = SchrodingerProblem(Potential(GridFunction.zeros(N_GRID)))
SIN2PI_PROB = SchrodingerProblem(Potential.from_callable(sin2pi_potential,
                                                         N_GRID))


def q_two_mode(n=N_GRID):
    return Impedance(GridFunction.from_callable(
        lambda x: 0.4 * np.sin(2 * np.pi * x) - 0.2 * np.sin(4 * np.pi * x),
        n))


class TestReferenceLadders:
    def test_regime_classification(self):
        assert regime_of(INF, INF) == "dirichlet"
        assert regime_of(INF, 0.7) == "mixed"
        assert regime_of(1.0, -0.5) == "generic"
        with pytest.raises(ValueError):
            regime_of(0.7, INF)

    @pytest.mark.parametrize("bad", [-INF, math.nan])
    def test_minus_infinity_and_nan_ends_refused(self, bad):
        # Only +inf encodes a Dirichlet end; -inf and NaN encode no end, and
        # every reader of an end refuses them before any sweep.
        zero = SchrodingerProblem(Potential(GridFunction.zeros(256)))
        mixed = solve_spectrum(zero, INF, 1.0, 3)
        calls = [lambda: oscillation_count(zero, 1.0, bad),
                 lambda: shoot_backward(zero, 1.0, bad)]
        for a, b in ((bad, 1.0), (INF, bad)):
            stored = dataclasses.replace(mixed, a=a, b=b)
            calls += [lambda a=a, b=b: regime_of(a, b),
                      lambda a=a, b=b: solve_spectrum(zero, a, b, 3),
                      lambda s=stored: norming_constants(zero, s),
                      lambda s=stored: identity_b(zero, s, 3),
                      lambda s=stored: FitTarget.from_spectral_data(s),
                      lambda a=a, b=b: wronskian(zero, 1.0, a, b),
                      lambda a=a, b=b: ode._count_below(zero, [1.0], a, b)]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_closed_form_ladders(self):
        assert np.allclose(unperturbed_eigenvalues("dirichlet", 4),
                           (math.pi * np.arange(1, 5)) ** 2)
        assert np.allclose(unperturbed_eigenvalues("mixed", 3),
                           (math.pi * (np.arange(3) + 0.5)) ** 2)
        assert np.allclose(unperturbed_eigenvalues("generic", 3),
                           (math.pi * np.arange(3)) ** 2)
        assert np.all(unperturbed_norming("dirichlet", 5) == 0.0)
        assert np.allclose(unperturbed_norming("mixed", 3),
                           -np.log(math.pi * (np.arange(3) + 0.5)))

    def test_boundary_shift(self):
        assert boundary_shift("dirichlet", INF, INF) == 0.0
        assert boundary_shift("mixed", INF, 0.7) == pytest.approx(1.4)
        assert boundary_shift("generic", 1.0, -0.5) == pytest.approx(1.0)


class TestFreeSpectra:
    def test_dirichlet_eigenvalues(self):
        lam = compute_eigenvalues(FREE, INF, INF, 20)
        exact = dirichlet_exact(20)
        assert np.max(np.abs(lam - exact) / exact) < 1e-11

    def test_mixed_eigenvalues_and_norming(self):
        data = solve_spectrum(FREE, INF, 0.0, 16)
        exact = mixed_exact(16)
        assert np.max(np.abs(data.eigenvalues - exact) / exact) < 1e-11
        assert np.max(np.abs(data.norming_deviation.entries)) < 1e-8

    def test_generic_eigenvalues_and_norming(self):
        data = solve_spectrum(FREE, 0.0, 0.0, 12)
        exact = (math.pi * np.arange(12)) ** 2
        assert np.max(np.abs(data.eigenvalues - exact)
                      / (1.0 + exact)) < 1e-8
        # Neumann eigenfunctions cos(pi n x) give norming log y(1)/y(0).
        expected = np.where(np.arange(12) % 2 == 0, 0.0, 0.0)
        assert np.max(np.abs(np.abs(data.norming) - expected)) < 1e-8

    def test_dirichlet_normalizing_closed_form(self):
        data = solve_spectrum(FREE, INF, INF, 12)
        alpha = normalizing_constants(FREE, data)
        n = np.arange(1, 13, dtype=float)
        exact = 1.0 / (2.0 * (math.pi * n) ** 2)
        assert np.max(np.abs(alpha - exact) / exact) < 1e-8

    def test_normalizing_requires_dirichlet(self):
        data = solve_spectrum(FREE, INF, 0.5, 4)
        with pytest.raises(ValueError):
            normalizing_constants(FREE, data)

    def test_need_at_least_one(self):
        with pytest.raises(ValueError):
            compute_eigenvalues(FREE, INF, INF, 0)


class TestOracleComparison:
    def test_dirichlet_against_finite_differences(self):
        lam = compute_eigenvalues(SIN2PI_PROB, INF, INF, 10)
        ref = oracle_eigenvalues(sin2pi_potential, 10)
        assert np.max(np.abs(lam - ref) / np.abs(ref)) < 1e-7

    def test_mixed_against_finite_differences(self):
        lam = compute_eigenvalues(SIN2PI_PROB, INF, 1.0, 10)
        ref = oracle_eigenvalues(sin2pi_potential, 10, b=1.0)
        assert np.max(np.abs(lam - ref) / np.abs(ref)) < 1e-7

    def test_generic_against_finite_differences(self):
        lam = solve_spectrum(SIN2PI_PROB, 1.0, -0.5, 12).eigenvalues
        ref = oracle_eigenvalues(sin2pi_potential, 12, b=-0.5, a=1.0)
        assert np.max(np.abs(lam - ref) / np.abs(ref)) < 1e-6

    def test_newton_residual_at_roots(self):
        for a, b in [(INF, INF), (INF, 1.0), (1.0, -0.5)]:
            lam = compute_eigenvalues(SIN2PI_PROB, a, b, 8)
            for ev in lam:
                w, dw = wronskian(SIN2PI_PROB, ev, a=a, b=b, deriv=True)
                assert abs(w / dw) < 1e-8 * (1.0 + abs(ev))


class TestSolverOptions:
    def test_extrapolation_sharpens(self):
        # Two deep Robin ends take one level plus the zero-potential
        # correction like every pair, which removes the leading integrator
        # error as the two-level extrapolation did; the reference is a
        # two-level solve on eight times the cells, and the plain level is
        # the problem grid's, found by the old root finder.
        def prob(n):
            return SchrodingerProblem(Potential.from_callable(
                lambda x: 0.3 * sin2pi_potential(x), n))

        ref, _ = richardson_spectrum(prob(4096), -12.0, -12.0, 10)
        plain, _ = bisect_level(prob(512), -12.0, -12.0, 10)
        lam = compute_eigenvalues(prob(512), -12.0, -12.0, 10)
        e_plain = np.max(np.abs(plain - ref))
        e_rich = np.max(np.abs(lam - ref))
        assert e_rich < e_plain / 50.0

    def test_deterministic_across_instances(self):
        d1 = solve_spectrum(SchrodingerProblem(
            Potential.from_callable(sin2pi_potential, N_GRID)), INF, 1.0, 8)
        d2 = solve_spectrum(SchrodingerProblem(
            Potential.from_callable(sin2pi_potential, N_GRID)), INF, 1.0, 8)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.norming, d2.norming)


class TestRemainders:
    def test_free_remainders_vanish(self):
        data = solve_spectrum(FREE, INF, INF, 16)
        assert np.max(np.abs(data.remainders.entries)) < 1e-8
        assert np.max(np.abs(data.norming_deviation.entries)) < 1e-8

    def test_shift_is_removed(self):
        prob = ImpedanceProblem(q_two_mode(),
                                ConditionU.exponential(0.5, 1.0))
        data = solve_spectrum(prob, INF, 1.0, 12)
        rem, dev = extract_remainders(data)
        assert np.array_equal(rem.entries, data.remainders.entries)
        # The c0 + boundary shift must have been subtracted: remainders stay
        # bounded while the raw eigenvalue offsets grow with the shift.
        raw = data.eigenvalues - unperturbed_eigenvalues("mixed", 12)
        assert np.max(np.abs(rem.entries)) < 2.0
        assert abs(np.mean(raw) - (data.c0 + 2.0)) < 2.0

    def test_remainders_shrink_along_ladder(self):
        data = solve_spectrum(SIN2PI_PROB, INF, INF, 20)
        head = np.abs(data.remainders.entries[:5]).max()
        tail = np.abs(data.remainders.entries[-5:]).max()
        assert tail < head


class TestEquivalence:
    """Spectra against the damped impedance equation (``damped_spectrum``)."""

    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 0.5), (0.3, -0.2)])
    def test_pictures_agree(self, a, b):
        q, cfg = q_two_mode(), ConditionU.exponential(0.5, 1.0)
        data = solve_spectrum(ImpedanceProblem(q, cfg), a, b, 10)
        lam, norming = damped_spectrum(q, cfg, a, b, data.eigenvalues)
        assert np.max(np.abs(data.eigenvalues - lam) / np.abs(lam)) < 1e-10
        assert np.max(np.abs(data.norming - norming)) < 1e-10

    def test_shift_matches_c0(self):
        # The normal form of P(q) holds the impedance spectrum less c0.
        q, cfg = q_two_mode(), ConditionU.zero()
        data = solve_spectrum(SchrodingerProblem(forward_transform(q, cfg)),
                              INF, INF, 6)
        c0 = compute_c0(q, cfg)
        lam, _ = damped_spectrum(q, cfg, INF, INF, data.eigenvalues + c0)
        assert np.max(np.abs(data.eigenvalues + c0 - lam)) < 1e-9 * (
            1.0 + np.abs(lam).max())


class TestHadamardProduct:
    def build(self, M=64):
        prob = SchrodingerProblem(Potential.from_callable(
            lambda x: 0.3 * sin2pi_potential(x), N_GRID))
        return prob, solve_spectrum(prob, INF, 0.2, M)

    def test_truncations_converge(self):
        prob, data = self.build()
        for lam in (-5.0, 3.3, 57.0):
            direct = wronskian(prob, lam, b=0.2)
            errs = [abs(hadamard_wronskian(data, lam, M) - direct)
                    for M in (8, 16, 32, 64)]
            assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
            assert errs[-1] < 1e-3 * max(1.0, abs(direct))

    def test_impedance_product(self):
        prob = ImpedanceProblem(q_two_mode())
        data = solve_spectrum(prob, INF, INF, 64)
        lam = -5.0
        direct = wronskian(prob, lam)
        approx = hadamard_wronskian(data, lam, 64)
        assert abs(approx - direct) / abs(direct) < 1e-3

    def test_pole_collision_raises(self):
        prob, data = self.build(8)
        with pytest.raises(PoleCollisionError):
            hadamard_wronskian(data, float(data.eigenvalues[2]), 8)
        with pytest.raises(PoleCollisionError):
            hadamard_wronskian(data, float((math.pi * 1.5) ** 2), 8)

    def test_ladder_bounds_checked(self):
        prob, data = self.build(8)
        with pytest.raises(ValueError):
            hadamard_wronskian(data, -5.0, 0)
        with pytest.raises(ValueError):
            hadamard_wronskian(data, -5.0, 9)


class TestTraceIdentities:
    def test_free_neumann_sums_vanish(self):
        free = SchrodingerProblem(Potential(GridFunction.zeros(8192)))
        data = solve_spectrum(free, INF, 0.0, 64)
        sums = identity_b(free, data, 64)
        assert np.max(np.abs(sums)) < 1e-10

    def test_sums_approach_boundary_parameter(self):
        for prob in (FREE,
                     SchrodingerProblem(Potential.from_callable(
                         lambda x: 0.3 * sin2pi_potential(x), N_GRID))):
            data = solve_spectrum(prob, INF, 1.0, 64)
            sums = identity_b(prob, data, 64)
            errs = [abs(sums[M - 1] - 1.0) for M in (8, 16, 32, 64)]
            assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
            assert errs[-1] < 0.05

    def test_pair_recovers_both_parameters(self):
        prob = SchrodingerProblem(Potential.from_callable(
            lambda x: 0.3 * sin2pi_potential(x), N_GRID))
        data = solve_spectrum(prob, 1.0, -0.5, 64)
        s_b, s_a = identity_ab(prob, data, 64)
        assert abs(s_b[-1] - (-0.5)) < 0.05
        assert abs(s_a[-1] - 1.0) < 0.05

    def test_regime_guards(self):
        data = solve_spectrum(FREE, INF, INF, 4)
        with pytest.raises(ValueError):
            identity_b(FREE, data, 4)
        with pytest.raises(ValueError):
            identity_ab(FREE, data, 4)
        mixed = solve_spectrum(FREE, INF, 1.0, 4)
        generic = solve_spectrum(FREE, 1.0, -0.5, 4)
        for M in (8, 0, -1):
            with pytest.raises(ValueError):
                identity_b(FREE, mixed, M)
            with pytest.raises(ValueError):
                identity_ab(FREE, generic, M)


class TestCharacterize:
    def build(self, N=32):
        return solve_spectrum(SIN2PI_PROB, INF, INF, N)

    def test_forward_data_is_admissible(self):
        data = self.build()
        alpha = normalizing_constants(SIN2PI_PROB, data)
        report = characterize(data, normalizing=alpha)
        assert report.passed
        assert report.ordering_ok
        assert report.alpha_tail_ok is not None

    def test_swap_breaks_ordering(self):
        data = self.build()
        lam = data.eigenvalues.copy()
        lam[[3, 4]] = lam[[4, 3]]
        bad = dataclasses.replace(data, eigenvalues=lam)
        assert not characterize(bad).ordering_ok
        assert not characterize(bad).passed

    def test_slow_tail_is_flagged(self):
        data = self.build()
        n = np.arange(1, data.N + 1, dtype=float)
        fat = data.remainders.entries + n ** (-0.4)
        bad = dataclasses.replace(data, remainders=SequenceData(fat))
        report = characterize(bad)
        assert not report.remainder_tail_ok
        assert report.remainder_growth > 0.1

    def test_inflated_normalizing_is_flagged(self):
        data = self.build()
        alpha = normalizing_constants(SIN2PI_PROB, data)
        inflated = alpha * (1.0 + 0.5 / np.sqrt(np.arange(1, alpha.size + 1)))
        report = characterize(data, normalizing=inflated)
        assert report.alpha_tail_ok is False
        assert not report.passed


class TestPotentialGradients:
    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (-0.7, 2.0)])
    def test_constant_shift_moves_only_eigenvalues(self, a, b):
        # p + t moves every eigenvalue by t and leaves every eigenfunction,
        # hence every norming constant, where it was.
        data = solve_spectrum(SIN2PI_PROB, a, b, 5)
        ones = np.ones((1, N_GRID + 1))
        dlam, dnu = _potential_gradients(SIN2PI_PROB, data.eigenvalues, a, b,
                                         ones)
        assert np.max(np.abs(dlam - 1.0)) < 1e-10
        assert np.max(np.abs(dnu)) < 1e-10

    @pytest.mark.parametrize("cfg", ["zero", "exp"])
    @pytest.mark.parametrize("a", [INF, 1.0, -0.7])
    def test_one_trace_sweep_for_both_shots(self, monkeypatch, cfg, a):
        # The eigenfunctions y and the second solutions z are the two halves
        # of one 2N-column sweep with per-column initial data; each half
        # matches its own sweep.
        prob = six_mode_problem(cfg, N_GRID)
        lam = solve_spectrum(prob, a, 1.0, 6).eigenvalues
        y0, v0 = ode._end(a).data
        z0, w0 = (1.0, 0.0) if math.isinf(a) else (0.0, 1.0)
        co = prob._coefficients()
        Y = spectral._traces(co, lam, y0, v0)[0]
        Z = spectral._traces(co, lam, z0, w0)[0]
        YZ = spectral._traces(co, np.concatenate([lam, lam]),
                              np.repeat([y0, z0], 6), np.repeat([v0, w0], 6))[0]
        for got, want in ((YZ[:, :6], Y), (YZ[:, 6:], Z)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        modes = []
        sweep = ode._sweep

        def spy(*args, **kwargs):
            modes.append(kwargs.get("trace", False))
            return sweep(*args, **kwargs)

        # Trace shots sweep through ode; deep states through spectral.
        monkeypatch.setattr(ode, "_sweep", spy)
        monkeypatch.setattr(spectral, "_sweep", spy)
        _potential_gradients(prob, lam, a, 1.0, np.ones((1, N_GRID + 1)))
        assert modes == [True]


SPECTRA_CASES = [(cfg, a, b) for cfg in ("zero", "exp")
                 for a, b in ((INF, INF), (INF, 1.0), (1.0, -0.5))]


def six_mode_problem(cfg, n):
    """Unit-norm six-mode sine slope, with u zero or exp:0.5,1.0."""
    c = np.random.default_rng(7).normal(size=6)
    c /= np.linalg.norm(c)
    x = np.linspace(0.0, 1.0, n + 1)
    q = c @ (math.sqrt(2.0) * np.sin(np.pi * np.outer(np.arange(1, 7), x)))
    cond = ConditionU.zero() if cfg == "zero" else ConditionU.exponential(0.5, 1.0)
    return ImpedanceProblem(Impedance(GridFunction(q)), cond)


def with_splines(monkeypatch, solve):
    """Run ``solve`` with the quintic-spline midpoints and resampling."""
    with monkeypatch.context() as m:
        m.setattr(ode, "_midpoints", spline_midpoints)
        m.setattr(ode, "resample", spline_resample)
        return solve()


class TestSplineOracle:
    """The local quintic interpolant against the global quintic spline."""

    @pytest.mark.parametrize("cfg,a,b", SPECTRA_CASES)
    def test_spectra_match_spline(self, monkeypatch, cfg, a, b):
        def solve():
            return solve_spectrum(six_mode_problem(cfg, N_GRID), a, b, 64)

        new = solve()
        old = with_splines(monkeypatch, solve)
        rel = np.abs(new.eigenvalues - old.eigenvalues) / np.abs(old.eigenvalues)
        # Both interpolate V = q' + q**2 + u, whose end cells take a
        # one-sided stencil; Robin ends see them, and the lowest Robin-Robin
        # eigenvalue (0.078 for zero u) moves by 1.2e-11 relative.
        assert np.max(rel) < (2e-11 if a != INF else 1e-12)
        assert np.max(np.abs(new.norming - old.norming)) < 1e-12

    @pytest.mark.parametrize("cfg,a,b", SPECTRA_CASES)
    def test_coarse_shift_below_richardson_gap(self, monkeypatch, cfg, a, b):
        # On 256 cells each eigenvalue moves by less than its own error
        # against a two-level 2048-cell solve (at most a fifth of it, on
        # Robin ends), with a floor of 1e-10 relative.
        def solve():
            return solve_spectrum(six_mode_problem(cfg, 256), a, b, 64)

        new = solve().eigenvalues
        old = with_splines(monkeypatch, solve).eigenvalues
        ref, _ = richardson_spectrum(six_mode_problem(cfg, 2048), a, b, 64)
        floor = 1e-10 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(new - old) < np.maximum(np.abs(new - ref), floor))


def in_picture(imp, picture):
    """The impedance problem itself, or the normal form of its potential."""
    if picture == "impedance":
        return imp
    return SchrodingerProblem(forward_transform(imp.q, imp.cfg))


# Deep Robin ends on either side and on both.
DEEP_CASES = [(cfg, a, b) for cfg in ("zero", "exp")
              for a, b in ((-20.0, 3.0), (1.0, -6.0), (-12.0, -12.0))]

# Boundary pairs of the root-finder checks: every regime, signs of a and b.
BOUNDARY_PAIRS = [(INF, INF), (INF, 1.0), (INF, 0.5), (1.0, -0.5),
                  (0.3, -0.2), (-0.7, 2.0)]


class TestRootFinder:
    """Bracket-safeguarded Newton against the sign-bisection solver."""

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("picture", ["impedance", "schrodinger"])
    @pytest.mark.parametrize("cfg,a,b", SPECTRA_CASES + DEEP_CASES)
    def test_matches_bisection_oracle(self, cfg, a, b, picture, n):
        # Both pictures take one level plus the zero-potential correction,
        # so the single level is compared with the oracle's: the same
        # correction is added to both.  The oracle reads nu forward; a deep
        # state's is read from the end it grows toward, at the oracle's
        # eigenvalue.  The deep pairs' chord rounds carry each reused
        # derivative across the log scales of the sweeps.
        prob = in_picture(six_mode_problem(cfg, n), picture)
        data = solve_spectrum(prob, a, b, 64)
        lam, forward = bisect_level(prob, a, b, 64)
        norming = spectral._norming(prob, lam, a, b, forward)
        dlam, dnorm, _ = spectral._zero_correction(n, a, b, 64)
        lam, norming = lam + dlam, norming + dnorm
        assert np.max(np.abs(data.eigenvalues - lam) / np.abs(lam)) < 1e-13
        assert np.max(np.abs(data.norming - norming)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           pair=st.sampled_from(BOUNDARY_PAIRS),
           picture=st.sampled_from(["impedance", "schrodinger"]),
           lam=st.lists(st.floats(-60.0, 2500.0), min_size=1, max_size=16))
    # The zero potential under (1, -0.5) has the eigenvalue 0 exactly.
    @example(coeffs=[0.0] * 6, pair=(1.0, -0.5), picture="impedance",
             lam=[0.0])
    def test_sign_follows_count_parity(self, coeffs, pair, picture, lam):
        # w > 0 below the spectrum and changes sign at each simple
        # eigenvalue, which is what lets Newton read its bracket side.  At
        # an eigenvalue itself w is 0 and the count steps by one across it.
        x = np.linspace(0.0, 1.0, 257)
        q = np.asarray(coeffs) @ (math.sqrt(2.0) * np.sin(
            np.pi * np.outer(np.arange(1, 7), x)))
        prob = in_picture(ImpedanceProblem(Impedance(GridFunction(q))), picture)
        a, b = pair
        lam = np.asarray(lam)
        w, _, _, _ = ode._endpoint_w(prob, lam, a, b, deriv=False)
        count = ode._count_below(prob, lam, a, b)
        root = w == 0.0
        assert np.array_equal(np.sign(w[~root]),
                              np.where(count[~root] % 2 == 0, 1.0, -1.0))
        if root.any():
            eig = lam[root]
            step = 1e-9 * np.maximum(1.0, np.abs(eig))
            assert np.array_equal(ode._count_below(prob, eig - step, a, b),
                                  count[root])
            assert np.array_equal(ode._count_below(prob, eig + step, a, b),
                                  count[root] + 1)

    def test_sweep_budget(self, monkeypatch):
        # One count sweep places brackets and phase-matched starts; Newton
        # then takes one full-width derivative round.  A root whose step
        # was already small takes chord rounds, each an endpoint sweep at a
        # lam within _CHORD of one that a derivative sweep evaluated, and
        # the last evaluation at each root gives its norming constant.
        prob = six_mode_problem("exp", 2048)
        sweep = ode._sweep
        polish = spectral._newton_polish
        calls, inside = [], []

        def counted(co, lam, y0, v0, **kwargs):
            mode = [m for m in ("count", "deriv", "trace") if kwargs.get(m)]
            calls.append((mode[0] if mode else "endpoint", np.array(lam),
                          bool(inside)))
            return sweep(co, lam, y0, v0, **kwargs)

        def polishing(*args):
            inside.append(True)
            try:
                return polish(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(ode, "_sweep", counted)
        monkeypatch.setattr(spectral, "_sweep", counted)
        monkeypatch.setattr(spectral, "_newton_polish", polishing)
        solve_spectrum(prob, INF, INF, 64)
        modes = [mode for mode, _, _ in calls]
        assert modes.count("count") == 1
        assert modes.count("trace") == 0
        assert sum(1 for mode, lam, _ in calls
                   if mode == "deriv" and lam.size == 64) == 1
        assert modes.count("endpoint") >= 1
        for k, (mode, lam, in_polish) in enumerate(calls):
            if mode != "endpoint":
                continue
            assert in_polish
            seen = np.concatenate([x for m, x, _ in calls[:k] if m == "deriv"])
            near = np.abs(lam[:, None] - seen) <= spectral._CHORD * np.maximum(
                1.0, np.abs(lam))[:, None]
            assert near.any(axis=1).all()

    def test_nonconverging_iteration_raises(self, monkeypatch):
        # A stationary characteristic value gives no usable Newton step, so
        # every round takes the bracket midpoint and none meets the
        # tolerance: the polish must stop at its cap and say so.
        endpoint_w = spectral._endpoint_w

        def flat(prob, lam, a, b, deriv):
            w, dw, scale, res = endpoint_w(prob, lam, a, b, deriv)
            return w, None if dw is None else np.zeros_like(dw), scale, res

        monkeypatch.setattr(spectral, "_endpoint_w", flat)
        with pytest.raises(BracketError, match="unconverged"):
            compute_eigenvalues(SIN2PI_PROB, INF, 1.0, 8)


class TestBatchedCarry:
    """Spectra through the sweep against the scalar-carry scan it replaced."""

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("picture", ["impedance", "schrodinger"])
    @pytest.mark.parametrize("cfg,a,b", SPECTRA_CASES)
    def test_spectra_match_scalar_carry(self, monkeypatch, cfg, a, b, picture, n):
        prob = in_picture(six_mode_problem(cfg, n), picture)
        data = solve_spectrum(prob, a, b, 64)
        with monkeypatch.context() as m:
            m.setattr(ode, "_sweep", scalar_carry_sweep)
            m.setattr(spectral, "_sweep", scalar_carry_sweep)
            old = solve_spectrum(prob, a, b, 64)
        rel = np.abs(data.eigenvalues - old.eigenvalues) / np.abs(old.eigenvalues)
        assert np.max(rel) <= 1e-14
        assert np.max(np.abs(data.norming - old.norming)) <= 1e-14


class TestNormingConstants:
    """``norming_constants`` at solved eigenvalues reproduces the solve."""

    @pytest.mark.parametrize("picture", ["impedance", "schrodinger"])
    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (1.0, -0.5)])
    def test_matches_solved_norming(self, a, b, picture):
        prob = in_picture(six_mode_problem("exp", N_GRID), picture)
        data = solve_spectrum(prob, a, b, 32)
        assert np.max(np.abs(norming_constants(prob, data) - data.norming)) \
            < 1e-10

    @pytest.mark.parametrize("picture", ["impedance", "schrodinger"])
    def test_matches_at_a_boundary_state(self, picture):
        # A Robin left end a = -6 holds a state near lam = -50 that lives at
        # x = 0, so y(1) is the small end of a decaying shot: there
        # dnu/dlam = -4.5e3, one ulp of lam (7e-15) is 3e-11 of nu, and nu
        # read by one sweep jumps by up to 1e-10 between neighbouring ulps.
        # The solve reads nu at its last Newton point and carries it to the
        # root, ``norming_constants`` reads it at the root: measured 1.2e-10
        # (impedance) and 2.3e-10 (Schrodinger) apart.  The other slots
        # agree to 1e-14.
        prob = in_picture(six_mode_problem("exp", N_GRID), picture)
        data = solve_spectrum(prob, -6.0, 1.0, 32)
        assert data.eigenvalues[0] < -48.0
        diff = np.abs(norming_constants(prob, data) - data.norming)
        assert diff[0] < 1e-9
        assert np.max(diff[1:]) < 1e-12

    @pytest.mark.parametrize("cfg,a,b", SPECTRA_CASES)
    def test_matches_on_coarse_grid(self, cfg, a, b):
        # 64 slots on 256 cells: one level read at the solved eigenvalues
        # less their correction gives the solved constants back.
        prob = six_mode_problem(cfg, 256)
        data = solve_spectrum(prob, a, b, 64)
        assert np.max(np.abs(norming_constants(prob, data) - data.norming)) \
            < 1e-12

    @pytest.mark.parametrize("a,b", [(INF, INF), (1.0, -0.5), (-12.0, -12.0)])
    def test_reads_endpoint_sweeps(self, monkeypatch, a, b):
        # nu needs no lam-derivative, so no sweep carries one; the values
        # are those of the derivative sweeps that also give log|dw|.  The
        # pair (-12, -12) reads its lowest state, which decays away from
        # x = 0, by an endpoint sweep of the reflected coefficients.
        prob = six_mode_problem("exp", N_GRID)
        data = solve_spectrum(prob, a, b, 32)
        modes = []
        sweep = ode._sweep

        def spy(*args, **kwargs):
            modes.append(bool(kwargs.get("deriv")))
            return sweep(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(ode, "_sweep", spy)
            m.setattr(spectral, "_sweep", spy)
            got = norming_constants(prob, data)
        assert modes and not any(modes)
        want = spectral._stored_quantities(prob, data)[0]
        assert np.max(np.abs(got - want)) <= 1e-13


def cos_problem(n):
    """The potential 0.3 cos(2 pi x) on n cells."""
    return SchrodingerProblem(Potential.from_callable(
        lambda x: 0.3 * np.cos(2.0 * np.pi * x), n))


class TestDeepRobinLeftEnd:
    """A Robin left end a = -20: its state near -400 decays away from x = 0,
    where y(1) of the forward shot cancels to rounding, so its norming
    constant is read from the right end."""

    PROB = cos_problem(1024)

    @pytest.mark.filterwarnings("error")
    def test_solve_is_finite_without_warning(self):
        # Against the same solve on eight times the cells: measured 4.5e-11.
        data = solve_spectrum(self.PROB, -20.0, 3.0, 8)
        ref = solve_spectrum(cos_problem(8192), -20.0, 3.0, 8)
        assert np.max(np.abs(data.norming - ref.norming)) < 1e-9
        assert np.max(np.abs(norming_constants(self.PROB, data)
                             - data.norming)) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_eigenvalues_still_returned(self):
        lam = compute_eigenvalues(self.PROB, -20.0, 3.0, 8)
        assert np.array_equal(lam, solve_spectrum(self.PROB, -20.0, 3.0, 8)
                              .eigenvalues)
        assert -400.0 < lam[0] < -399.0


# Boundary pairs of the zero-potential checks: the three regimes, a
# Dirichlet-Robin pair with a Neumann end, and pairs whose lowest
# eigenvalue is 0 exactly (eigenfunction 1 + x for (1, -0.5)) or negative.
# Robin pairs with ab >= (pi / 2)**2 bracket their slots by the
# Dirichlet-Robin ladder, the others by ((k + 1/2) pi)**2.
ZERO_PAIRS = [(INF, INF), (INF, 1.0), (INF, 0.0), (1.0, -0.5), (INF, -3.0),
              (-0.7, 2.0), (2.0, 3.0), (-3.0, -2.0)]


def closed_form_ladder(a, b, N):
    """Zero-potential eigenvalues and norming constants, by root scanning.

    The characteristic function of y'' = -w**2 y with y(0), y'(0) = (0, 1)
    or (1, a) is scanned in w for sign changes and each is refined by
    ``brentq``; the norming constant is log|y'(1)| for a Dirichlet right
    end, else log|y(1)|.  Only pairs with positive eigenvalues or the one
    eigenvalue 0 of (1, -0.5) are covered.
    """
    from scipy.optimize import brentq

    y0, v0 = (0.0, 1.0) if a == INF else (1.0, a)

    def ends(w):
        y = y0 * math.cos(w) + v0 * math.sin(w) / w
        v = v0 * math.cos(w) - y0 * w * math.sin(w)
        return y, v

    def char(w):
        y, v = ends(w)
        return y if b == INF else v + b * y

    roots = [0.0] if (a, b) == (1.0, -0.5) else []
    grid = np.linspace(1e-3, (N + 1) * math.pi, 64 * (N + 1))
    vals = [char(w) for w in grid]
    for w0, w1, f0, f1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if f0 * f1 < 0.0:
            roots.append(brentq(char, w0, w1, xtol=1e-15, rtol=1e-15))
    roots = np.array(roots[:N])
    norming = []
    for w in roots:
        y, v = ends(w) if w > 0.0 else (y0 + v0, v0)
        norming.append(math.log(abs(v if b == INF else y)))
    return roots ** 2, np.array(norming)


class TestZeroCorrection:
    """One grid level plus the zero-potential correction for normal forms."""

    @pytest.mark.parametrize("a,b", ZERO_PAIRS[:4])
    def test_zero_potential_at_closed_form(self, a, b):
        free = SchrodingerProblem(Potential(GridFunction.zeros(256)))
        data = solve_spectrum(free, a, b, 32)
        lam, norming = closed_form_ladder(a, b, 32)
        scale = np.maximum(1.0, np.abs(lam))
        assert np.max(np.abs(data.eigenvalues - lam) / scale) <= 1e-12
        assert np.max(np.abs(data.norming - norming)) <= 1e-12

    @pytest.mark.parametrize("a,b", ZERO_PAIRS[:4])
    def test_coarse_grid_keeps_slots(self, a, b):
        # 90 slots on 256 cells: RK4 moves the top zero eigenvalues by more
        # than half a gap, which the phase-matched starts take up.
        free = SchrodingerProblem(Potential(GridFunction.zeros(256)))
        data = solve_spectrum(free, a, b, 90)
        lam, _ = closed_form_ladder(a, b, 90)
        scale = np.maximum(1.0, np.abs(lam))
        assert np.max(np.abs(data.eigenvalues - lam) / scale) <= 1e-12

    @pytest.mark.parametrize("a,b", ZERO_PAIRS[:-1])
    def test_discrete_values_match_sweeps(self, a, b):
        # The transfer power M(lam)**n against sweeps over 256 zero cells,
        # found by the old root finder.  (-3, -2) is left out: its two lowest
        # eigenfunctions sit at one end each, so log|y(1)| of the one at
        # x = 0 carries rounding of the growing solution (1e-12 apart).
        n, N = 256, 64
        exact, exact_norming, exact_log_dw = spectral._exact_ladder(a, b, N)
        dlam, dnorm, dlog_dw = spectral._zero_correction(n, a, b, N)
        free = SchrodingerProblem(Potential(GridFunction.zeros(n)))
        lam, norming = bisect_level(free, a, b, N)
        _, log_dw = spectral._endpoint_quantities(free, lam, a, b)
        scale = np.maximum(1.0, np.abs(lam))
        assert np.max(np.abs(exact - dlam - lam) / scale) <= 1e-13
        assert np.max(np.abs(exact_norming - dnorm - norming)) <= 1e-13
        assert np.max(np.abs(exact_log_dw - dlog_dw - log_dw)) <= 1e-13

    @pytest.mark.parametrize("n", [256, 2048])
    def test_closed_form_transfer_matches_cell_power(self, n):
        # C, S and their lam-derivatives in closed form against the
        # squared unit-cell block, relative to each entry or to 1e-3 of its
        # largest value.  Measured: 2.8e-14 (n = 256), 2.3e-13 (n = 2048),
        # where the repeated squaring loses more.
        lam = np.concatenate([np.linspace(-400.0, 4e4, 2001),
                              [0.0, 1e-12, -1e-6, 1e-3, -0.5, 2.0]])
        closed = spectral._discrete_transfer(n, lam)[:4]
        for got, want in zip(closed, cell_power_transfer(n, lam)):
            scale = np.maximum(np.abs(want), 1e-3 * np.max(np.abs(want)))
            assert np.max(np.abs(got - want) / scale) < 1e-12

    def test_pair_rounding_cannot_split_raises(self):
        # At a = b = -40 the two boundary states lie 5.4e-14 apart, below
        # one ulp of 1600; a = b = -37 (9.3e-13 apart) still solves.
        free = SchrodingerProblem(Potential(GridFunction.zeros(1024)))
        with pytest.raises(BracketError):
            spectral._exact_ladder(-40.0, -40.0, 4)
        with pytest.raises(BracketError):
            solve_spectrum(free, -40.0, -40.0, 4)
        lam = solve_spectrum(free, -37.0, -37.0, 4).eigenvalues
        assert lam[0] < lam[1] < -1368.0

    def test_count_bisection_runs_to_the_last_float(self):
        # The two boundary states of 0.3 cos(2 pi x) at a = b = -35 lie
        # about 27 ulp apart; 48 halvings of their bracket left it near
        # 5e-12 wide and raised BracketError.
        data = solve_spectrum(cos_problem(1024), -35.0, -35.0, 8)
        ref = solve_spectrum(cos_problem(2048), -35.0, -35.0, 8)
        lam = data.eigenvalues
        assert lam[0] < lam[1] and np.all(np.abs(lam[:2] + 1224.70) < 0.01)
        assert np.max(np.abs(lam - ref.eigenvalues) / np.abs(ref.eigenvalues)) < 1e-12

    @pytest.mark.parametrize("a,b", ZERO_PAIRS)
    def test_exact_ladder_is_a_root_ladder(self, a, b):
        # Strictly increasing, one root per slot: the closed-form
        # characteristic function changes sign across each eigenvalue.
        lam, _, _ = spectral._exact_ladder(a, b, 16)
        assert np.all(np.diff(lam) > 0.0)
        step = 1e-6 * np.maximum(1.0, np.abs(lam))
        char = spectral._zero_char(spectral._exact_transfer, a, b)
        w_lo = char(lam - step)[0]
        w_hi = char(lam + step)[0]
        below = (-1.0) ** np.arange(16)
        assert np.all(np.sign(w_lo) == below)
        assert np.all(np.sign(w_hi) == -below)

    def test_no_doubled_grid(self, monkeypatch):
        # Deep Robin pairs included: every pair takes one level.
        def refuse(*args, **kwargs):
            raise AssertionError("spectra must not resample")

        monkeypatch.setattr(ode, "resample", refuse)
        for prob in (SIN2PI_PROB, six_mode_problem("exp", 256)):
            for a, b in ((INF, INF), (INF, 1.0), (1.0, -0.5), (-12.0, -12.0),
                         (-15.0, -13.5), (-20.0, 3.0), (-50.0, -20.0)):
                data = solve_spectrum(prob, a, b, 8)
                norming_constants(prob, data)
                if a != INF:
                    identity_ab(prob, data, 8)
            normalizing_constants(prob, solve_spectrum(prob, INF, INF, 8))
            identity_b(prob, solve_spectrum(prob, INF, 1.0, 8), 8)

    @pytest.mark.parametrize("cfg,a,b", SPECTRA_CASES)
    def test_no_less_accurate_than_two_levels(self, cfg, a, b):
        # Errors against a two-level 16384-cell reference: eigenvalues
        # relative to max(1, |lam|), norming constants absolute, and the
        # reads at the solved eigenvalues against the two-level readers at
        # the reference: alpha of Dirichlet pairs (relative) and the
        # trace-identity ratios exp(+-nu) / |dw| (absolute; + for the
        # Dirichlet-Robin pair, both for the Robin-Robin pair).  Measured,
        # two-level readers -> one corrected level: alpha 6.8e-3 -> 1.9e-6,
        # + 1.2e-3 -> 2.3e-6, - 1.5e-1 -> 5.3e-6 at n = 256; 4.2e-7 ->
        # 6.9e-10, 2.0e-9 -> 7.0e-10, 1.5e-6 -> 1.5e-9 at n = 2048.
        ref_prob = in_picture(six_mode_problem(cfg, 16384), "schrodinger")
        ref_lam, ref_norming = richardson_spectrum(ref_prob, a, b, 64)
        dirichlet = regime_of(a, b) == "dirichlet"
        signs = (1.0,) if a == INF else (1.0, -1.0)

        def two_level_reads(prob, lam):
            if dirichlet:
                return [two_level_normalizing(prob, lam)]
            return [two_level_ratios(prob, lam, a, b, s) for s in signs]

        def corrected_reads(prob, data):
            if dirichlet:
                return [normalizing_constants(prob, data)]
            norming, log_dw = spectral._stored_quantities(prob, data)
            return [np.exp(s * norming - log_dw) for s in signs]

        ref_reads = two_level_reads(ref_prob, ref_lam)
        scale = np.maximum(1.0, np.abs(ref_lam))
        read_scale = np.abs(ref_reads[0]) if dirichlet else 1.0

        def errors(lam, norming, reads):
            return [np.max(np.abs(lam - ref_lam) / scale),
                    np.max(np.abs(norming - ref_norming))] + [
                np.max(np.abs(r - ref) / read_scale)
                for r, ref in zip(reads, ref_reads)]

        for n in (256, 2048):
            prob = in_picture(six_mode_problem(cfg, n), "schrodinger")
            data = solve_spectrum(prob, a, b, 64)
            corrected = errors(data.eigenvalues, data.norming,
                               corrected_reads(prob, data))
            two_levels = errors(*richardson_spectrum(prob, a, b, 64),
                                two_level_reads(prob, data.eigenvalues))
            assert np.all(np.array(corrected) <= np.array(two_levels)), \
                (n, corrected, two_levels)

    @pytest.mark.parametrize("a,b", [(-12.0, -12.0), (-15.0, -13.5)])
    def test_one_level_where_boundary_states_nearly_coincide(self, a, b):
        # Two deep Robin ends hold two boundary states 7.6e-3 and 43 apart.
        # The closed-form ladders split them branch by branch, so these
        # pairs take the correction like any other, checked against a
        # solve on eight times the cells.  The potential is even, so at
        # (-12, -12) the two states are the even and odd mixtures of the
        # end states, and nu, about 0, moves by e**12 / 576 times the error
        # of lam.  Measured: lam 5.2e-14 and 5.9e-14 relative; nu 2.2e-10
        # and 6.9e-12; trace-identity ratios 2.4e-10 and 1.4e-11 relative.
        def prob(n):
            return SchrodingerProblem(Potential.from_callable(
                lambda x: 0.3 * sin2pi_potential(x), n))

        dlam, dnorm, dlog_dw = spectral._zero_correction(2048, a, b, 8)
        assert np.all(np.isfinite(dlam) & np.isfinite(dnorm)
                      & np.isfinite(dlog_dw))
        data = solve_spectrum(prob(2048), a, b, 8)
        ref = solve_spectrum(prob(16384), a, b, 8)
        assert np.max(np.abs(data.eigenvalues - ref.eigenvalues)
                      / np.abs(ref.eigenvalues)) < 1e-12
        assert np.max(np.abs(data.norming - ref.norming)) < 1e-9
        # The reads at the stored eigenvalues as well.
        nu, log_dw = spectral._stored_quantities(prob(2048), data)
        ref_nu, ref_log_dw = spectral._stored_quantities(prob(16384), ref)
        for sign in (1.0, -1.0):
            ratios = np.exp(sign * nu - log_dw)
            ref_ratios = np.exp(sign * ref_nu - ref_log_dw)
            assert np.max(np.abs(ratios / ref_ratios - 1.0)) < 1e-9


class TestMemoizedLadders:
    """The zero ladders and corrections depend on (n, a, b, N) alone; each
    is solved once per process and shared read-only."""

    @pytest.mark.parametrize("a,b", [(-12.0, -12.0), (-20.0, 3.0),
                                     (INF, -50.0)])
    def test_equal_to_a_fresh_build(self, a, b):
        got = spectral._zero_correction(1024, a, b, 8)
        ladder = spectral._exact_ladder(a, b, 8)
        assert spectral._zero_correction(1024, a, b, 8) is got
        spectral._exact_ladder.cache_clear()
        fresh = spectral._zero_correction.__wrapped__(1024, a, b, 8)
        for got_row, want_row in zip(got, fresh):
            assert np.array_equal(got_row, want_row)
        for got_row, want_row in zip(ladder,
                                     spectral._exact_ladder.__wrapped__(
                                         a, b, 8)):
            assert np.array_equal(got_row, want_row)

    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (1.0, -0.5)])
    def test_read_only(self, a, b):
        for table in (spectral._zero_correction(256, a, b, 4),
                      spectral._exact_ladder(a, b, 4)):
            for row in table:
                with pytest.raises(ValueError):
                    row[0] = 0.0


def deep_robin_closed_form(a, b):
    """Lowest eigenvalue and norming constant of p = 0 under (a, b), a << -1.

    At lam = -v**2 the shot from (1, a) is y = cosh(v x) + a sinh(v x) / v;
    the Robin right end gives v + a = e**(-2v) (v - a)(v - b) / (v + b),
    and nu = log|y(1)| = -v + log((v - a) / (v + b)).
    """
    from scipy.optimize import brentq

    def gap(v):
        return v + a - math.exp(-2.0 * v) * (v - a) * (v - b) / (v + b)

    v = brentq(gap, -a - 1.0, -a + 1.0, xtol=1e-15, rtol=1e-15)
    return -v * v, -v + math.log((v - a) / (v + b))


# Robin left ends whose lowest state decays away from x = 0.
DEEP_LEFT_ENDS = [-6.0, -8.0, -10.0, -12.0, -15.0, -17.0, -20.0]


class TestDeepRobinEnds:
    """Strongly attractive Robin ends hold states far below the ladder."""

    @pytest.mark.parametrize("a", DEEP_LEFT_ENDS)
    def test_zero_potential_at_closed_form(self, a):
        # Measured at n = 2048: lam_0 within 1.2e-15 relative, nu_0 within
        # 1.8e-13.
        free = SchrodingerProblem(Potential(GridFunction.zeros(2048)))
        data = solve_spectrum(free, a, 1.0, 8)
        lam, nu = deep_robin_closed_form(a, 1.0)
        assert abs(data.eigenvalues[0] - lam) < 1e-13 * abs(lam)
        assert abs(data.norming[0] - nu) < 1e-9
        assert abs(norming_constants(free, data)[0] - nu) < 1e-9

    @pytest.mark.parametrize("a", DEEP_LEFT_ENDS)
    def test_against_eight_times_the_cells(self, a):
        # 0.3 cos(2 pi x) on 2048 cells against 16384.  Measured: nu_0
        # within 2.1e-13 to 2.9e-12, eigenvalues within 1.4e-14 relative.
        data = solve_spectrum(cos_problem(2048), a, 1.0, 4)
        ref = solve_spectrum(cos_problem(16384), a, 1.0, 4)
        assert abs(data.norming[0] - ref.norming[0]) < 1e-9
        assert np.max(np.abs(data.eigenvalues - ref.eigenvalues)
                      / np.abs(ref.eigenvalues)) < 1e-12

    @pytest.mark.parametrize("a,b", [(-6.0, 1.0), (-10.0, 1.0), (-15.0, 1.0),
                                     (-20.0, 1.0), (-30.0, 1.0),
                                     (-50.0, -20.0)])
    def test_norming_converges_at_fourth_order(self, a, b):
        # Errors of nu_0 for 0.3 cos(2 pi x) against 16384 cells: eight
        # times the cells divide them by 8**4 = 4096; measured 2900-6400,
        # and 335 at a = -6, where n = 2048 reaches 7.5e-13.
        ref = solve_spectrum(cos_problem(16384), a, b, 4).norming[0]
        e256, e2048 = (abs(solve_spectrum(cos_problem(n), a, b, 4).norming[0]
                           - ref) for n in (256, 2048))
        assert e2048 < max(e256 / 1024.0, 2e-12)
        assert e256 < 1e-6

    @pytest.mark.parametrize("a,b", [(INF, -50.0), (-50.0, -20.0)])
    def test_against_finite_differences(self, a, b):
        # The lower brackets of the boundary states (near -b**2 and -a**2)
        # start at the spectrum floor.  Measured: 7.7e-10 and 1.1e-9.
        def pv(x):
            return 0.3 * np.cos(2.0 * np.pi * x)

        prob = SchrodingerProblem(Potential.from_callable(pv, 1024))
        lam = solve_spectrum(prob, a, b, 8).eigenvalues
        ref = oracle_eigenvalues(pv, 8, b=b, a=a)
        assert np.max(np.abs(lam - ref) / np.abs(ref)) < 1e-8


def benchmark_slope(seed, i):
    """The unit six-mode slope of op i of the benchmark's spectra workload."""
    c = np.random.default_rng([seed, i]).normal(size=6)
    return c / np.linalg.norm(c), math.pi * np.arange(1, 7)


class TestBenchmarkInputs:
    """The Robin-Robin inputs of the seed-0 spectra benchmark, both u."""

    @pytest.mark.parametrize("i", [2, 5])
    def test_robin_robin_against_finite_differences(self, i):
        # Ops 2 and 5 take (1, -0.5), with zero u and exp:0.5,1.0.  The
        # closed form q' + q**2 + u has mean c0, so its eigenvalues are the
        # impedance ones.  Measured: 1.3e-8 and 2.6e-7 relative, the larger
        # at lam_0 = 0.33, where the oracle on 8000 and 16000 cells differs
        # by 1.3e-6.
        c, w = benchmark_slope(0, i)
        cfg = ConditionU.exponential(0.5, 1.0) if i % 2 else ConditionU.zero()

        def q(x):
            return c @ (math.sqrt(2.0) * np.sin(np.outer(w, x)))

        def pv(x):
            x = np.asarray(x, dtype=float)
            dq = (c * w) @ (math.sqrt(2.0) * np.cos(np.outer(w, x)))
            Q = (c / w) @ (math.sqrt(2.0) * (1.0 - np.cos(np.outer(w, x))))
            return dq + q(x) ** 2 + cfg.u2.value(Q)

        grid = q(np.linspace(0.0, 1.0, 2049))
        grid[[0, -1]] = 0.0
        prob = ImpedanceProblem(Impedance(GridFunction(grid)), cfg)
        lam = solve_spectrum(prob, 1.0, -0.5, 64).eigenvalues
        ref = oracle_eigenvalues(pv, 64, b=-0.5, m=8000, a=1.0)
        assert np.max(np.abs(lam - ref) / np.abs(ref)) < 1e-6
