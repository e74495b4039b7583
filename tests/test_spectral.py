"""Spectra, norming constants, product formula, trace identities."""

import dataclasses
import math
import re

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
from liouville.grid import integral, trig_basis
from liouville.spectral import _potential_gradients
from oracles import bisect_level, closed_form_ladder, \
    damped_spectrum, dirichlet_exact, isospectral_flow, mixed_exact, \
    newton_polish, oracle_eigenvalues, sin2pi_potential, zero_norming

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
        # Both entry points share the pipeline's check; solve_spectrum
        # raised IndexError before it moved there.
        for solve in (compute_eigenvalues, solve_spectrum):
            for N in (0, -1):
                with pytest.raises(ValueError,
                                   match="need at least one eigenvalue"):
                    solve(FREE, INF, INF, N)


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


def flow_errors(a, b, slot, t, n, N=8):
    """Errors of a solve against ``oracles.isospectral_flow``: lam relative
    to max(1, |lam|), nu, and alpha (relative) for a Dirichlet pair, else
    log|dw|."""
    flow = isospectral_flow(a, b, slot, t, n, N)
    data = solve_spectrum(flow.problem, flow.a, flow.b, N)
    lam = flow.eigenvalues
    if regime_of(a, b) == "dirichlet":
        read = normalizing_constants(flow.problem, data) \
            / np.exp(flow.norming + flow.log_dw) - 1.0
    else:
        read = spectral._stored_quantities(flow.problem, data)[1] - flow.log_dw
    return np.array([
        np.max(np.abs(data.eigenvalues - lam) / np.maximum(1.0, np.abs(lam))),
        np.max(np.abs(data.norming - flow.norming)), np.max(np.abs(read))])


# (a, b, slot, t) of a flow of p = 0, N = 8, and the errors of
# ``flow_errors`` measured at n = 256, 512 and 2048.  (inf, inf, 1, 3)
# reaches sup|p| = 253, (0.5, 1, 2, -2) 256 with a' = -11.8; (inf, 2, 1, 2)
# ends at b' = -8.37 and (2, 1, 1, 2) at b' = -9.26.  Most errors at 2048
# cells sit at a rounding floor near 1e-13; nu of (inf, inf, 1, 3) sits at
# 2.0e-12 there (3.2e-12 at 4096).
FLOW_CASES = {
    (INF, INF, 0, 1.0): ([1.3e-12, 3.4e-12, 2.8e-12],
                         [1.9e-14, 6.7e-14, 8.0e-14],
                         [1.1e-15, 1.2e-13, 2.3e-13]),
    (INF, INF, 2, -2.0): ([7.6e-10, 4.6e-9, 7.3e-9],
                          [1.2e-11, 7.1e-11, 1.1e-10],
                          [3.1e-15, 2.2e-13, 1.8e-13]),
    (INF, INF, 1, 3.0): ([4.0e-9, 9.5e-9, 7.3e-9],
                         [6.2e-11, 1.5e-10, 1.1e-10],
                         [1.3e-14, 2.0e-12, 2.0e-13]),
    (INF, 1.0, 0, 1.0): ([7.4e-12, 9.9e-13, 4.7e-13],
                         [1.1e-13, 4.0e-14, 3.4e-14],
                         [8.1e-15, 1.1e-13, 1.1e-13]),
    (INF, 0.5, 2, -1.5): ([1.4e-10, 8.2e-10, 4.8e-10],
                          [2.3e-12, 1.3e-11, 7.5e-12],
                          [9.8e-16, 1.2e-13, 1.2e-13]),
    (INF, 2.0, 1, 2.0): ([3.2e-9, 1.0e-9, 7.5e-10],
                         [4.8e-11, 1.5e-11, 1.1e-11],
                         [6.1e-15, 1.1e-13, 1.1e-13]),
    (1.0, 2.0, 0, 1.0): ([2.6e-13, 1.2e-13, 4.2e-14],
                         [2.6e-15, 4.1e-14, 3.9e-14],
                         [1.2e-15, 1.3e-13, 1.3e-13]),
    (0.5, 1.0, 2, -2.0): ([1.1e-7, 1.1e-7, 7.7e-8],
                          [1.7e-9, 1.8e-9, 1.2e-9],
                          [3.6e-13, 4.9e-13, 2.1e-13]),
    (2.0, 1.0, 1, 2.0): ([1.6e-7, 5.1e-8, 4.0e-8],
                         [2.5e-9, 7.9e-10, 6.2e-10],
                         [5.0e-13, 1.3e-13, 1.9e-13]),
}

# The t of the random flows of each regime, slots 0-2: sup|p| up to 280,
# 222 and 209.
FLOW_DOMAINS = {(INF, INF): (-2.5, 2.5), (INF, 1.0): (-2.5, 1.5),
                (1.0, 2.0): (-2.0, 2.0)}


class TestIsospectralFlow:
    """Steep potentials with exact eigenvalues, norming constants and dw."""

    @pytest.mark.parametrize("case", list(FLOW_CASES))
    def test_exact_data(self, case):
        # Within 10x the measured errors, and sixth order: each error above
        # 1e-12 at 512 cells is at least 40x below that at 256 (measured
        # 60-67x; fourth order gives 16x).  From 512 to 2048 cells the
        # errors meet the rounding floor, so that pair carries no order.
        errors = [flow_errors(*case, n) for n in (256, 512, 2048)]
        for got, measured in zip(errors, FLOW_CASES[case]):
            assert np.all(got <= 10.0 * np.array(measured)), (got, measured)
        coarse, fine = errors[:2]
        assert np.all((fine <= 1e-12) | (coarse >= 40.0 * fine))

    @pytest.mark.parametrize("pair", list(FLOW_DOMAINS))
    @settings(max_examples=8, deadline=None)
    @given(slot=st.integers(0, 2), share=st.floats(0.0, 1.0))
    def test_random_flows(self, pair, slot, share):
        # Measured over 41 t per slot at n = 1024, N = 6, by pair: lam
        # 3.1e-9, 2.0e-9 and 2.1e-8; nu 4.9e-9, 2.9e-9 and 4.6e-9; alpha
        # 9.2e-9, log|dw| 2.8e-9 and 4.6e-9.
        lo, hi = FLOW_DOMAINS[pair]
        errors = flow_errors(*pair, slot, lo + share * (hi - lo), 1024, 6)
        assert np.all(errors <= [1e-7, 3e-8, 3e-8]), errors


class TestSolverOptions:
    def test_deep_pair_converges_at_sixth_order(self):
        # Two deep Robin ends take one level of the problem grid like every
        # pair, the old root finder's level; against a solve on 32 times
        # the cells, doubling 128 cells divides the error by 61 (sixth
        # order gives 64), to 1.2e-13 relative at 256 cells.
        def prob(n):
            return SchrodingerProblem(Potential.from_callable(
                lambda x: 0.3 * sin2pi_potential(x), n))

        ref = compute_eigenvalues(prob(8192), -12.0, -12.0, 10)
        e128, e256 = (np.max(np.abs(compute_eigenvalues(prob(n), -12.0, -12.0,
                                                        10) - ref))
                      for n in (128, 256))
        assert e256 < e128 / 40.0
        assert e256 < 1e-12 * np.max(np.abs(ref))
        plain, _ = bisect_level(prob(256), -12.0, -12.0, 10)
        lam = compute_eigenvalues(prob(256), -12.0, -12.0, 10)
        assert np.max(np.abs(plain - lam) / np.abs(lam)) < 1e-14

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
    def build(self, M=64, a=INF, b=0.2):
        prob = SchrodingerProblem(Potential.from_callable(
            lambda x: 0.3 * sin2pi_potential(x), N_GRID))
        return prob, solve_spectrum(prob, a, b, M)

    def test_truncations_converge(self):
        # The product divides by the zero problem of the data's own pair,
        # shifted by c0, so each factor past M is 1 + O(k**-4) and the error
        # falls like M**-3: by about 8 per doubling of M.  Bounds are 10
        # times the errors measured at M = 64 over the three lam, relative
        # to max(1, |w|): 5.7e-9, 1.0e-8, 2.9e-8, 1.8e-8 and 1.1e-7.
        for a, b, bound in ((INF, INF, 6e-8), (INF, 0.2, 1e-7),
                            (INF, 1.0, 3e-7), (1.0, -0.5, 2e-7),
                            (-6.0, 1.0, 1e-6)):
            prob, data = self.build(a=a, b=b)
            for lam in (-5.0, 3.3, 57.0):
                direct = wronskian(prob, lam, a, b)
                errs = [abs(hadamard_wronskian(data, lam, M) - direct)
                        for M in (8, 16, 32, 64)]
                assert all(e1 > 6.0 * e2 for e1, e2 in zip(errs, errs[1:]))
                assert errs[-1] < bound * max(1.0, abs(direct))

    def test_impedance_product(self):
        # Measured: 2.0e-8 relative.
        prob = ImpedanceProblem(q_two_mode())
        data = solve_spectrum(prob, INF, INF, 64)
        lam = -5.0
        direct = wronskian(prob, lam)
        approx = hadamard_wronskian(data, lam, 64)
        assert abs(approx - direct) / abs(direct) < 2e-7

    @pytest.mark.parametrize("a,b,bound", [(INF, INF, 1.3e-7),
                                           (-20.0, 3.0, 1e-6)])
    def test_impedance_product_shifted_by_c0(self, a, b, bound):
        # The CLI's four-mode slope with u = exp:0.5,1.0 (c0 = 0.592): the
        # zero problem's front is read at lam - c0.  Measured at M = 64,
        # relative: 1.2e-8 and 5.9e-7.
        q = Impedance(GridFunction(np.array([0.3, -0.2, 0.1, 0.05])
                                   @ trig_basis("sine", 4, N_GRID)))
        prob = ImpedanceProblem(q, ConditionU.exponential(0.5, 1.0))
        data = solve_spectrum(prob, a, b, 64)
        for lam in (-4.0, 30.0, 57.0):
            direct = wronskian(prob, lam, a, b)
            approx = hadamard_wronskian(data, lam, 64)
            assert abs(approx - direct) <= bound * abs(direct)

    def test_unsplit_zero_pair_raises(self):
        # Below a = b of about -37.2 the zero problem's two boundary states
        # are one float: its ladder, and so the product, raises.
        data = dataclasses.replace(self.build(8, 1.0, -0.5)[1], a=-40.0,
                                   b=-40.0)
        with pytest.raises(BracketError, match="boundary states lie closer"):
            hadamard_wronskian(data, 3.3, 8)

    def test_pole_collision_raises(self):
        prob, data = self.build(8)
        with pytest.raises(PoleCollisionError):
            hadamard_wronskian(data, float(data.eigenvalues[2]), 8)
        # The zero problem's poles are its eigenvalues under the data's
        # pair, (inf, 0.2), shifted by c0 = 0.
        pole = float(spectral._exact_ladder(INF, 0.2, 8)[0][1])
        with pytest.raises(PoleCollisionError):
            hadamard_wronskian(data, pole, 8)
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


# Pairs of the reflection checks: each regime, deep ends on either side,
# two deep ends and a symmetric deep pair.
REFLECTION_PAIRS = [(INF, INF), (1.0, -0.5), (-6.0, 1.0), (-20.0, 3.0),
                    (1.0, -50.0), (-12.0, -12.0), (-50.0, -20.0)]


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

    @pytest.mark.parametrize("b", [-12.0, -16.0, -20.0, -30.0])
    def test_deep_right_state_against_central_differences(self, b):
        # The state near -b**2 grows toward x = 1, and so does the second
        # solution shot from x = 0: int z y would cancel at e**(2|b|) scale
        # (off by 2e-5 at b = -16 and 2e-2 at b = -30).  The z shot from
        # x = 1 decays toward it.  Measured: 5e-11 to 7.2e-10.
        x = np.linspace(0.0, 1.0, 1025)
        p = math.sqrt(2.0) * (0.4 * np.cos(2 * np.pi * x)
                              + 0.2 * np.sin(4 * np.pi * x))
        phi = math.sqrt(2.0) * np.cos(4 * np.pi * x)

        def solve(f):
            return solve_spectrum(SchrodingerProblem(Potential(
                GridFunction(f))), 3.0, b, 3)

        data = solve(p)
        _, dnu = _potential_gradients(
            SchrodingerProblem(Potential(GridFunction(p))), data.eigenvalues,
            3.0, b, phi[None, :])
        h = 1e-4
        fd = (solve(p + h * phi).norming - solve(p - h * phi).norming) / (2 * h)
        assert np.max(np.abs(dnu[:, 0] - fd)) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           size=st.floats(0.0, 4.0), pair=st.sampled_from(REFLECTION_PAIRS))
    @example(coeffs=[0.0, 0.6, 0.0, -0.5, 0.0, 0.3], size=1.0,
             pair=(-12.0, -12.0))
    def test_reflection(self, coeffs, size, pair):
        # p(1 - x) under (b, a) has the eigenvalues of p under (a, b) and
        # nu of the other sign; along the reflected directions d lam is the
        # same and d nu changes sign.  Deep states are read from opposite
        # ends on the two sides.  Each slot's differences are scaled by
        # max(1, |lam|), which the discretization error grows with, and d nu
        # also by its row's size, which a near-symmetric deep pair such as
        # the even example at (-12, -12) makes large.  Worst of 2600 draws,
        # in the order of the asserts: 1.2e-14, 4.7e-12, 4.0e-11, 5.0e-13.
        n, N = 1024, 4
        c = np.asarray(coeffs)
        if c.any():
            c = c / np.max(np.abs(c))
            c *= size / np.linalg.norm(c)
        p = c @ trig_basis("cosine", 6, n)
        phi = np.concatenate([trig_basis("cosine", 6, n),
                              trig_basis("sine", 6, n)])
        a, b = pair

        def solve(p, a, b, phi):
            prob = SchrodingerProblem(Potential(GridFunction(p)))
            data = solve_spectrum(prob, a, b, N)
            return (data.eigenvalues, data.norming,
                    *_potential_gradients(prob, data.eigenvalues, a, b, phi))

        lam, nu, dlam, dnu = solve(p, a, b, phi)
        lam_r, nu_r, dlam_r, dnu_r = solve(p[::-1], b, a, phi[:, ::-1])
        scale = np.maximum(1.0, np.abs(lam))
        assert np.all(np.abs(lam_r - lam) <= 3.6e-14 * scale)
        assert np.all(np.abs(nu_r + nu) <= 1.4e-9 * scale)
        assert np.all(np.abs(dlam_r - dlam) <= 2.3e-10 * scale[:, None])
        row = scale * np.maximum(1.0, np.max(np.abs(dnu), axis=1))
        assert np.all(np.abs(dnu_r + dnu) <= 4.5e-11 * row[:, None])


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
        # Both pictures take one level of the problem grid, as the oracle
        # does.  The oracle reads nu forward; a deep state's is read from
        # the end it grows toward, at the oracle's eigenvalue.  The deep
        # pairs' value rounds carry each slope and each secant's older
        # value across the log scales of the sweeps.
        prob = in_picture(six_mode_problem(cfg, n), picture)
        data = solve_spectrum(prob, a, b, 64)
        lam, forward = bisect_level(prob, a, b, 64)
        norming = spectral._norming(prob, lam, a, b, forward)
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
        # Every slot is bracketed around its mean-shifted zero-ladder start,
        # and one count sweep of the single column above the top bracket
        # proves the labels.  Newton then takes one full-width value round,
        # an endpoint sweep with the slopes predicted by the zero problem,
        # and secant rounds after it, each an endpoint sweep of the roots
        # still live; no root falls back to a derivative round.  The last
        # evaluation at each root gives its norming constant.  Measured:
        # endpoint sweeps of 64, 64, 64, 14, 5, 3 and 2 columns.
        prob = six_mode_problem("exp", 2048)
        sweep = ode._sweep
        polish = spectral._newton_polish
        calls, inside = [], []

        def counted(co, lam, y0, v0, **kwargs):
            mode = [m for m in ("count", "deriv", "trace") if kwargs.get(m)]
            calls.append((mode[0] if mode else "endpoint", np.size(lam),
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
        assert [size for mode, size, _ in calls if mode == "count"] == [1]
        assert modes.count("trace") == 0
        assert modes.count("deriv") == 0
        widths = [size for mode, size, _ in calls if mode == "endpoint"]
        assert widths[0] == 64 and len(widths) <= 7
        assert widths == sorted(widths, reverse=True)
        assert all(in_polish for mode, _, in_polish in calls
                   if mode == "endpoint")

    def test_one_slow_step_is_taken(self):
        # w = -(x**3 + x) from x = 3, round 1 with the slope -28 of w at 3:
        # Newton's step 1.07, then secant steps 0.47 and 0.47, the second
        # longer than half the step before.  That first slow step is taken;
        # the next secant step is slow too, and the round bisects the
        # bracket [-10, x] instead.
        seen = []

        def value(x):
            seen.append(float(x[0]))
            return -(x ** 3 + x), np.zeros_like(x), np.zeros_like(x)

        lam, _ = spectral._newton_polish(value, [3.0], [-10.0], [10.0],
                                         [math.log(28.0)])
        assert abs(lam[0]) < 1e-12
        want = [3.0, 3.0 - 30.0 / 28.0]
        while len(want) < 5:
            x0, x1 = want[-2:]
            slope = x0 ** 2 + x0 * x1 + x1 ** 2 + 1.0
            want.append(x1 - (x1 ** 3 + x1) / slope)
        steps = np.abs(np.diff(want))
        assert steps[1] < 0.5 * steps[0] < steps[0]
        assert steps[2] > 0.5 * steps[1] and steps[3] > 0.5 * steps[2]
        assert np.allclose(seen[:4], want[:4], rtol=1e-14, atol=0.0)
        assert seen[4] == 0.5 * (-10.0 + seen[3])

    def test_nonconverging_iteration_raises(self, monkeypatch):
        # A stationary characteristic value, w = 1 at log scale 0, gives no
        # usable step: every secant is 0, which has the wrong sign for any
        # slot, so each root keeps its predicted slope, whose steps leave
        # the bracket or turn slow.  None meets the tolerance: the polish
        # must stop at its cap and say so.
        endpoint_w = spectral._endpoint_w

        def flat(prob, lam, a, b, deriv):
            _, dw, scale, res = endpoint_w(prob, lam, a, b, deriv)
            return (np.ones_like(scale), None if dw is None else
                    np.zeros_like(dw), np.zeros_like(scale), res)

        monkeypatch.setattr(spectral, "_endpoint_w", flat)
        with pytest.raises(BracketError, match="unconverged"):
            compute_eigenvalues(SIN2PI_PROB, INF, 1.0, 8)


# Pairs of the narrow-count checks: every regime, a deep right end, a deep
# left end and two deep ends.
NARROW_PAIRS = [(INF, INF), (INF, 1.0), (1.0, -0.5), (-20.0, 3.0),
                (INF, -50.0), (-12.0, -12.0)]


def counted(prob, a, b, N, guess=None):
    """The spectrum through the count brackets of ``_solve_levels``.

    The one-column count at t reads -1, which is never N, so the start
    brackets are refused before any polish and the fallback runs as it
    does in production.
    """
    count_below, first = spectral._count_below, []

    def spy(prob, lam, *args, **kwargs):
        counts = count_below(prob, lam, *args, **kwargs)
        if first:
            return counts
        first.append(np.size(lam))
        return np.full_like(counts, -1)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "_count_below", spy)
        data = solve_spectrum(prob, a, b, N, _guess=guess)
    assert first == [1]
    return data


class TestNarrowCount:
    """Every ladder is bracketed around its starts and proved by one count
    above the ladder; the count brackets are only the fallback."""

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           amplitude=st.floats(0.0, 300.0),
           pair=st.sampled_from(NARROW_PAIRS),
           N=st.sampled_from([1, 3, 5, 9, 16, 64]),
           n=st.sampled_from([256, 1024]),
           guess=st.sampled_from([None, "exact", "perturbed"]),
           scale=st.sampled_from([1e-9, 1e-4, 1e-2, 0.2]),
           seed=st.integers(0, 2**16))
    # 300 sqrt(2) cos(2 pi x) under Dirichlet ends puts three eigenvalues
    # below the first start bracket's top: the one-column count reads N,
    # slots 1 and 2 find no root in their brackets, and the ladder falls
    # back to the count brackets.
    @example(coeffs=[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
             amplitude=300.0 * math.sqrt(2.0), pair=(INF, INF), N=5, n=1024,
             guess=None, scale=1e-9, seed=0)
    def test_matches_counted_path(self, coeffs, amplitude, pair, N, n, guess,
                                  scale, seed):
        # The roots lie strictly inside their own brackets on both paths,
        # so the labels are the same, and only Newton's path to each root
        # differs.  A guess is the counted spectrum itself or a copy moved
        # by up to scale max(1, |lam|) per slot; a copy that is not
        # increasing leaves the starts to the zero ladder.  Where the
        # counted path raises, so does the other, with the same message.
        p = np.asarray(coeffs) @ trig_basis("cosine", 6, n)
        p *= amplitude / max(np.max(np.abs(p)), 1e-300)
        prob = SchrodingerProblem(Potential(GridFunction(p)))
        a, b = pair
        try:
            exact = counted(prob, a, b, N).eigenvalues
        except BracketError as err:
            with pytest.raises(BracketError, match=re.escape(str(err))):
                solve_spectrum(prob, a, b, N)
            return
        if guess == "exact":
            guess = exact
        elif guess == "perturbed":
            move = np.random.default_rng(seed).uniform(-1.0, 1.0, N)
            guess = exact + scale * move * np.maximum(1.0, np.abs(exact))
        want = counted(prob, a, b, N, guess).eigenvalues
        got = solve_spectrum(prob, a, b, N, _guess=guess).eigenvalues
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_resonant_potential_takes_full_count(self, monkeypatch):
        # 300 sqrt(2) cos(24 pi x) opens a wide gap at slot 12 and moves
        # slots 11 and 12 most of a gap off the zero ladder, out of their
        # brackets: after the one-column count the ladder is counted in
        # full, N + 1 columns in the first sweep, as the counted path is.
        n, N = 2048, 64
        prob = SchrodingerProblem(Potential(GridFunction(
            300.0 * trig_basis("cosine", 24, n)[23])))
        want = counted(prob, 1.0, -0.5, N)
        count_below = spectral._count_below
        columns = []

        def spy(prob, lam, *args, **kwargs):
            columns.append(np.size(lam))
            return count_below(prob, lam, *args, **kwargs)

        monkeypatch.setattr(spectral, "_count_below", spy)
        got = solve_spectrum(prob, 1.0, -0.5, N)
        assert columns[:2] == [1, N + 1]
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.norming, want.norming)


class TestValueRounds:
    """Every round is one endpoint sweep: the slope predicted in round 1 and
    a secant after that."""

    def test_secant_iteration(self):
        # w = 2 - x**3 from x = 1 with the slope predicted as -4 e**0: the
        # first step takes the prediction, every later one the secant through
        # the last two evaluations.  The companion g = x**2 is carried from
        # the last evaluation by the secant of g.
        seen = []

        def value(x):
            seen.append(float(x[0]))
            return 2.0 - x ** 3, np.zeros_like(x), x ** 2

        lam, g = spectral._newton_polish(value, [1.0], [0.0], [3.0],
                                         [math.log(4.0)])
        root = 2.0 ** (1.0 / 3.0)
        assert abs(lam[0] - root) <= 1e-15 and abs(g[0] - root ** 2) <= 1e-14
        want = [1.0, 1.0 + (2.0 - 1.0) / 4.0]
        while len(want) < len(seen):
            x0, x1 = want[-2:]
            w0, w1 = 2.0 - x0 ** 3, 2.0 - x1 ** 3
            want.append(x1 - w1 * (x1 - x0) / (w1 - w0))
        assert np.allclose(seen, want, rtol=1e-14, atol=0.0)

    def test_secant_of_the_wrong_sign_keeps_the_carried_slope(self):
        # w = 1 + x**2 - x**4 / 4 rises before it falls to its root
        # sqrt(2 + sqrt(8)).  From x = 0 the predicted slope -1 steps to
        # x = 1, where w = 1.75: the secant +0.75 has the wrong sign for
        # slot 0, so the next step takes the carried slope -1 to 2.75, and
        # the root still converges.
        seen = []

        def value(x):
            seen.append(float(x[0]))
            return 1.0 + x ** 2 - 0.25 * x ** 4, np.zeros_like(x), x ** 2

        lam, g = spectral._newton_polish(value, [0.0], [-1.0], [3.0], [0.0])
        root = math.sqrt(2.0 + math.sqrt(8.0))
        assert seen[:3] == [0.0, 1.0, 2.75]
        assert abs(lam[0] - root) <= 1e-15 and abs(g[0] - root ** 2) <= 1e-13

    def test_root_without_a_prediction_starts_at_the_midpoint(self):
        # A log|dw| that is not finite gives no slope: round 1 takes the
        # bracket midpoint, and round 2 the secant through both points.
        seen = []

        def value(x):
            seen.append(float(x[0]))
            return 2.0 - x ** 3, np.zeros_like(x), np.zeros_like(x)

        lam, _ = spectral._newton_polish(value, [1.0], [0.0], [3.0],
                                         [-math.inf])
        assert abs(lam[0] - 2.0 ** (1.0 / 3.0)) <= 1e-15
        assert seen[:3] == [1.0, 0.5 * (1.0 + 3.0), 2.0 - 6.0 / 7.0]

    def test_level_makes_no_derivative_sweep(self, monkeypatch):
        # Every sweep inside ``_level`` is an endpoint or a count sweep.
        sweep, level = ode._sweep, spectral._level
        inside, seen = [], []

        def counted(co, lam, y0, v0, **kwargs):
            if inside:
                seen.append(bool(kwargs.get("deriv")))
            return sweep(co, lam, y0, v0, **kwargs)

        def levelled(*args, **kwargs):
            inside.append(True)
            try:
                return level(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(ode, "_sweep", counted)
        monkeypatch.setattr(spectral, "_sweep", counted)
        monkeypatch.setattr(spectral, "_level", levelled)
        prob = SchrodingerProblem(Potential.from_callable(
            lambda x: 0.3 * sin2pi_potential(x), 320))
        for a, b in NARROW_PAIRS:
            solve_spectrum(prob, a, b, 12)
        assert seen and not any(seen)

    # The steep inputs of the CI spectra: the potential as cosine modes,
    # the pair, N, the grid and the measured (endpoint, count) sweeps of
    # one solve with its tables built first.  With derivative rounds, a
    # derivative sweep costing two endpoint sweeps, they cost 63, 59, 79,
    # 61 and 63.
    STEEP = {"p_resonant": ([0.0] * 23 + [300.0], 1.0, -0.5, 64, 2048,
                            (41, 10)),
             "p_midpoint_generic": ([0.0, 300.0], -6.0, 1.0, 12, 2048,
                                    (44, 6)),
             "p_midpoint_mixed": ([0.0, 0.0, 400.0], INF, 1.0, 8, 2048,
                                  (44, 10)),
             "p_fallback_small": ([0.0, 300.0], INF, INF, 4, 2048, (45, 5)),
             "p_coarse64": ([0.0, 300.0], INF, INF, 64, 256, (45, 5))}

    @pytest.mark.parametrize("name", sorted(STEEP))
    def test_sweep_budget_on_steep_inputs(self, monkeypatch, name):
        coeffs, a, b, N, n, (endpoint, count) = self.STEEP[name]
        prob = SchrodingerProblem(Potential(GridFunction(
            np.asarray(coeffs) @ trig_basis("cosine", len(coeffs), n))))
        sweep = ode._sweep
        modes = []

        def counted(co, lam, y0, v0, **kwargs):
            mode = [m for m in ("count", "deriv", "trace") if kwargs.get(m)]
            modes.append(mode[0] if mode else "endpoint")
            return sweep(co, lam, y0, v0, **kwargs)

        monkeypatch.setattr(ode, "_sweep", counted)
        monkeypatch.setattr(spectral, "_sweep", counted)
        solve_spectrum(prob, a, b, N)
        assert "deriv" not in modes and "trace" not in modes
        assert modes.count("count") <= count
        assert modes.count("endpoint") + modes.count("count") \
            <= endpoint + count

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           cfg=st.sampled_from(["zero", "exp"]),
           pair=st.sampled_from(NARROW_PAIRS), N=st.integers(1, 64),
           n=st.sampled_from([256, 1024, 2048]))
    # The oracle's nu strays here: it carries nu by a stale chord slope to
    # 1.04e-9 from the nu read afresh at its own eigenvalue, where the value
    # rounds land 4.9e-12 from theirs, and the two differed by 1.98e-9.
    @example(coeffs=[0.0, 0.0, 0.0, -1.0, 0.0, 0.0], cfg="zero",
             pair=(-12.0, -12.0), N=1, n=256)
    # Slot 1's nu moves 1.61e-9 between the two polishes, whose lam are
    # 4.7e-12 apart, at dnu/dlam = 345.7: the rounding-limited nu of a
    # near-symmetric deep pair, which the slope term of the bound admits.
    @example(coeffs=[0.0, 0.3828125, 1e-8, 0.0, 0.0, -0.5], cfg="zero",
             pair=(-12.0, -12.0), N=2, n=256)
    def test_matches_derivative_polish(self, coeffs, cfg, pair, N, n):
        # ``oracles.newton_polish`` is the polish before value rounds:
        # derivative rounds, and chord rounds near a root.  Both stop at the
        # same tolerance inside the same brackets, so only the path to each
        # root differs.  Where one raises, so does the other.  The exact
        # ladder is built first, by value rounds, so that both solves take
        # one table.  nu is checked
        # against the read at the solved eigenvalues, and against the
        # oracle's where the oracle's own nu agrees with its read within
        # 1e-10.  Measured over 300 scratch draws: lam within 4.1e-15
        # relative, nu within 6.7e-13 of the oracle's and within 2.1e-13 of
        # the read, the largest at (-12, -12).  Near that symmetric
        # deep pair nu is rounding-limited on 256 cells: reads one ulp of
        # lam apart differ by up to 1.5e-9, and over one-mode slopes of
        # either sign and u the solve and the read differ by up to 2.2e-9,
        # so the bound there is 5e-9; elsewhere they agree within 1e-13.
        # Where the oracle's nu is steady, the two nu may still differ by
        # the lam they were read at: the bound is 1e-9 plus |dlam| times
        # dnu/dlam from a derivative sweep at the oracle's eigenvalues.
        x = np.linspace(0.0, 1.0, n + 1)
        c = np.asarray(coeffs)
        c = c / max(np.linalg.norm(c), 1.0)
        q = c @ (math.sqrt(2.0) * np.sin(np.pi * np.outer(np.arange(1, 7), x)))
        q[[0, -1]] = 0.0
        cond = ConditionU.zero() if cfg == "zero" \
            else ConditionU.exponential(0.5, 1.0)
        prob = ImpedanceProblem(Impedance(GridFunction(q)), cond)
        a, b = pair

        read = ode._end(b).read

        def char(x):
            # The derivative round: w, dw, their log scale, nu and dnu/dlam
            # from one derivative sweep.
            w, dw, scale, res = ode._endpoint_w(prob, x, a, b, True)
            num = ode._pair(read, res["y"], res["v"])
            dnum = ode._pair(read, res["dy"], res["dv"])
            with np.errstate(divide="ignore", invalid="ignore"):
                return w, dw, scale, np.log(np.abs(num)) + scale, np.where(
                    num == 0.0, 0.0, dnum / num)

        def derivative_polish(value, lam, lo, hi, log_dw):
            return newton_polish(char, lam, lo, hi, value)

        try:
            spectral._exact_ladder(a, b, N + 1)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(spectral, "_newton_polish", derivative_polish)
                want = solve_spectrum(prob, a, b, N)
        except BracketError as err:
            with pytest.raises(BracketError, match=re.escape(str(err))):
                solve_spectrum(prob, a, b, N)
            return
        got = solve_spectrum(prob, a, b, N)
        assert np.all(np.abs(got.eigenvalues - want.eigenvalues)
                      <= 2e-12 * np.maximum(1.0, np.abs(want.eigenvalues)))
        bound = 5e-9 if a == b else 1e-11
        assert np.max(np.abs(got.norming - norming_constants(prob, got))) \
            <= bound
        steady = np.abs(want.norming - norming_constants(prob, want)) <= 1e-10
        slope = np.abs(char(want.eigenvalues)[4])
        assert np.all((np.abs(got.norming - want.norming) <= 1e-9 + slope
                       * np.abs(got.eigenvalues - want.eigenvalues))[steady])


# Pairs of the start-rule check: every regime, deep ends on either side and
# on both, each beside a shallow end in both orientations.
START_PAIRS = [(INF, INF), (INF, 1.0), (1.0, -0.5), (-20.0, 3.0),
               (INF, -50.0), (-12.0, -12.0), (3.0, -20.0), (-6.0, 1.0)]


class TestStartRule:
    """Each slot starts from the guess, the mean-shifted zero ladder or its
    bracket midpoint, whichever first lies inside its bracket; no start
    moves a label."""

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           amplitude=st.floats(0.0, 600.0),
           pair=st.sampled_from(START_PAIRS), N=st.sampled_from([4, 12, 64]))
    @example(coeffs=[0.3, -1.0, 0.5, 0.8, -0.2, 0.6], amplitude=600.0,
             pair=(INF, 1.0), N=12)
    # Slot 1, at -138 beside the deep state near -2385, starts from the
    # midpoint of its count bracket, 616 away.  Its polish takes 16 rounds,
    # within the cap of 32.
    @example(coeffs=[0.0, 1.0, 1.0, 1.0, 0.0, 0.0], amplitude=349.0,
             pair=(INF, -50.0), N=4)
    def test_labels_match_count_bisection(self, coeffs, amplitude, pair, N):
        # Steep potentials move the low slots most of a gap off the zero
        # ladder, so at sup|p| = 600 about one slot in eight starts from
        # its bracket midpoint.  The oracle counts every bracket, bisects
        # the sign and takes plain Newton; where it raises there is nothing
        # to compare but the order.  A lower bracket that counts too many
        # jumps to the spectrum floor, so it reaches the state near -2500
        # of (inf, -50).  Measured: 1.4e-14 over 320 of 320 scratch draws,
        # 40 per pair.
        n = 1024
        p = np.asarray(coeffs) @ trig_basis("cosine", 6, n)
        p *= amplitude / max(np.max(np.abs(p)), 1e-300)
        prob = SchrodingerProblem(Potential(GridFunction(p)))
        a, b = pair
        got = solve_spectrum(prob, a, b, N).eigenvalues
        assert np.all(np.diff(got) > 0.0)
        try:
            lam, _ = bisect_level(prob, a, b, N)
        except BracketError:
            return
        assert np.all(np.abs(got - lam) <= 1e-12 * np.maximum(1.0, np.abs(lam)))


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
        # gives the solved constants back.
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

    @pytest.mark.parametrize("a,b", [(INF, INF), (1.0, -0.5), (-20.0, 3.0)])
    def test_stored_reads_use_the_solve_table(self, monkeypatch, a, b):
        # Reads at stored eigenvalues solve nothing: a read that solved a
        # level, as the zero level of a correction table once did, would
        # take a count sweep and the sweeps of a Newton polish.
        prob = six_mode_problem("exp", 512)
        data = solve_spectrum(prob, a, b, 12)
        modes = []
        sweep = ode._sweep

        def spy(*args, **kwargs):
            mode = [m for m in ("count", "deriv", "trace") if kwargs.get(m)]
            modes.append(mode[0] if mode else "endpoint")
            return sweep(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(ode, "_sweep", spy)
            m.setattr(spectral, "_sweep", spy)
            norming_constants(prob, data)
            spectral._stored_quantities(prob, data, 5)
            if a != INF:
                identity_ab(prob, data, 12)
        assert modes and "count" not in modes


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


class TestZeroCorrection:
    """Normal forms need no correction: one level of the problem grid
    solves constant potentials, the zero potential included, to their
    exact ladders."""

    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (1.0, -0.5),
                                     (-20.0, 3.0), (-12.0, -12.0)])
    def test_constant_potentials_at_the_exact_ladder(self, a, b):
        # V = 0, and V = c0 = 0.5 of the impedance problem of q = 0 with
        # u = exp:0.5,1.0.  Measured on 256 cells, N = 64: lam within
        # 1.1e-15 relative; nu within 5.1e-14, and 1.1e-11 at the
        # symmetric deep pair, whose nu moves by e**12 / 576 times the
        # error of lam.
        q = Impedance(GridFunction.zeros(256))
        lam = spectral._exact_ladder(a, b, 64)[0]
        norming = zero_norming(lam, a, b)
        for prob in (SchrodingerProblem(Potential(GridFunction.zeros(256))),
                     ImpedanceProblem(q, ConditionU.exponential(0.5, 1.0))):
            data = solve_spectrum(prob, a, b, 64)
            want = lam + prob.c0
            assert np.max(np.abs(data.eigenvalues - want)
                          / np.maximum(1.0, np.abs(want))) <= 1e-14
            assert np.max(np.abs(data.norming - norming)) <= (
                1e-10 if a == b else 3e-13)

    @pytest.mark.parametrize("a,b", ZERO_PAIRS[:4])
    def test_zero_potential_at_closed_form(self, a, b):
        free = SchrodingerProblem(Potential(GridFunction.zeros(256)))
        data = solve_spectrum(free, a, b, 32)
        lam, norming, _ = closed_form_ladder(a, b, 32)
        scale = np.maximum(1.0, np.abs(lam))
        assert np.max(np.abs(data.eigenvalues - lam) / scale) <= 1e-12
        assert np.max(np.abs(data.norming - norming)) <= 1e-12

    @pytest.mark.parametrize("a,b", ZERO_PAIRS[:4])
    def test_coarse_grid_keeps_slots(self, a, b):
        # 90 slots on 256 cells, up to lam = 8e4: the cells of the zero
        # potential are exact, so the level starts from its own roots.
        free = SchrodingerProblem(Potential(GridFunction.zeros(256)))
        data = solve_spectrum(free, a, b, 90)
        lam = closed_form_ladder(a, b, 90)[0]
        scale = np.maximum(1.0, np.abs(lam))
        assert np.max(np.abs(data.eigenvalues - lam) / scale) <= 1e-12

    @pytest.mark.parametrize("a,b", ZERO_PAIRS)
    def test_discrete_values_match_sweeps(self, a, b):
        # The exact ladder against the discrete eigenvalues of 256 zero
        # cells found by the old root finder, and nu and log|dw| read there
        # by sweeps.  Measured: lam 8.4e-16 relative, nu and log|dw|
        # 7.3e-14.
        n, N = 256, 64
        exact, exact_log_dw = spectral._exact_ladder(a, b, N)
        exact_norming = zero_norming(exact, a, b)
        free = SchrodingerProblem(Potential(GridFunction.zeros(n)))
        lam, forward = bisect_level(free, a, b, N)
        _, log_dw = spectral._endpoint_quantities(free, lam, a, b)
        norming = spectral._norming(free, lam, a, b, forward)
        scale = np.maximum(1.0, np.abs(lam))
        assert np.max(np.abs(exact - lam) / scale) <= 4e-15
        assert np.max(np.abs(exact_norming - norming)) <= 3e-13
        assert np.max(np.abs(exact_log_dw - log_dw)) <= 3e-13

    @pytest.mark.parametrize("a,b", [(-12.0, -12.0), (3.0, -20.0),
                                     (INF, -50.0), (INF, 1.0), (1.0, -0.5)])
    def test_norming_row_read_at_the_discrete_roots(self, a, b):
        # A solve's nu row is the nu its polish carried to each root by
        # the secant of nu; a read at the roots it returns agrees with it,
        # and both with the exact nu.  A slot that converges in its first
        # round carries the read at its start.
        n, N = 256, 8
        lam = spectral._exact_ladder(a, b, N)[0]
        norming = zero_norming(lam, a, b)
        free = SchrodingerProblem(Potential(GridFunction.zeros(n)))
        data = solve_spectrum(free, a, b, N)
        bound = 1e-10 if a == b else 1e-12
        assert np.max(np.abs(data.norming - norming_constants(free, data))) \
            <= bound
        assert np.max(np.abs(data.norming - norming)) <= bound

    def test_pair_rounding_cannot_split_raises(self):
        # At a = b = -38 the two boundary states lie 3.6e-13 apart, 1.6 ulp
        # of 1444, and their closed-form starts round to one float; a = b =
        # -37 (9.3e-13 apart) still solves.
        free = SchrodingerProblem(Potential(GridFunction.zeros(1024)))
        message = (r"at \(a, b\) = \(-38, -38\) the zero problem's two "
                   "boundary states lie closer than rounding can split")
        with pytest.raises(BracketError, match=message):
            spectral._exact_ladder(-38.0, -38.0, 8)
        for pv in (lambda x: 0.0 * x, lambda x: 0.3 * np.cos(2.0 * np.pi * x)):
            with pytest.raises(BracketError, match=message):
                solve_spectrum(SchrodingerProblem(Potential.from_callable(
                    pv, 1024)), -38.0, -38.0, 4)
        lam = solve_spectrum(free, -37.0, -37.0, 4).eigenvalues
        assert lam[0] < lam[1] < -1368.0

    @pytest.mark.parametrize("n,a", [(128, -36.620000000000005),
                                     (256, -37.18), (1024, -37.18)])
    def test_deep_equal_pair_solves_where_the_zero_level_split(self, n, a):
        # Here ``_exact_ladder`` splits the two boundary states, and the
        # zero-potential level of the correction, on n cells, did not: it
        # refused the pair by name.  The level of the zero potential is
        # now the exact ladder itself.
        free = SchrodingerProblem(Potential(GridFunction.zeros(n)))
        lam = solve_spectrum(free, a, a, 4).eigenvalues
        exact = spectral._exact_ladder(a, a, 4)[0]
        assert lam[0] < lam[1]
        assert np.max(np.abs(lam - exact) / np.abs(exact)) < 1e-13

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
        lam = spectral._exact_ladder(a, b, 16)[0]
        assert np.all(np.diff(lam) > 0.0)
        step = 1e-6 * np.maximum(1.0, np.abs(lam))
        ends = (spectral._end(a).data, spectral._end(b).closing)
        w_lo = spectral._zero_pairing(lam - step, *ends)[0]
        w_hi = spectral._zero_pairing(lam + step, *ends)[0]
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

    @pytest.mark.parametrize("a,b", [(-12.0, -12.0), (-15.0, -13.5)])
    def test_one_level_where_boundary_states_nearly_coincide(self, a, b):
        # Two deep Robin ends hold two boundary states 7.6e-3 and 43 apart.
        # The closed-form ladders split them branch by branch, so these
        # pairs take one level like any other, checked against a solve on
        # eight times the cells.  The potential is even, so at
        # (-12, -12) the two states are the even and odd mixtures of the
        # end states, and nu, about 0, moves by e**12 / 576 times the error
        # of lam.  Measured: lam 5.2e-14 and 5.9e-14 relative; nu 2.2e-10
        # and 6.9e-12; trace-identity ratios 2.4e-10 and 1.4e-11 relative.
        def prob(n):
            return SchrodingerProblem(Potential.from_callable(
                lambda x: 0.3 * sin2pi_potential(x), n))

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


class TestZeroPairing:
    """The zero problem's closed form takes its lam-slope by complex step,
    checked against two references that share none of its code."""

    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (INF, 0.0),
                                     (1.0, -0.5), (2.0, 3.0)])
    def test_slope_is_the_lagrange_identity(self, a, b):
        # At the roots of pairs without negative eigenvalues, dw is
        # int y**2 / y'(1) (or -int y**2 / y(1)) of the closed-form shot.
        # Measured over 32 slots: log|dw| within 1.8e-15.
        lam, _, log_dw = closed_form_ladder(a, b, 32)
        slope = spectral._zero_pairing(lam, spectral._end(a).data,
                                       spectral._end(b).closing)[1]
        assert np.max(np.abs(np.log(np.abs(slope)) - log_dw)) <= 2e-14

    @pytest.mark.parametrize("a,b", ZERO_PAIRS + [(-20.0, 3.0), (INF, -50.0),
                                                 (-12.0, -12.0)])
    def test_slope_is_the_central_difference(self, a, b):
        # Deep lam, both sides of the branch switch at lam = -1, inside
        # the Taylor disc of ``ode._cosh_sinc`` (lam = 0 included) and far
        # up the ladder; the closing row and both norming reads.  Against
        # the five-point central difference of the value with steps of
        # 1e-3 max(1, sqrt|lam|), relative to |slope| + |value| / max(1,
        # |lam|), since some slopes vanish (that of y(1) from (1, -3) at
        # lam = 0).  Measured: 3.3e-11 at lam = 4e4, 7.1e-12 at -2500,
        # below 1e-12 elsewhere.
        lam = np.array([-2500.0, -50.0, -1.0 - 1e-9, -1.0 + 1e-9, 0.0, 0.3,
                        -0.7, 0.99, 4e4])
        step = 1e-3 * np.maximum(1.0, np.sqrt(np.abs(lam)))
        left, right = spectral._end(a), spectral._end(b)
        for data, row in ((left.data, right.closing), (left.data, right.read),
                          (right.data, left.read)):
            value, slope = spectral._zero_pairing(lam, data, row)
            f = [spectral._zero_pairing(lam + k * step, data, row)[0]
                 for k in (-2, -1, 1, 2)]
            central = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * step)
            scale = np.abs(slope) + np.abs(value) / np.maximum(1.0,
                                                               np.abs(lam))
            assert np.all(np.abs(slope - central) <= 3.3e-10 * scale)


class TestMemoizedLadders:
    """The zero ladders depend on (a, b, N) alone; each is solved once per
    process, by no sweep, and shared read-only."""

    @pytest.mark.parametrize("a,b", [(-12.0, -12.0), (-20.0, 3.0),
                                     (INF, -50.0)])
    def test_equal_to_a_fresh_build(self, a, b):
        ladder = spectral._exact_ladder(a, b, 8)
        assert spectral._exact_ladder(a, b, 8) is ladder
        spectral._exact_ladder.cache_clear()
        for got_row, want_row in zip(ladder,
                                     spectral._exact_ladder.__wrapped__(
                                         a, b, 8)):
            assert np.array_equal(got_row, want_row)

    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (1.0, -0.5),
                                     (-20.0, 3.0)])
    def test_repeated_solves_make_the_same_sweeps(self, monkeypatch, a, b):
        # Identical solves of fresh problems make the same sweeps, mode by
        # mode and width by width, the first included: it runs with the
        # zero ladders cleared, on a grid no other solve takes, and builds
        # no table by sweeps.  The benchmark's self-test asks the same of
        # its first two ops.
        def solve():
            prob = SchrodingerProblem(Potential.from_callable(
                lambda x: 0.4 * np.cos(2.0 * np.pi * x), 320))
            return solve_spectrum(prob, a, b, 2)

        spectral._exact_ladder.cache_clear()
        sweep = ode._sweep
        calls = []

        def spy(co, lam, y0, v0, **kwargs):
            mode = [m for m in ("count", "deriv", "trace") if kwargs.get(m)]
            calls[-1].append((mode[0] if mode else "endpoint", np.size(lam)))
            return sweep(co, lam, y0, v0, **kwargs)

        monkeypatch.setattr(ode, "_sweep", spy)
        monkeypatch.setattr(spectral, "_sweep", spy)
        for _ in range(3):
            calls.append([])
            solve()
        assert calls[0] and calls[0] == calls[1] == calls[2]

    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (1.0, -0.5)])
    def test_read_only(self, a, b):
        for row in spectral._exact_ladder(a, b, 4):
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

    @pytest.mark.parametrize("A", [0.0, 0.3])
    @pytest.mark.parametrize("a,b", [(-25.0, 1.0), (-30.0, -2.0),
                                     (-55.0, -2.4), (-15.0, -15.0),
                                     (-20.0, -20.0), (-30.0, -30.0)])
    def test_coarse_grids(self, a, b, A):
        # On at most 512 cells the scan's tree stops at a quarter of the
        # grid; one product over all of it cancelled the state near -a**2.
        # Against 1024 cells, measured: lam 4.6e-10 relative, nu of unequal
        # pairs 8.4e-6.  nu of an equal pair moves by e**|a| / (4 a**2)
        # times the rounding of lam, so it is only finite.
        def solve(n):
            return solve_spectrum(SchrodingerProblem(Potential.from_callable(
                lambda x: A * math.sqrt(2.0) * np.cos(2.0 * np.pi * x), n)),
                a, b, 4)

        ref = solve(1024)
        for n in (128, 256, 257):
            data = solve(n)
            assert np.all(np.abs(data.eigenvalues - ref.eigenvalues)
                          <= 1e-8 * np.maximum(1.0, np.abs(ref.eigenvalues)))
            assert np.all(np.isfinite(data.norming))
            if a != b:
                assert np.max(np.abs(data.norming - ref.norming)) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(a=st.one_of(st.just(INF), st.floats(-40.0, 5.0)),
           b=st.floats(-40.0, 5.0), equal=st.booleans(),
           n=st.sampled_from([128, 256, 257, 1024]), N=st.integers(1, 8),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           sup=st.floats(0.0, 30.0))
    # Equal pairs from about -36 down hold two states a few ulps apart,
    # where a solve could return two equal eigenvalues, leave a polish of
    # the problem's or the zero problem's ladder unconverged, or read
    # nu = nan; on 257 cells the unequal pair's forward read of its deep
    # state rounds to exactly 0.
    @example(a=-37.0, b=-37.0, equal=True, n=128, N=2, coeffs=[0.0] * 4,
             sup=0.0)
    @example(a=-36.825, b=-36.825, equal=True, n=1024, N=2,
             coeffs=[0.0, 1.0, 0.0, 0.0], sup=20.0 * math.sqrt(2.0))
    @example(a=-37.475, b=-37.475, equal=True, n=128, N=1, coeffs=[0.0] * 4,
             sup=0.0)
    @example(a=-37.87852847556983, b=-37.87852847556983, equal=True, n=257,
             N=1, coeffs=[0.0] * 4, sup=0.0)
    @example(a=-38.2912, b=-36.3275, equal=False, n=257, N=3,
             coeffs=[0.0] * 4, sup=0.0)
    def test_every_pair_solves(self, a, b, equal, n, N, coeffs, sup):
        # Over the pair space of the scan, every solve gives increasing
        # eigenvalues and finite norming constants, or refuses by name a
        # pair whose two boundary states rounding cannot split (a = b below
        # about -36).  The quadrature mean of a cosine on 257 cells is not
        # zero, so it is taken off.
        if equal:
            a = b
        p = np.asarray(coeffs) @ trig_basis("cosine", 4, n)
        p = GridFunction(p * sup / max(np.max(np.abs(p)), 1e-300))
        prob = SchrodingerProblem(Potential(p - integral(p)))
        try:
            data = solve_spectrum(prob, a, b, N)
        except BracketError as err:
            assert "closer than rounding can split" in str(err)
            return
        assert np.all(np.diff(data.eigenvalues) > 0.0)
        assert np.all(np.isfinite(data.norming))

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

    @pytest.mark.parametrize("A", [150.0, 169.0, 200.0, 300.0])
    def test_steep_potential_under_deep_right_end(self, A):
        # Slot 1 starts about 500 below its root, where Newton crawls in
        # steps that halve too slowly (40, then 20, ...) and used to run out
        # of rounds; the second of two steps in a row, each longer than half
        # the one before, now takes the bracket midpoint.  Measured against
        # the finite differences:
        # 1.7e-9 to 2.4e-8; nu against 8192 cells: 5.2e-7 to 1.1e-6.
        def pv(x):
            return A * math.sqrt(2.0) * np.cos(3.0 * np.pi * x)

        def solve(n):
            prob = SchrodingerProblem(Potential.from_callable(pv, n))
            return solve_spectrum(prob, INF, -50.0, 9)

        data, fine = solve(1024), solve(8192)
        ref = oracle_eigenvalues(pv, 9, b=-50.0)
        assert np.max(np.abs(data.eigenvalues - ref) / np.abs(ref)) < 1e-7
        assert np.max(np.abs(data.norming - fine.norming)) < 1e-5


def benchmark_slope(seed, i):
    """The unit six-mode slope of op i of the benchmark's spectra workload."""
    c = np.random.default_rng([seed, i]).normal(size=6)
    return c / np.linalg.norm(c), math.pi * np.arange(1, 7)


class TestBenchmarkInputs:
    """The inputs of the seed-0 spectra benchmark."""

    def test_sweep_budget(self, monkeypatch):
        # The first 24 ops solve N = 64 at n = 2048 in the impedance
        # picture; a Robin-Robin op is checked by solving its normal form
        # too.  Those 32 solves took 158 derivative and 140 endpoint sweeps
        # with starts from the Pruefer phase of the count sweep, 142 and 132
        # from the mean-shifted zero ladder with chord rounds, 4 and 215
        # with value rounds and a derivative-round fallback, and take 0 and
        # 217 with value rounds alone: in endpoint sweeps, a derivative
        # sweep costing two, 223 fell to 217.  Each makes one narrow count
        # sweep.  No solve reads a table built by sweeps.
        pairs = ((INF, INF), (INF, 1.0), (1.0, -0.5))
        sweep = ode._sweep
        modes = []

        def counted(co, lam, y0, v0, **kwargs):
            mode = [m for m in ("count", "deriv", "trace") if kwargs.get(m)]
            modes.append(mode[0] if mode else "endpoint")
            return sweep(co, lam, y0, v0, **kwargs)

        monkeypatch.setattr(ode, "_sweep", counted)
        monkeypatch.setattr(spectral, "_sweep", counted)
        x = np.linspace(0.0, 1.0, 2049)
        for i in range(24):
            c, w = benchmark_slope(0, i)
            grid = c @ (math.sqrt(2.0) * np.sin(np.outer(w, x)))
            grid[[0, -1]] = 0.0
            q = Impedance(GridFunction(grid))
            cfg = ConditionU.exponential(0.5, 1.0) if i % 2 \
                else ConditionU.zero()
            a, b = pairs[i % 3]
            solve_spectrum(ImpedanceProblem(q, cfg), a, b, 64)
            if math.isfinite(a):
                solve_spectrum(SchrodingerProblem(forward_transform(q, cfg)),
                               a, b, 64)
        assert modes.count("count") == 32
        assert modes.count("deriv") == 0
        assert modes.count("endpoint") <= 217
        assert modes.count("trace") == 0

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
