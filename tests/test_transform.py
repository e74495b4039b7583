"""Change of picture: profile building, forward map, estimates, derivative."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (ConditionError, ConditionU, DecayTerm, GridFunction,
                       Impedance, MonotoneBound, Potential, RangeError,
                       build_rho, calibrate_bounds, compute_c0, differentiate,
                       estimate_suite, evaluate_u, forward_transform,
                       frechet_apply, inner_product, integral, l2_norm,
                       sup_norm, symmetry_defect, trig_basis)
from oracles import (SIN2PI_NORM_SQ, composed_forward_transform,
                     composed_frechet_apply, sin2pi_potential)


def imp(fn, n=2048):
    return Impedance(GridFunction.from_callable(fn, n))


def sine_combo(coeffs, n=2048):
    """Impedance whose slope is sum_k coeffs[k-1] * sqrt(2) sin(pi k x)."""

    def fn(x):
        out = np.zeros_like(x)
        for k, c in enumerate(coeffs, start=1):
            out += c * math.sqrt(2.0) * np.sin(math.pi * k * x)
        return out

    return imp(fn, n)


SIN2PI = imp(lambda x: np.sin(2 * np.pi * x))
TWO_MODE = imp(lambda x: 0.4 * np.sin(2 * np.pi * x)
               - 0.2 * np.sin(4 * np.pi * x))


class TestValidation:
    def test_impedance_needs_vanishing_endpoints(self):
        with pytest.raises(ValueError):
            Impedance(GridFunction.from_callable(lambda x: np.cos(np.pi * x),
                                                 256))

    def test_potential_needs_zero_mean(self):
        with pytest.raises(ValueError):
            Potential(GridFunction.from_callable(lambda x: 1.0 + 0.0 * x,
                                                 256))

    def test_monotone_bound_rejects_decreasing(self):
        with pytest.raises(ValueError):
            MonotoneBound(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            MonotoneBound(np.array([1.0, 0.0]), np.array([1.0, 2.0]))

    def test_monotone_bound_is_a_step_function(self):
        F = MonotoneBound(np.array([0.0, 1.0, 2.0]),
                          np.array([1.0, 3.0, 7.0]))
        assert F(-5.0) == 1.0
        assert F(0.5) == 1.0
        assert F(1.0) == 3.0
        assert F(10.0) == 7.0


class TestProfile:
    def test_log_profile_closed_form(self):
        profile = build_rho(SIN2PI)
        x = profile.Q.x
        exact = (1.0 - np.cos(2 * np.pi * x)) / (2 * np.pi)
        assert np.max(np.abs(profile.Q.values - exact)) < 1e-10
        assert np.max(np.abs(profile.rho.values - np.exp(exact))) < 1e-10

    def test_right_endpoint_values(self):
        assert build_rho(SIN2PI).rho1 == pytest.approx(1.0, abs=1e-10)
        hump = imp(lambda x: np.sin(np.pi * x))
        assert build_rho(hump).rho1 == pytest.approx(math.exp(2 / math.pi),
                                                     rel=1e-10)

    def test_runaway_profile_is_rejected(self):
        huge = imp(lambda x: 2000.0 * np.sin(np.pi * x))
        with pytest.raises(RangeError):
            build_rho(huge)


class TestForwardMap:
    def test_spectral_shift_closed_form(self):
        assert compute_c0(SIN2PI, ConditionU.zero()) == pytest.approx(
            0.5, abs=1e-12)

    def test_closed_form_potential(self):
        p = forward_transform(SIN2PI)
        exact = sin2pi_potential(p.f.x)
        assert np.max(np.abs(p.f.values - exact)) < 5e-10

    def test_closed_form_norm(self):
        p = forward_transform(SIN2PI)
        assert inner_product(p.f, p.f) == pytest.approx(SIN2PI_NORM_SQ,
                                                        rel=1e-9)

    def test_perturbation_enters_linearly(self):
        cfg = ConditionU.exponential(0.5, 1.0)
        p0 = forward_transform(TWO_MODE)
        pu = forward_transform(TWO_MODE, cfg)
        u = evaluate_u(TWO_MODE, cfg)
        diff = pu.f - p0.f
        expected = u - GridFunction.constant(integral(u), u.n)
        assert sup_norm(diff - expected) < 1e-12

    def test_perturbation_closed_form(self):
        cfg = ConditionU(u1=(0.0, 0.3, 0.1),
                         u2=DecayTerm("exp", E=0.7, beta=2.0))
        u = evaluate_u(SIN2PI, cfg)
        x = u.x
        q = np.sin(2 * np.pi * x)
        Q = (1.0 - np.cos(2 * np.pi * x)) / (2 * np.pi)
        exact = 0.3 * q + 0.1 * q ** 2 + 0.7 * np.exp(-2.0 * Q)
        assert np.max(np.abs(u.values - exact)) < 1e-10

    def test_output_has_zero_mean(self):
        for q, cfg in [(SIN2PI, None),
                       (TWO_MODE, ConditionU.exponential(0.5, 1.0,
                                                         u1=(0.0, 0.2)))]:
            p = forward_transform(q, cfg)
            assert abs(integral(p.f)) < 1e-13

    @given(st.lists(st.floats(-0.8, 0.8), min_size=1, max_size=4),
           st.floats(0.0, 1.0), st.floats(0.5, 2.0))
    @settings(deadline=None, max_examples=25)
    def test_zero_mean_is_invariant(self, coeffs, E, beta):
        q = sine_combo(coeffs, n=512)
        cfg = ConditionU.exponential(E, beta)
        p = forward_transform(q, cfg)
        assert abs(integral(p.f)) < 1e-12


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


MAP_CONFIGS = {
    "zero": ConditionU.zero(),
    "exp": ConditionU.exponential(0.5, 1.0, u1=(0.0, 0.2, 0.1)),
    "poly": ConditionU(u1=(0.1, -0.3),
                       u2=DecayTerm("poly", coeffs=(0.2, -0.3, 0.0, -0.1))),
}
RUNAWAY = (lambda x: 2000.0 * np.sin(np.pi * x), ConditionU.zero(), RangeError)
INCREASING = (lambda x: np.sin(2 * np.pi * x),
              ConditionU(u2=DecayTerm("poly", coeffs=(0.0, 1.0))),
              ConditionError)


class TestArrayMap:
    """The array-level map against its GridFunction composition."""

    @pytest.mark.parametrize("kind", sorted(MAP_CONFIGS))
    @pytest.mark.parametrize("n", [16, 17, 256, 2048])
    def test_bit_identical_to_composed_map(self, n, kind):
        cfg = MAP_CONFIGS[kind]
        q = sine_combo([0.9, -0.5, 0.7, 0.2, -0.3, 0.1], n)
        u, c0, p = composed_forward_transform(q, cfg)
        assert bits(forward_transform(q, cfg).f.values) == bits(p.f.values)
        assert bits(evaluate_u(q, cfg).values) == bits(u.values)
        assert compute_c0(q, cfg) == c0
        rows = trig_basis("sine", 5, n)
        assert bits(frechet_apply(q, cfg, rows)) == bits(
            composed_frechet_apply(q, cfg, rows))
        assert bits(frechet_apply(q, cfg, GridFunction(rows[2])).values) == bits(
            composed_frechet_apply(q, cfg, rows[2]))

    def test_default_condition_is_zero(self):
        q = sine_combo([0.4, -0.2], 256)
        assert bits(forward_transform(q).f.values) == bits(
            composed_forward_transform(q, ConditionU.zero())[2].f.values)

    @pytest.mark.parametrize("case", [RUNAWAY, INCREASING],
                             ids=["range", "condition"])
    @pytest.mark.parametrize("call", [
        lambda q, cfg: forward_transform(q, cfg),
        lambda q, cfg: evaluate_u(q, cfg),
        lambda q, cfg: compute_c0(q, cfg),
        lambda q, cfg: frechet_apply(q, cfg, trig_basis("sine", 3, q.n)),
    ], ids=["forward", "u", "c0", "frechet"])
    def test_guards_still_raise(self, call, case):
        fn, cfg, error = case
        q = imp(fn, 256)
        for _ in range(2):
            with pytest.raises(error):
                call(q, cfg)

    def test_construction_past_the_range_limit(self):
        q = imp(RUNAWAY[0], 256)
        with pytest.raises(RangeError, match="accumulated log-impedance"):
            q.Q
        with pytest.raises(RangeError):
            q.Q_sup
        with pytest.raises(RangeError):
            build_rho(q)

    def test_derived_arrays_are_read_only_and_shared(self):
        q = TWO_MODE
        assert bits(q.dq) == bits(differentiate(q.f).values)
        assert q.Q is q.Q
        assert q.Q_sup == sup_norm(build_rho(q).Q)
        assert bits(build_rho(q).Q.values) == bits(q.Q)
        for a in (q.dq, q.Q):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[1] = 0.0


class TestEstimates:
    def test_all_rows_hold_without_perturbation(self):
        report = estimate_suite(SIN2PI)
        assert report.passed
        names = {r.name for r in report.rows}
        assert "pe4_identity" in names
        assert report.row("pe1_identity").margin < 1e-8

    def test_all_rows_hold_with_perturbation(self):
        cfg = ConditionU.exponential(0.5, 1.0, u1=(0.0, 0.2, 0.1))
        report = estimate_suite(TWO_MODE, cfg)
        assert report.passed
        names = {r.name for r in report.rows}
        assert "pe4_identity" not in names
        assert {"pe1_identity", "pe1_lower", "pu2_decay", "pu_h", "pe3",
                "theorem_lower", "theorem_upper"} <= names

    def test_row_lookup(self):
        report = estimate_suite(SIN2PI)
        assert report.row("pe3").name == "pe3"
        with pytest.raises(KeyError):
            report.row("no_such_row")

    def test_identity_on_randomized_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            coeffs = rng.uniform(-1.0, 1.0, size=k)
            coeffs *= rng.uniform(0.1, 1.5) / max(np.abs(coeffs).max(), 1e-3)
            q = sine_combo(coeffs, n=512)
            if rng.random() < 0.5:
                cfg = ConditionU.zero()
            else:
                u1 = (0.0, rng.uniform(-0.5, 0.5)) if rng.random() < 0.5 else ()
                cfg = ConditionU.exponential(rng.uniform(0.0, 1.0),
                                             rng.uniform(0.3, 3.0), u1=u1)
            report = estimate_suite(q, cfg)
            row = report.row("pe1_identity")
            assert row.satisfied and row.margin < 1e-8
            assert report.row("pe1_lower").satisfied

    def test_calibration_produces_monotone_majorants(self):
        cfg = ConditionU.exponential(0.8, 1.5, u1=(0.0, 0.4, 0.2))
        out = calibrate_bounds(cfg, [SIN2PI, TWO_MODE])
        assert out.F1 is not None and out.F2 is not None
        for F in (out.F1, out.F2):
            grid = np.linspace(0.0, 10.0, 50)
            vals = [F(r) for r in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for q in (SIN2PI, TWO_MODE):
            u1q = GridFunction(cfg.u1_value(q.f.values))
            u1dq = GridFunction(cfg.u1_derivative(q.f.values))
            assert out.F1(l2_norm(differentiate(q.f))) + 1e-9 >= max(
                l2_norm(u1q), l2_norm(u1dq))
            u2d = GridFunction(cfg.u2.derivative(build_rho(q).Q.values))
            assert out.F2(l2_norm(q.f)) + 1e-9 >= l2_norm(u2d)


class TestDecayCondition:
    def test_increasing_polynomial_tail_rejected(self):
        cfg = ConditionU(u2=DecayTerm("poly", coeffs=(0.0, 1.0)))
        with pytest.raises(ConditionError):
            evaluate_u(SIN2PI, cfg)

    def test_negative_amplitude_exponential_rejected(self):
        with pytest.raises(ConditionError):
            DecayTerm("exp", E=-1.0, beta=1.0)

    def test_decaying_polynomial_accepted(self):
        cfg = ConditionU(u2=DecayTerm("poly", coeffs=(1.0, -0.5)))
        u = evaluate_u(SIN2PI, cfg)
        assert u.n == SIN2PI.f.n


class TestFrechetDerivative:
    def test_direction_must_vanish_at_endpoints(self):
        bad = GridFunction.from_callable(lambda x: np.cos(np.pi * x), 2048)
        with pytest.raises(ValueError):
            frechet_apply(SIN2PI, ConditionU.zero(), bad)

    def test_diagonal_at_flat_profile(self):
        n = 2048
        zero = Impedance(GridFunction.zeros(n))
        cfg = ConditionU.zero()
        K = 16
        mat = np.zeros((K, K))
        for k in range(1, K + 1):
            e = GridFunction.from_callable(
                lambda x, k=k: math.sqrt(2) * np.sin(math.pi * k * x), n)
            image = frechet_apply(zero, cfg, e)
            for j in range(1, K + 1):
                c = GridFunction.from_callable(
                    lambda x, j=j: math.sqrt(2) * np.cos(math.pi * j * x), n)
                mat[j - 1, k - 1] = inner_product(image, c)
        assert np.max(np.abs(mat - np.diag(
            math.pi * np.arange(1, K + 1)))) < 1e-4

    @pytest.mark.parametrize("base,cfg", [
        (lambda x: 0.3 * np.sin(2 * np.pi * x), ConditionU.zero()),
        (lambda x: 0.4 * np.sin(2 * np.pi * x) - 0.2 * np.sin(4 * np.pi * x),
         ConditionU.exponential(0.5, 1.0, u1=(0.0, 0.2))),
        (lambda x: 0.4 * np.sin(2 * np.pi * x),
         ConditionU(u2=DecayTerm("poly", coeffs=(0.2, -0.3, 0.0, -0.1)))),
    ])
    def test_matches_finite_differences(self, base, cfg):
        n, delta = 1024, 1e-6
        q = GridFunction.from_callable(base, n)
        worst = 0.0
        for k in range(1, 17):
            e = GridFunction.from_callable(
                lambda x, k=k: math.sqrt(2) * np.sin(math.pi * k * x), n)
            plus = forward_transform(Impedance(q + e * delta), cfg)
            minus = forward_transform(Impedance(q - e * delta), cfg)
            fd = (plus.f - minus.f) * (0.5 / delta)
            exact = frechet_apply(Impedance(q), cfg, e)
            worst = max(worst, sup_norm(fd - exact))
        assert worst < 1e-4

    def test_linearity(self):
        n = 1024
        cfg = ConditionU.exponential(0.3, 1.0)
        q = Impedance(GridFunction.from_callable(
            lambda x: 0.5 * np.sin(2 * np.pi * x), n))
        f = GridFunction.from_callable(lambda x: np.sin(np.pi * x), n)
        g = GridFunction.from_callable(lambda x: np.sin(3 * np.pi * x), n)
        lhs = frechet_apply(q, cfg, f * 2.0 + g * (-0.7))
        rhs = frechet_apply(q, cfg, f) * 2.0 + frechet_apply(q, cfg, g) * (-0.7)
        assert sup_norm(lhs - rhs) < 1e-11

    @pytest.mark.parametrize("cfg", [
        ConditionU.zero(),
        ConditionU.exponential(0.5, 1.0, u1=(0.0, 0.2)),
        ConditionU(u2=DecayTerm("poly", coeffs=(0.2, -0.3, 0.0, -0.1))),
    ])
    @pytest.mark.parametrize("n", [2048, 1023])
    def test_rows_match_one_row_calls(self, cfg, n):
        q = Impedance(GridFunction.from_callable(
            lambda x: 0.6 * np.sin(np.pi * x) - 0.4 * np.sin(3 * np.pi * x), n))
        rows = trig_basis("sine", 16, n)
        batched = frechet_apply(q, cfg, rows)
        single = np.stack([frechet_apply(q, cfg, GridFunction(r)).values
                           for r in rows])
        assert batched.shape == rows.shape
        assert np.max(np.abs(batched - single)) <= 1e-15 * np.max(np.abs(single))

    def test_every_row_is_checked(self):
        rows = trig_basis("sine", 4, 2048)
        rows[2, -1] = 1e-6
        with pytest.raises(ValueError, match="endpoints"):
            frechet_apply(SIN2PI, ConditionU.zero(), rows)
        with pytest.raises(ValueError, match="grids"):
            frechet_apply(SIN2PI, ConditionU.zero(), trig_basis("sine", 4, 1024))


class TestSymmetry:
    def test_odd_slope_gives_even_potential(self):
        assert symmetry_defect(SIN2PI.f, "odd") < 1e-14
        p = forward_transform(SIN2PI)
        assert symmetry_defect(p.f, "even") < 1e-10

    def test_two_mode_odd_slope(self):
        q = imp(lambda x: np.sin(2 * np.pi * x) - 0.3 * np.sin(4 * np.pi * x))
        p = forward_transform(q)
        assert symmetry_defect(p.f, "even") < 1e-10
