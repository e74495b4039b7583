"""Newton inversion of the forward map and Gauss-Newton spectral fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (INF, ConditionU, DecayTerm, FitTarget, GridFunction,
                       Impedance, InversionConfig, InversionError, Potential,
                       SchrodingerProblem, TargetError,
                       fit_impedance_detailed, fit_potential,
                       fit_potential_detailed, forward_transform,
                       invert_transform, invert_transform_detailed, l2_norm,
                       resample, solve_spectrum, sup_norm, symmetry_defect)
from liouville import inverse
from liouville.grid import trig_basis
from liouville.inverse import _FitMap, _GalerkinMap
from oracles import fd_fit_jacobian, loop_galerkin_jacobian


def sine_slope(coeffs, n=2048, scale=1.0):
    def fn(x):
        out = np.zeros_like(x)
        for k, c in enumerate(coeffs, start=1):
            out += c * np.sin(math.pi * k * x)
        return scale * out

    return Impedance(GridFunction.from_callable(fn, n))


def q_error(q_got, q_want):
    f = q_got.f if q_got.f.n == q_want.f.n else resample(q_got.f, q_want.f.n)
    return l2_norm(f - q_want.f)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(basis_size=0)
        with pytest.raises(ValueError):
            InversionConfig(tol=0.0)

    def test_no_jobs_knob(self):
        # The iteration caps are module constants, not knobs.
        for knob in ("jobs", "max_iter", "max_halvings", "homotopy_stages"):
            with pytest.raises(TypeError):
                InversionConfig(**{knob: 2})
        assert [f.name for f in dataclasses.fields(InversionConfig)] == [
            "basis_size", "tol", "fit_grid"]

    def test_defaults_are_modest(self):
        icfg = InversionConfig()
        assert icfg.basis_size == 16
        assert icfg.tol == 1e-9


class TestRoundtrips:
    def test_plain_roundtrip(self):
        q_star = sine_slope([0.0, 1.0, 0.0, -0.2])
        report = invert_transform_detailed(forward_transform(q_star))
        assert report.converged
        assert not report.used_homotopy
        assert report.full_residual < 1e-9
        assert q_error(report.q, q_star) < 1e-6

    def test_roundtrip_with_perturbation(self):
        q_star = sine_slope([0.3, 0.8, -0.1])
        cfg = ConditionU.exponential(0.5, 1.0)
        q = invert_transform(forward_transform(q_star, cfg), cfg)
        assert q_error(q, q_star) < 1e-6
        assert q.f.values[0] == 0.0 and q.f.values[-1] == 0.0

    def test_quadratic_contraction(self):
        q_star = sine_slope([0.0, 1.0, 0.0, -0.2])
        report = invert_transform_detailed(forward_transform(q_star))
        r = [v for v in report.residuals if v > 1e-13]
        assert len(r) >= 3
        ratios = [r[i + 1] / r[i] ** 2 for i in range(len(r) - 1)]
        assert all(rho < 100.0 for rho in ratios)

    def test_steep_target_needs_continuation(self):
        q_star = sine_slope([1.0, 0.6, -0.8, 0.0, 0.5, 0.0, 0.0, -0.4],
                            scale=15.0)
        report = invert_transform_detailed(forward_transform(q_star))
        assert report.converged
        assert report.used_homotopy
        assert q_error(report.q, q_star) < 1e-6

    def test_off_span_target_rejected(self):
        p = Potential.from_callable(
            lambda x: math.sqrt(2.0) * np.cos(12.0 * math.pi * x), 2048)
        icfg = InversionConfig(basis_size=8)
        with pytest.raises(InversionError, match="outside"):
            invert_transform(p, icfg=icfg)

    def test_odd_symmetry_survives(self):
        q_star = sine_slope([0.0, 1.0, 0.0, -0.3])
        assert symmetry_defect(q_star.f, "odd") < 1e-14
        q = invert_transform(forward_transform(q_star))
        assert symmetry_defect(q.f, "odd") < 1e-6


JACOBIAN_CFGS = {
    "zero": ConditionU.zero(),
    "exp": ConditionU.exponential(0.5, 1.0),
    "u1-exp": ConditionU.exponential(0.5, 1.0, u1=(0.0, 0.2)),
    "poly": ConditionU(u2=DecayTerm("poly", coeffs=(0.2, -0.3, 0.0, -0.1))),
}


class TestBatchedJacobian:
    """The assembled Galerkin Jacobian against the K-call column loop."""

    @pytest.mark.parametrize("cfg", list(JACOBIAN_CFGS.values()),
                             ids=list(JACOBIAN_CFGS))
    @pytest.mark.parametrize("n", [2048, 1023])
    @pytest.mark.parametrize("K", [1, 16])
    def test_matches_column_loop(self, cfg, n, K):
        q = sine_slope([0.8, -0.5, 0.3, 0.0, 0.2, -0.1], n)
        gmap = _GalerkinMap(forward_transform(q, cfg), cfg,
                            InversionConfig(basis_size=K))
        got = gmap.jacobian(q)
        want = loop_galerkin_jacobian(gmap, q)
        assert got.shape == (K, K)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           peak=st.floats(0.0, 10.0), n=st.sampled_from([1023, 2048]),
           K=st.sampled_from([1, 5, 16]),
           name=st.sampled_from(sorted(JACOBIAN_CFGS)))
    def test_matches_column_loop_on_random_slopes(self, coeffs, peak, n, K,
                                                  name):
        # Six-mode slopes scaled to sup|q| = peak, up to the benchmark's cap.
        q = np.asarray(coeffs) @ trig_basis("sine", 6, n)
        q[0] = q[-1] = 0.0
        top = np.max(np.abs(q))
        q = q * (peak / top) if top > 0.0 else q
        cfg = JACOBIAN_CFGS[name]
        q = Impedance(GridFunction(q))
        gmap = _GalerkinMap(forward_transform(q, cfg), cfg,
                            InversionConfig(basis_size=K))
        got = gmap.jacobian(q)
        want = loop_galerkin_jacobian(gmap, q)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_inversion_makes_no_derivative_pass(self, monkeypatch):
        # The Jacobian is assembled from the map's stored rows, and the full
        # residual reuses the last accepted forward image, so every forward
        # transform is one residual evaluation.
        calls = {"forward": 0, "residual": 0}

        def no_frechet(*args, **kwargs):
            raise AssertionError("frechet_apply called during inversion")

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(inverse, "frechet_apply", no_frechet)
        monkeypatch.setattr(inverse, "forward_transform",
                            counted("forward", forward_transform))
        monkeypatch.setattr(_GalerkinMap, "residual",
                            counted("residual", _GalerkinMap.residual))
        homotopy = []
        for cfg, scale in ((ConditionU.zero(), 15.0),
                           (ConditionU.exponential(0.5, 1.0), 1.0)):
            q_star = sine_slope([1.0, 0.6, -0.8, 0.0, 0.5, 0.0, 0.0, -0.4],
                                scale=scale)
            report = invert_transform_detailed(forward_transform(q_star, cfg),
                                               cfg)
            assert report.converged
            homotopy.append(report.used_homotopy)
        assert homotopy == [True, False]
        assert calls["forward"] == calls["residual"] > 0

    def test_inversions_unchanged(self, monkeypatch):
        """The first 64 targets of the benchmark's inversion workload, seed 0:
        q = 0.7 A sum_k c_k sin(pi k x) over 6 modes, A uniform in [0.5, 4],
        c_k ~ N(0, 1), capped at sup|q| = 10; every fourth uses exp:0.5,1.0."""
        cases = []
        for i in range(64):
            rng = np.random.default_rng([0, i])
            amplitude = rng.uniform(0.5, 4.0)
            c = 0.7 * amplitude * rng.normal(size=6) / math.sqrt(2.0)
            q = c @ trig_basis("sine", 6, 2048)
            q[0] = q[-1] = 0.0
            q *= min(1.0, 10.0 / np.max(np.abs(q)))
            cfg = ConditionU.exponential(0.5, 1.0) if i % 4 == 3 \
                else ConditionU.zero()
            cases.append((forward_transform(Impedance(GridFunction(q)), cfg),
                          cfg))
        batched = [invert_transform_detailed(p, cfg) for p, cfg in cases]
        monkeypatch.setattr(_GalerkinMap, "jacobian", loop_galerkin_jacobian)
        looped = [invert_transform_detailed(p, cfg) for p, cfg in cases]
        for got, want in zip(batched, looped):
            assert got.iterations == want.iterations
            assert got.used_homotopy == want.used_homotopy
            assert np.max(np.abs(got.q.f.values - want.q.f.values)) <= 1e-12


class TestFitTarget:
    def test_unknown_regime(self):
        with pytest.raises(TargetError):
            FitTarget(regime="robin", remainders=np.zeros(3),
                      norming=np.zeros(3))

    def test_missing_norming(self):
        with pytest.raises(TargetError):
            FitTarget(regime="mixed", remainders=np.zeros(3), b=1.0)

    def test_symmetric_regime_skips_norming(self):
        t = FitTarget(regime="symmetric-dirichlet", remainders=np.zeros(3))
        assert t.N == 3 and t.norming is None

    def test_length_mismatch(self):
        with pytest.raises(TargetError):
            FitTarget(regime="mixed", remainders=np.zeros(3),
                      norming=np.zeros(2), b=1.0)

    def test_disordered_ladder(self):
        rem = np.zeros(4)
        rem[0] = 100.0
        with pytest.raises(TargetError):
            FitTarget(regime="symmetric-dirichlet", remainders=rem)

    def test_size_cap(self):
        t = FitTarget(regime="symmetric-dirichlet", remainders=np.zeros(13))
        with pytest.raises(TargetError):
            fit_potential(t)

    def test_from_spectral_data(self):
        free = SchrodingerProblem(Potential(GridFunction.zeros(1024)))
        data = solve_spectrum(free, INF, 1.0, 4)
        t = FitTarget.from_spectral_data(data)
        assert t.regime == "mixed"
        assert t.N == 4 and t.norming is not None
        t_sym = FitTarget.from_spectral_data(
            solve_spectrum(free, INF, INF, 4), regime="symmetric-dirichlet")
        assert t_sym.norming is None


class TestPotentialFits:
    def symmetric_target(self, N=6):
        p_star = Potential.from_callable(
            lambda x: np.cos(2 * np.pi * x) - 0.3 * np.cos(4 * np.pi * x),
            1024)
        data = solve_spectrum(SchrodingerProblem(p_star), INF, INF, N)
        return p_star, FitTarget.from_spectral_data(
            data, regime="symmetric-dirichlet")

    def test_symmetric_eigenvalue_fit(self):
        p_star, target = self.symmetric_target()
        report = fit_potential_detailed(target)
        assert report.converged
        got = report.potential.f if report.potential.n == 1024 \
            else resample(report.potential.f, 1024)
        assert l2_norm(got - p_star.f) < 1e-4
        # Residuals fall hard once the iterates enter the basin.
        assert report.residuals[-1] < 1e-9 * 100

    def test_general_fit_uses_norming(self):
        p_star = Potential.from_callable(
            lambda x: 0.4 * math.sqrt(2) * np.cos(2 * np.pi * x)
            + 0.25 * math.sqrt(2) * np.sin(4 * np.pi * x), 1024)
        data = solve_spectrum(SchrodingerProblem(p_star), INF, 1.0, 4)
        report = fit_potential_detailed(FitTarget.from_spectral_data(data))
        assert report.converged
        got = report.potential.f if report.potential.n == 1024 \
            else resample(report.potential.f, 1024)
        assert l2_norm(got - p_star.f) < 1e-4

    def test_identifiability_of_targets(self):
        _, target = self.symmetric_target(N=4)
        base = fit_potential(target)
        moved_rem = target.remainders.copy()
        moved_rem[0] += 1e-2
        moved = fit_potential(FitTarget(regime="symmetric-dirichlet",
                                        remainders=moved_rem))
        assert l2_norm(base.f - moved.f) >= 1e-3


class TestFitJacobian:
    @staticmethod
    def fit_map(regime, a=INF, b=INF, N=3, cfg=None):
        norming = None if regime == "symmetric-dirichlet" else np.zeros(N)
        return _FitMap(FitTarget(regime=regime, remainders=np.zeros(N),
                                 norming=norming, a=a, b=b), InversionConfig(),
                       cfg)

    # Robin-Robin runs with both signs of a, so that a wrong sign of the
    # Wronskian cannot pass.  The slope-coefficient maps (a ConditionU in
    # the last column) take the chain rule through frechet_apply.
    @pytest.mark.parametrize("regime,a,b,cfg", [
        pytest.param("symmetric-dirichlet", INF, INF, None,
                     id="symmetric-dirichlet-inf-inf"),
        pytest.param("dirichlet", INF, INF, None, id="dirichlet-inf-inf"),
        pytest.param("mixed", INF, 1.0, None, id="mixed-inf-1.0"),
        pytest.param("generic", 1.0, -0.5, None, id="generic-1.0--0.5"),
        pytest.param("generic", -0.7, 2.0, None, id="generic--0.7-2.0"),
        pytest.param("symmetric-dirichlet", INF, INF, ConditionU.zero(),
                     id="slope-symmetric-dirichlet-zero"),
        pytest.param("generic", 1.0, -0.5, ConditionU.exponential(0.5, 1.0),
                     id="slope-generic-1.0--0.5-exp")])
    def test_matches_finite_differences(self, regime, a, b, cfg):
        fmap = self.fit_map(regime, a, b, cfg=cfg)
        rng = np.random.default_rng(7)
        theta = rng.normal(size=fmap.basis.shape[0])
        theta *= 0.1 / np.linalg.norm(theta)
        _, prob, lam = fmap.residual(theta)
        J = fmap.jacobian(theta, prob, lam)
        J_fd = fd_fit_jacobian(fmap, theta)
        assert J.shape == J_fd.shape
        assert np.max(np.abs(J - J_fd)) / np.max(np.abs(J_fd)) < 1e-5

    def test_free_dirichlet_closed_form(self):
        # d lam_n along sqrt(2) cos(2 pi m x) at p = 0 is
        # int sqrt(2) cos(2 pi m x) 2 sin(pi n x)**2 = -delta_nm / sqrt(2),
        # and P'(0) = d/dx maps the slope rows onto those potential rows.
        # That map is the fourth-order derivative, whose error at n = 1024
        # puts the slope rows 2.1e-8 off.
        for cfg, bound in ((None, 1e-8), (ConditionU.zero(), 1e-7)):
            fmap = self.fit_map("symmetric-dirichlet", N=5, cfg=cfg)
            theta = np.zeros(5)
            _, prob, lam = fmap.residual(theta)
            J = fmap.jacobian(theta, prob, lam)
            assert np.max(np.abs(J + np.eye(5) / math.sqrt(2.0))) < bound


class TestImpedanceFits:
    def test_dirichlet_reconstruction(self):
        q_star = sine_slope([0.0, 0.4], n=1024)
        data = solve_spectrum(
            SchrodingerProblem(forward_transform(q_star)), INF, INF, 6)
        target = FitTarget.from_spectral_data(data,
                                              regime="symmetric-dirichlet")
        out = fit_impedance_detailed(target)
        assert out.fit.converged
        assert q_error(out.q, q_star) < 1e-3

    def test_mixed_reconstruction_with_perturbation(self):
        q_star = sine_slope([0.0, 0.3, 0.0, -0.15], n=1024)
        cfg = ConditionU.exponential(0.5, 1.0)
        data = solve_spectrum(
            SchrodingerProblem(forward_transform(q_star, cfg)), INF, 1.0, 5)
        out = fit_impedance_detailed(FitTarget.from_spectral_data(data), cfg)
        assert out.fit.converged
        assert q_error(out.q, q_star) < 1e-3

    @pytest.mark.parametrize("cfg", [ConditionU.zero(),
                                     ConditionU.exponential(0.5, 1.0)],
                             ids=["zero", "exp"])
    @pytest.mark.parametrize("seed", range(3))
    def test_symmetric_six_mode_slopes(self, cfg, seed):
        # Random unit slopes in sqrt(2) sin(2 pi m x), m = 1..6, lie in the
        # span of the slope rows, so six eigenvalues pin them down.
        c = np.random.default_rng(seed).normal(size=6)
        q_star = Impedance(GridFunction(
            c / np.linalg.norm(c) @ trig_basis("sine", 12, 1024)[1::2]))
        data = solve_spectrum(
            SchrodingerProblem(forward_transform(q_star, cfg)), INF, INF, 6)
        out = fit_impedance_detailed(
            FitTarget.from_spectral_data(data, regime="symmetric-dirichlet"),
            cfg)
        assert out.fit.residuals[-1] <= InversionConfig().tol
        assert q_error(out.q, q_star) <= 1e-6
