"""Newton inversion of the forward map and Gauss-Newton spectral fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (INF, BracketError, ConditionU, DecayTerm, FitTarget,
                       GridFunction, Impedance, InversionConfig,
                       InversionError, Potential,
                       SchrodingerProblem, TargetError,
                       fit_impedance_detailed, fit_potential,
                       fit_potential_detailed, forward_transform,
                       invert_transform, invert_transform_detailed, l2_norm,
                       resample, solve_spectrum, sup_norm, symmetry_defect)
from liouville import grid, inverse, ode, spectral
from liouville.grid import differentiate, trig_basis
from liouville.inverse import _FitMap, _GalerkinMap, _galerkin_section
from oracles import fd_fit_jacobian, loop_galerkin_jacobian


def sine_slope(coeffs, n=2048, scale=1.0):
    def fn(x):
        out = np.zeros_like(x)
        for k, c in enumerate(coeffs, start=1):
            out += c * np.sin(math.pi * k * x)
        return scale * out

    return Impedance(GridFunction.from_callable(fn, n))


def steep_slope(peak, seed, n=2048):
    """Six sine modes with N(0, 1) weights from default_rng([7, seed]),
    scaled to sup|q| = peak."""
    q = np.random.default_rng([7, seed]).normal(size=6) \
        @ trig_basis("sine", 6, n)
    q[0] = q[-1] = 0.0
    return Impedance(GridFunction(q * (peak / np.max(np.abs(q)))))


def benchmark_slope(i, n=2048):
    """Target i of the benchmark's inversion workload, seed 0:
    q = 0.7 A sum_k c_k sin(pi k x) over 6 modes, A uniform in [0.5, 4],
    c_k ~ N(0, 1), capped at sup|q| = 10."""
    rng = np.random.default_rng([0, i])
    amplitude = rng.uniform(0.5, 4.0)
    c = 0.7 * amplitude * rng.normal(size=6) / math.sqrt(2.0)
    q = c @ trig_basis("sine", 6, n)
    q[0] = q[-1] = 0.0
    return Impedance(GridFunction(q * min(1.0, 10.0 / np.max(np.abs(q)))))


def clear_tables():
    for table in (_galerkin_section, grid._simpson_weights,
                  spectral._zero_correction, spectral._exact_ladder):
        table.cache_clear()


def benchmark_cases(count):
    """The first ``count`` targets of the benchmark's inversion workload,
    seed 0, as (p, cfg); every fourth uses exp:0.5,1.0."""
    cases = []
    for i in range(count):
        cfg = ConditionU.exponential(0.5, 1.0) if i % 4 == 3 \
            else ConditionU.zero()
        cases.append((forward_transform(benchmark_slope(i), cfg), cfg))
    return cases


def q_error(q_got, q_want):
    f = q_got.f if q_got.f.n == q_want.f.n else resample(q_got.f, q_want.f.n)
    return l2_norm(f - q_want.f)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(basis_size=0)
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError):
                InversionConfig(tol=tol)

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
        assert not report.restarted
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

    def test_steep_targets_restart(self):
        # Newton from zero stagnates on each of these.  The six-mode slopes
        # S/i/u (sup|q| = S, default_rng([7, i])) stagnated on the old
        # continuation ladder (12/9/zero, 20/9/exp) or ended on a projected
        # root with full residual 5.2 (20/0/zero) or 8.0 (20/9/zero).
        cases = [(sine_slope([1.0, 0.6, -0.8, 0.0, 0.5, 0.0, 0.0, -0.4],
                             scale=15.0), ConditionU.zero())]
        for peak, seed, cfg in ((12.0, 9, ConditionU.zero()),
                                (20.0, 0, ConditionU.zero()),
                                (20.0, 9, ConditionU.zero()),
                                (20.0, 9, ConditionU.exponential(0.5, 1.0))):
            cases.append((steep_slope(peak, seed), cfg))
        for q_star, cfg in cases:
            report = invert_transform_detailed(forward_transform(q_star, cfg),
                                               cfg)
            assert report.converged
            assert report.restarted
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


class TestGroundStateStart:
    """The restart's start: rho'/rho of the Neumann ground state."""

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_start_is_the_inverse_at_zero_u(self, i):
        q_star = benchmark_slope(i)
        start = inverse._ground_state_slope(forward_transform(q_star), [])
        assert np.max(np.abs(start - q_star.f.values)) < 1e-8

    def test_failed_ground_state_is_inversion_error(self, monkeypatch):
        def no_bracket(*args, **kwargs):
            raise BracketError("no bracket")

        monkeypatch.setattr(inverse, "solve_spectrum", no_bracket)
        with pytest.raises(InversionError, match="ground-state restart") \
                as info:
            invert_transform(forward_transform(steep_slope(20.0, 9)))
        assert len(info.value.residuals) > 1

    def test_sign_changing_ground_state_is_inversion_error(self,
                                                           monkeypatch):
        def flipped(prob, lam, y0, dy0):
            shot = ode.shoot_forward(prob, lam, y0, dy0)
            return dataclasses.replace(shot, y=-shot.y)

        monkeypatch.setattr(inverse, "shoot_forward", flipped)
        with pytest.raises(InversionError, match="not positive"):
            invert_transform(forward_transform(steep_slope(20.0, 9)))


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
        restarted = []
        for cfg, scale in ((ConditionU.zero(), 15.0),
                           (ConditionU.exponential(0.5, 1.0), 1.0)):
            q_star = sine_slope([1.0, 0.6, -0.8, 0.0, 0.5, 0.0, 0.0, -0.4],
                                scale=scale)
            report = invert_transform_detailed(forward_transform(q_star, cfg),
                                               cfg)
            assert report.converged
            restarted.append(report.restarted)
        assert restarted == [True, False]
        assert calls["forward"] == calls["residual"] > 0

    def test_inversions_unchanged(self, monkeypatch):
        """The first 64 targets of the benchmark's inversion workload, seed 0;
        every fourth uses exp:0.5,1.0."""
        cases = benchmark_cases(64)
        batched = [invert_transform_detailed(p, cfg) for p, cfg in cases]
        monkeypatch.setattr(_GalerkinMap, "jacobian", loop_galerkin_jacobian)
        looped = [invert_transform_detailed(p, cfg) for p, cfg in cases]
        for got, want in zip(batched, looped):
            assert got.iterations == want.iterations
            assert got.restarted == want.restarted
            assert np.max(np.abs(got.q.f.values - want.q.f.values)) <= 1e-12


class TestGridTables:
    """The Galerkin section is built once per (n, K) and shared read-only."""

    @pytest.mark.parametrize("n,K", [(2048, 16), (256, 8)])
    def test_section_equal_to_a_fresh_build(self, n, K):
        got = _galerkin_section(n, K)
        assert _galerkin_section(n, K) is got
        fresh = _galerkin_section.__wrapped__(n, K)
        assert [row.shape for row in got] == [
            (K, n + 1), (K, n + 1), (K, K), (K,), (K, n + 1)]
        for got_row, want_row in zip(got, fresh):
            assert np.array_equal(got_row, want_row)

    def test_section_read_only(self):
        for row in _galerkin_section(256, 8):
            with pytest.raises(ValueError):
                row[0] = 0.0

    def test_trig_basis_stays_writable(self):
        rows = trig_basis("sine", 8, 256)
        rows[0, 0] = 1.0
        assert trig_basis("sine", 8, 256)[0, 0] == 0.0

    def test_second_inversion_builds_no_basis(self, monkeypatch):
        # The first inversion on a grid builds the (K, n + 1) rows and their
        # derivative; a second one on the same grid finds them built.
        built = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if np.ndim(out) == 2:
                    built.append(out.shape)
                return out
            return wrapper

        monkeypatch.setattr(inverse, "trig_basis", spy(trig_basis))
        monkeypatch.setattr(inverse, "differentiate", spy(differentiate))
        _galerkin_section.cache_clear()
        (p, cfg), = benchmark_cases(1)
        invert_transform_detailed(p, cfg)
        assert built == [(16, 2049)] * 3
        built.clear()
        invert_transform_detailed(p, cfg)
        assert built == []

    def test_cold_tables_give_the_warm_inversions(self):
        """Every table built afresh before each of the 64 benchmark targets
        gives the same slopes and iteration counts, bit for bit."""
        cases = benchmark_cases(64)
        warm = [invert_transform_detailed(p, cfg) for p, cfg in cases]
        for (p, cfg), want in zip(cases, warm):
            clear_tables()
            got = invert_transform_detailed(p, cfg)
            assert got.iterations == want.iterations
            assert got.restarted == want.restarted
            assert np.array_equal(got.q.f.values, want.q.f.values)


class TestFitTarget:
    def test_unknown_regime(self):
        with pytest.raises(TargetError):
            FitTarget(regime="robin", remainders=np.zeros(3),
                      norming=np.zeros(3))

    def test_missing_norming(self):
        with pytest.raises(TargetError):
            FitTarget(regime="mixed", remainders=np.zeros(3), b=1.0)

    @pytest.mark.parametrize("regime, a, b", [
        ("generic", INF, -0.5), ("mixed", 1.0, -0.5), ("dirichlet", INF, 1.0),
        ("symmetric-dirichlet", 1.0, -0.5), ("symmetric-dirichlet", INF, 1.0)])
    def test_regime_must_match_pair(self, regime, a, b):
        # The pair decides the regime.  A fit run under the pair with the
        # target read in another regime converges to the wrong potential.
        with pytest.raises(TargetError):
            FitTarget(regime=regime, remainders=np.zeros(3),
                      norming=np.zeros(3), a=a, b=b)

    def test_symmetric_target_of_generic_data_refused(self):
        p = Potential(GridFunction.from_callable(
            lambda x: 0.4 * math.sqrt(2.0) * np.cos(2 * np.pi * x)
            + 0.2 * math.sqrt(2.0) * np.sin(4 * np.pi * x), 1024))
        data = solve_spectrum(SchrodingerProblem(p), 1.0, -0.5, 3)
        with pytest.raises(TargetError):
            FitTarget.from_spectral_data(data, regime="symmetric-dirichlet")

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


def deep_left_potential():
    """0.5 sqrt(2) cos(2 pi x) + 0.3 sqrt(2) sin(2 pi x) on 1024 cells."""
    return Potential.from_callable(
        lambda x: math.sqrt(2.0) * (0.5 * np.cos(2 * np.pi * x)
                                    + 0.3 * np.sin(2 * np.pi * x)), 1024)


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

    def test_deep_robin_left_end_fit(self):
        # Under (-20, 1) the state near -400 decays from x = 0; with the
        # norming gradient of its forward shot the fit stagnated.
        p_star = deep_left_potential()
        data = solve_spectrum(SchrodingerProblem(p_star), -20.0, 1.0, 4)
        report = fit_potential_detailed(FitTarget.from_spectral_data(data))
        assert report.converged
        assert l2_norm(report.potential.f - p_star.f) < 1e-4

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

    def test_deep_left_state_norming_gradient(self):
        # The forward shot of the state near -400 under (-20, 1) carries the
        # rounding of the growing solution: read from it, d nu_0 along
        # sqrt(2) cos(4 pi x) was 1e-5 off.  Central differences of full
        # solves with h = 1e-4; at h = 1e-6 their own rounding reaches 2e-8.
        p = deep_left_potential()
        phi = math.sqrt(2.0) * np.cos(4 * np.pi * p.f.x)
        lam = solve_spectrum(SchrodingerProblem(p), -20.0, 1.0, 4).eigenvalues
        dlam, dnu = spectral._potential_gradients(
            SchrodingerProblem(p), lam, -20.0, 1.0, phi[None])
        h = 1e-4
        up, down = (solve_spectrum(SchrodingerProblem(Potential(
            GridFunction(p.f.values + s * h * phi))), -20.0, 1.0, 4)
            for s in (1.0, -1.0))
        assert np.max(np.abs(dnu[:, 0] - (up.norming - down.norming) / (2 * h))) < 1e-8

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


def fit_potential_target(regime, a, b, N=4, n=1024):
    """Data of 0.4 sqrt(2) cos(2 pi x) + 0.25 sqrt(2) sin(4 pi x), a target."""
    p_star = Potential.from_callable(
        lambda x: 0.4 * math.sqrt(2) * np.cos(2 * np.pi * x)
        + 0.25 * math.sqrt(2) * np.sin(4 * np.pi * x), n)
    data = solve_spectrum(SchrodingerProblem(p_star), a, b, N)
    return FitTarget.from_spectral_data(data, regime=regime)


def fit_slope_target(cfg, N=4, n=1024):
    """Dirichlet-Robin (b = 1) data of 0.3 sin(2 pi x) - 0.15 sin(4 pi x)."""
    q_star = Impedance(GridFunction.from_callable(
        lambda x: 0.3 * np.sin(2 * np.pi * x) - 0.15 * np.sin(4 * np.pi * x),
        n))
    data = solve_spectrum(SchrodingerProblem(forward_transform(q_star, cfg)),
                          INF, 1.0, N)
    return FitTarget.from_spectral_data(data)


WARM_CASES = {
    "symmetric-dirichlet": (lambda: fit_potential_target(
        "symmetric-dirichlet", INF, INF), None),
    "dirichlet": (lambda: fit_potential_target(None, INF, INF), None),
    "mixed": (lambda: fit_potential_target(None, INF, 1.0), None),
    "generic-1.0--0.5": (lambda: fit_potential_target(None, 1.0, -0.5), None),
    "generic--0.7-2.0": (lambda: fit_potential_target(None, -0.7, 2.0), None),
    "slope-zero": (lambda: fit_slope_target(ConditionU.zero()),
                   ConditionU.zero()),
    "slope-exp": (lambda: fit_slope_target(ConditionU.exponential(0.5, 1.0)),
                  ConditionU.exponential(0.5, 1.0)),
}


def run_fit(target, cfg):
    """(fitted grid values, FitReport) of a potential or slope fit."""
    if cfg is None:
        report = fit_potential_detailed(target)
        return report.potential.f.values, report
    out = fit_impedance_detailed(target, cfg)
    return out.q.f.values, out.fit


def benchmark_fit_inputs(count, seed=0, n=1024):
    """The first ``count`` (target, cfg) inputs of the benchmark fit workload.

    Kinds cycle through a symmetric-Dirichlet N = 5 fit of five unit even
    cosine modes, a Dirichlet-Robin (b = 1) N = 3 fit of six unit full-period
    modes, and a symmetric-Dirichlet N = 5 slope fit with exp:0.5,1.0 of
    0.3 c_m sqrt(2) sin(2 pi m x), m = 1, 2, with c a unit vector.
    """
    x = np.linspace(0.0, 1.0, n + 1)
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        kind = i % 3
        if kind == 0:
            m = np.arange(1, 6)[:, None]
            c = rng.normal(size=5)
            pv = c / np.linalg.norm(c) @ (
                math.sqrt(2.0) * np.cos(2 * math.pi * m * x))
            data = solve_spectrum(
                SchrodingerProblem(Potential(GridFunction(pv))), INF, INF, 5)
            out.append((FitTarget.from_spectral_data(
                data, regime="symmetric-dirichlet"), None))
        elif kind == 1:
            m = np.arange(1, 4)[:, None]
            basis = math.sqrt(2.0) * np.concatenate(
                [np.cos(2 * math.pi * m * x), np.sin(2 * math.pi * m * x)])
            c = rng.normal(size=6)
            pv = c / np.linalg.norm(c) @ basis
            data = solve_spectrum(
                SchrodingerProblem(Potential(GridFunction(pv))), INF, 1.0, 3)
            out.append((FitTarget.from_spectral_data(data), None))
        else:
            c = rng.normal(size=2)
            m = np.arange(1, 3)[:, None]
            q = 0.3 * c / np.linalg.norm(c) @ (
                math.sqrt(2.0) * np.sin(2 * math.pi * m * x))
            q[0] = q[-1] = 0.0
            cfg = ConditionU.exponential(0.5, 1.0)
            data = solve_spectrum(SchrodingerProblem(forward_transform(
                Impedance(GridFunction(q)), cfg)), INF, INF, 5)
            out.append((FitTarget.from_spectral_data(
                data, regime="symmetric-dirichlet"), cfg))
    return out


class TestWarmStarts:
    """Fit solves start Newton from a predicted ladder; results do not move."""

    @pytest.mark.parametrize("name", list(WARM_CASES))
    def test_warm_matches_cold(self, monkeypatch, name):
        make_target, cfg = WARM_CASES[name]
        target = make_target()
        warm_values, warm = run_fit(target, cfg)

        def cold_solve(*args, _guess=None, **kwargs):
            return solve_spectrum(*args, **kwargs)

        monkeypatch.setattr(inverse, "solve_spectrum", cold_solve)
        cold_values, cold = run_fit(target, cfg)
        assert warm.iterations == cold.iterations
        # The late entries of a history sit near the Newton tolerance, so
        # they are compared on the scale of the first residual.
        scale = cold.residuals[0]
        assert np.max(np.abs(np.subtract(warm.residuals, cold.residuals))) \
            <= 1e-10 * scale
        assert np.max(np.abs(warm_values - cold_values)) <= 1e-11

    @pytest.mark.parametrize("a,b", [(INF, INF), (INF, 1.0), (1.0, -0.5)])
    @pytest.mark.parametrize("kind", ["shifted", "reversed", "nan", "outside"])
    def test_bad_guess_keeps_labels(self, kind, a, b):
        # A guess replaces a phase start only inside that slot's count
        # bracket, so a wrong guess can cost rounds but never move a root.
        prob = SchrodingerProblem(Potential.from_callable(
            lambda x: 2.0 * np.cos(2 * np.pi * x) - np.sin(4 * np.pi * x),
            1024))
        N = 6
        cold = solve_spectrum(prob, a, b, N)
        guess = {
            "shifted": solve_spectrum(prob, a, b, N + 1).eigenvalues[1:],
            "reversed": cold.eigenvalues[::-1],
            "nan": np.full(N, np.nan),
            "outside": np.full(N, -1e6),
        }[kind]
        warm = solve_spectrum(prob, a, b, N, _guess=guess)
        assert np.max(np.abs(warm.eigenvalues - cold.eigenvalues)
                      / cold.eigenvalues.clip(1.0)) <= 1e-12
        assert np.max(np.abs(warm.norming - cold.norming)) <= 1e-12
        if kind in ("nan", "outside"):
            assert np.array_equal(warm.eigenvalues, cold.eigenvalues)
            assert np.array_equal(warm.norming, cold.norming)

    def test_deep_robin_pair_takes_the_guess(self):
        # Two deep Robin ends take the correction like every pair, so a
        # guess places their Newton starts too, and a fit map starts from
        # the zero ladder.  The states near -144 are 7e-3
        # apart; a guess off by 1e-4 stays inside their count brackets.
        # Measured against the cold solve: lam 2.0e-16 relative, nu 1.9e-11,
        # which is about e**12 / 576 times the rounding of lam at a
        # state of an even potential under an even pair.
        prob = SchrodingerProblem(Potential.from_callable(
            lambda x: 0.3 * np.cos(2 * np.pi * x), 1024))
        cold = solve_spectrum(prob, -12.0, -12.0, 6)
        warm = solve_spectrum(prob, -12.0, -12.0, 6,
                              _guess=cold.eigenvalues + 1e-4)
        assert np.max(np.abs(warm.eigenvalues - cold.eigenvalues)
                      / np.abs(cold.eigenvalues)) <= 1e-12
        assert np.max(np.abs(warm.norming - cold.norming)) <= 1e-9
        fmap = _FitMap(FitTarget(regime="generic", remainders=np.zeros(3),
                                 norming=np.zeros(3), a=-12.0, b=-12.0),
                       InversionConfig())
        assert np.array_equal(fmap.zero_ladder,
                              spectral._exact_ladder(-12.0, -12.0, 3)[0])

    @pytest.mark.parametrize("name", ["symmetric-dirichlet", "mixed",
                                      "slope-exp"])
    def test_one_correction_per_fit(self, name):
        # Every solve of a fit shares the grid, the pair and N, so a fit
        # builds the zero-potential correction once, and a second identical
        # fit finds it in the cache.
        make_target, cfg = WARM_CASES[name]
        target = make_target()
        spectral._zero_correction.cache_clear()
        _, report = run_fit(target, cfg)
        assert report.iterations >= 3
        assert spectral._zero_correction.cache_info().misses == 1
        run_fit(target, cfg)
        assert spectral._zero_correction.cache_info().misses == 1

    def test_sweep_budget_on_benchmark_inputs(self, monkeypatch):
        # Over the first six seed-0 inputs of the benchmark's fit workload,
        # cold starts took 104 derivative sweeps (14, 17, 17, 14, 20, 22),
        # and warm starts with Newton rounds alone 50.  Chord rounds turn 14
        # of those into 19 endpoint sweeps.  Each Jacobian makes one trace
        # sweep.
        inputs = benchmark_fit_inputs(6)
        sweep = ode._sweep
        modes = []

        def counted(co, lam, y0, v0, **kwargs):
            mode = [m for m in ("count", "deriv", "trace") if kwargs.get(m)]
            modes.append(mode[0] if mode else "endpoint")
            return sweep(co, lam, y0, v0, **kwargs)

        monkeypatch.setattr(ode, "_sweep", counted)
        monkeypatch.setattr(spectral, "_sweep", counted)
        iterations = 0
        for target, cfg in inputs:
            iterations += run_fit(target, cfg)[1].iterations
        assert modes.count("deriv") == 36
        assert modes.count("trace") == iterations
        assert modes.count("endpoint") == 19

    def test_residual_without_guess(self):
        target = fit_potential_target(None, INF, 1.0)
        fmap = _FitMap(target, InversionConfig())
        theta = np.zeros(fmap.basis.shape[0])
        r_cold, _, lam_cold = fmap.residual(theta)
        r_warm, _, lam_warm = fmap.residual(theta, fmap.zero_ladder)
        assert np.max(np.abs(r_warm - r_cold)) <= 1e-11
        assert np.max(np.abs(lam_warm - lam_cold) / lam_cold) <= 1e-12
