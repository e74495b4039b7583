"""Characteristic functions, shooting traces, and picture equivalence."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (INF, ConditionU, GridFunction, Impedance,
                       ImpedanceProblem, IntegrationError, Potential,
                       SchrodingerProblem, build_rho, compute_c0,
                       forward_transform, oscillation_count, shoot_backward,
                       shoot_forward, wronskian)
from liouville import ode
from liouville.ode import (_BLOCK, _block_flips, _build_matrices, _sampled,
                           _sweep)
from oracles import (damped_coefficients, damped_ends, loop_sweep,
                     magnus_exponents, sign_flips)

N = 2048
FREE = SchrodingerProblem(Potential(GridFunction.zeros(N)))


def q_two_mode(n=N):
    return Impedance(GridFunction.from_callable(
        lambda x: 0.4 * np.sin(2 * np.pi * x) - 0.2 * np.sin(4 * np.pi * x),
        n))


def w_free_dirichlet(lam):
    if lam > 0:
        s = math.sqrt(lam)
        return math.sin(s) / s
    if lam < 0:
        s = math.sqrt(-lam)
        return math.sinh(s) / s
    return 1.0


def w_free(lam, a, b):
    """Closed form for the zero potential under general boundary data."""
    if lam == 0:
        y1, dy1, integ = 1.0, 0.0, 1.0
    elif lam > 0:
        s = math.sqrt(lam)
        y1, dy1, integ = math.cos(s), -s * math.sin(s), math.sin(s) / s
    else:
        t = math.sqrt(-lam)
        y1, dy1, integ = math.cosh(t), t * math.sinh(t), math.sinh(t) / t
    if a == INF:
        y, dy = integ, y1
    else:
        y, dy = y1 + a * integ, dy1 + a * y1
    if b == INF:
        return y
    return dy + b * y


class TestClosedFormValues:
    @pytest.mark.parametrize("lam", [-100.0, -3.7, 0.0, 2.3, 7.3, 91.0])
    def test_dirichlet_free(self, lam):
        assert wronskian(FREE, lam) == pytest.approx(w_free_dirichlet(lam),
                                                     rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(INF, 0.7), (INF, 0.0), (1.0, -0.5),
                                     (0.3, INF)])
    @pytest.mark.parametrize("lam", [-20.0, 0.0, 5.1, 60.0])
    def test_general_boundaries_free(self, a, b, lam):
        assert wronskian(FREE, lam, a=a, b=b) == pytest.approx(
            w_free(lam, a, b), rel=1e-8, abs=1e-12)

    def test_lambda_derivative_free(self):
        lam = 7.3
        s = math.sqrt(lam)
        exact = (s * math.cos(s) - math.sin(s)) / (2.0 * s ** 3)
        w, dw = wronskian(FREE, lam, deriv=True)
        assert w == pytest.approx(w_free_dirichlet(lam), rel=1e-11)
        assert dw == pytest.approx(exact, rel=1e-9)

    def test_lambda_derivative_matches_differences(self):
        prob = ImpedanceProblem(q_two_mode(), ConditionU.exponential(0.5, 1.0))
        lam, d = 13.7, 1e-5
        w, dw = wronskian(prob, lam, b=0.7, deriv=True)
        fd = (wronskian(prob, lam + d, b=0.7)
              - wronskian(prob, lam - d, b=0.7)) / (2.0 * d)
        assert dw == pytest.approx(fd, rel=1e-7)


class TestDeepNegativeLambda:
    def test_moderately_deep_is_plain(self):
        lam = -3000.0
        s = math.sqrt(-lam)
        assert wronskian(FREE, lam) == pytest.approx(math.sinh(s) / s,
                                                     rel=3e-6)

    def test_overflow_requires_scaled_form(self):
        # exp(sqrt(-lam)) passes the floating range, so the plain form must
        # refuse while the scaled form stays finite and accurate in the log.
        free = SchrodingerProblem(Potential(GridFunction.zeros(8192)))
        lam = -1.0e6
        with pytest.raises(IntegrationError):
            wronskian(free, lam)
        m, ls = wronskian(free, lam, scaled=True)
        t = math.sqrt(-lam)
        assert math.isfinite(m) and math.isfinite(ls)
        assert abs(math.log(abs(m)) + ls - (t - math.log(2.0 * t))) < 2e-2

    @pytest.mark.parametrize("lam", [-3000.0, -20.0, 13.7])
    def test_scaled_derivative_pair(self, lam):
        # w and dw share one log scale: times e**scale they are the
        # unscaled pair, wherever that is finite.
        prob = ImpedanceProblem(q_two_mode(), ConditionU.exponential(0.5, 1.0))
        w, dw, ls = wronskian(prob, lam, b=0.7, deriv=True, scaled=True)
        plain = wronskian(prob, lam, b=0.7, deriv=True)
        assert math.isfinite(ls) and (lam > 0.0 or ls > 1.0)
        assert w * math.exp(ls) == pytest.approx(plain[0], rel=1e-12)
        assert dw * math.exp(ls) == pytest.approx(plain[1], rel=1e-12)


class TestTraces:
    def test_forward_free_closed_form(self):
        lam = 7.3
        s = math.sqrt(lam)
        tr = shoot_forward(FREE, lam)
        x = tr.y.x
        assert np.max(np.abs(tr.y.values - np.sin(s * x) / s)) < 1e-12
        assert np.max(np.abs(tr.dy.values - np.cos(s * x))) < 1e-12

    def test_forward_custom_initial_data(self):
        lam = 5.5
        s = math.sqrt(lam)
        tr = shoot_forward(FREE, lam, y0=1.0, dy0=0.3)
        x = tr.y.x
        exact = np.cos(s * x) + 0.3 * np.sin(s * x) / s
        assert np.max(np.abs(tr.y.values - exact)) < 1e-12

    def test_backward_encodes_right_boundary(self):
        lam = 7.3
        s = math.sqrt(lam)
        tb = shoot_backward(FREE, lam)
        x = tb.y.x
        assert tb.y.values[-1] == 0.0
        assert tb.dy.values[-1] == -1.0
        assert np.max(np.abs(tb.y.values - np.sin(s * (1 - x)) / s)) < 1e-12
        tr = shoot_backward(FREE, lam, b=0.7)
        assert tr.y.values[-1] == 1.0
        assert tr.dy.values[-1] == -0.7

    @pytest.mark.parametrize("a, b", [
        (INF, INF), (INF, 0.7), (-0.7, INF), (-0.7, 0.7), (1.3, INF),
        (1.3, 0.7)], ids=["inf", "0.7", "-0.7-inf", "-0.7-0.7", "1.3-inf",
                          "1.3-0.7"])
    def test_cross_wronskian_is_constant(self, a, b):
        # The characteristic function is the Wronskian of the shots from
        # either end's data, so every regime's closing row is checked
        # without reading one.
        prob = SchrodingerProblem(forward_transform(q_two_mode()))
        lam = 11.0
        yf = shoot_forward(prob, lam, *((0.0, 1.0) if math.isinf(a)
                                        else (1.0, a)))
        yb = shoot_backward(prob, lam, b=b)
        W = yf.y.values * yb.dy.values - yf.dy.values * yb.y.values
        assert W.std() < 1e-13 * (1.0 + np.abs(W).max())
        assert wronskian(prob, lam, a, b) == pytest.approx(-W.mean(),
                                                           rel=1e-10)

    def test_weighted_cross_wronskian_impedance(self):
        q = Impedance(GridFunction.from_callable(
            lambda x: np.sin(np.pi * x), N))
        prob = ImpedanceProblem(q)
        lam = 9.0
        yf = shoot_forward(prob, lam)
        yb = shoot_backward(prob, lam)
        profile = build_rho(q)
        weight = profile.rho.values ** 2
        W = weight * (yf.y.values * yb.dy.values - yf.dy.values * yb.y.values)
        assert W.std() < 1e-13 * (1.0 + np.abs(W).max())
        assert wronskian(prob, lam) == pytest.approx(
            -W.mean() / profile.rho1, rel=1e-10)

    def test_trace_overflow_raises(self):
        with pytest.raises(IntegrationError):
            shoot_forward(FREE, -2.0e6)


class TestOscillation:
    def test_zero_counts(self):
        for k in range(5):
            lam = ((k + 0.5) * math.pi) ** 2
            assert oscillation_count(FREE, lam) == k

    def test_deep_negative_has_no_zeros(self):
        assert oscillation_count(FREE, -50.0) == 0

    def test_counts_step_at_eigenvalues(self):
        prob = ImpedanceProblem(q_two_mode())
        lams = np.linspace(1.0, 250.0, 40)
        counts = [oscillation_count(prob, lam) for lam in lams]
        assert counts == sorted(counts)
        assert counts[-1] >= 4


class TestPictureEquivalence:
    """Both pictures against the damped impedance equation of the loop oracle."""

    @pytest.mark.parametrize("b", [INF, 1.0])
    def test_characteristic_functions_agree(self, b):
        q = q_two_mode()
        cfg = ConditionU.exponential(0.5, 1.0)
        imp = ImpedanceProblem(q, cfg)
        sch = SchrodingerProblem(forward_transform(q, cfg))
        c0 = compute_c0(q, cfg)
        for lam in (-8.0, 0.0, 7.3, 44.4, 130.0):
            ref = damped_ends(q, cfg, lam, b=b)[0][0]
            assert wronskian(imp, lam, b=b) == pytest.approx(
                ref, rel=1e-9, abs=1e-11)
            assert wronskian(sch, lam - c0, b=b) == pytest.approx(
                ref, rel=1e-9, abs=1e-11)

    def test_endpoint_weight_enters(self):
        q = Impedance(GridFunction.from_callable(
            lambda x: np.sin(np.pi * x), N))
        imp = ImpedanceProblem(q)
        sch = SchrodingerProblem(forward_transform(q))
        c0 = compute_c0(q, ConditionU.zero())
        for lam in (3.0, 25.0):
            ref = damped_ends(q, ConditionU.zero(), lam)[0][0]
            assert wronskian(imp, lam) == pytest.approx(ref, rel=1e-9, abs=1e-11)
            assert wronskian(sch, lam - c0) == pytest.approx(
                ref, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("b", [INF, 0.7])
    def test_shots_match_damped_loop(self, b):
        # Shots convert back from y = rho f; the loop integrates f itself.
        q = Impedance(GridFunction.from_callable(
            lambda x: np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x), N))
        cfg = ConditionU.exponential(0.5, 1.0)
        co = damped_coefficients(q, cfg)
        lam = np.array([13.7])
        fwd = shoot_forward(ImpedanceProblem(q, cfg), 13.7, 1.0, 0.4)
        ref = loop_sweep(co, lam, 1.0, 0.4, trace=True)
        bwd = shoot_backward(ImpedanceProblem(q, cfg), 13.7, b=b)
        g0, g1 = (0.0, 1.0) if b == INF else (1.0, b)
        back = loop_sweep(co, lam, g0, g1, trace=True, reverse=True)
        for got, want in ((fwd.y, ref["Y"]), (fwd.dy, ref["W"]),
                          (bwd.y, back["Y"][::-1]), (bwd.dy, -back["W"][::-1])):
            want = want[:, 0]
            assert np.abs(got.values - want).max() <= 1e-11 * np.abs(want).max()


class TestRefinement:
    def test_fourth_order_convergence(self):
        # Errors against the damped loop oracle on 8192 cells.
        lam = 11.0
        cfg = ConditionU.exponential(0.5, 1.0)
        ref = damped_ends(q_two_mode(8192), cfg, lam, b=0.7)[0][0]
        errs = [abs(wronskian(ImpedanceProblem(q_two_mode(n), cfg), lam,
                              b=0.7) - ref)
                for n in (256, 512, 1024)]
        assert errs[-1] < 1e-10
        for coarse, fine in zip(errs, errs[1:]):
            assert 11.0 < coarse / fine < 23.0


def coefficient_cases(n=N):
    """Coefficient records of one problem in both pictures.

    Key "damped" holds the impedance problem's: its own equation carries the
    damping -2q f', which the Liouville map removes, so the record holds
    V = P(q) + c0.  Key "undamped" holds the normal form of P(q).
    """
    q, cfg = q_two_mode(n), ConditionU.exponential(0.5, 1.0)
    return {"damped": ImpedanceProblem(q, cfg)._coefficients(),
            "undamped": SchrodingerProblem(forward_transform(q, cfg))._coefficients()}


CASES = coefficient_cases()
FINE_CASES = coefficient_cases(8192)
# In blocks of ode's _BLOCK = 16 cells, 16 (the grid minimum) and 1024 fill
# their blocks exactly, and 17 and 257 leave one real cell in their last
# block.
EDGE_CASES = {n: coefficient_cases(n) for n in (16, 17, 257, 1024)}
MODES = {"endpoint": {}, "deriv": {"deriv": True}, "count": {"count": True},
         "trace": {"trace": True}}


def class_column(co, D):
    """A positive lam whose bound on |u| lies inside degree class D of
    ``ode._DEGREES``, halfway between the class's bounds, with 4 times the
    last bound as the upper bound of the cosh/sinh class 0; None where the
    least bound, max|u0|, is past the class."""
    k = list(ode._DEGREES).index(D)
    bounds = [0.0] + ode._DEGREE_BOUNDS + [4.0 * ode._DEGREE_BOUNDS[-1]]
    b0, b1, b2 = co.bound
    if b0 >= bounds[k + 1]:
        return None
    target = 0.5 * (max(b0, bounds[k]) + bounds[k + 1])
    return 2.0 * (target - b0) / (b1 + math.sqrt(b1 * b1 + 4.0 * b2
                                                 * (target - b0)))


def run_both(co, lam, mode, reverse):
    """The scan and the per-cell loop on the same sweep; an overflow must agree.

    A reverse sweep is the scan on the reflected coefficients against the
    loop reading the original ones from the far end.
    """
    kwargs = MODES[mode]
    scanned = co.reflected() if reverse else co
    try:
        ref = loop_sweep(co, lam, 0.0, 1.0, reverse=reverse, **kwargs)
    except IntegrationError:
        with pytest.raises(IntegrationError):
            _sweep(scanned, lam, 0.0, 1.0, **kwargs)
        return None, None
    return _sweep(scanned, lam, 0.0, 1.0, **kwargs), ref


def assert_sweeps_agree(got, ref, lam):
    assert set(got) == set(ref)
    if "flips" in ref:
        np.testing.assert_array_equal(got["flips"], ref["flips"])
    # The two rescale at different cells, so compare y e**logscale.
    align = np.exp(got["logscale"] - ref["logscale"])
    scale = np.maximum(np.abs(ref["y"]),
                       np.abs(ref["v"]) / np.sqrt(np.maximum(1.0, np.abs(lam))))
    for key in ("y", "v", "dy", "dv"):
        if key in ref:
            assert np.all(np.abs(got[key] * align - ref[key]) <= 1e-9 * scale), key
    for key in ("Y", "W"):
        if key in ref:
            assert got[key].shape == ref[key].shape
            err = np.abs(got[key] - ref[key]).max(axis=0)
            assert np.all(err <= 1e-12 * np.abs(ref[key]).max(axis=0)), key


class TestBlockedScan:
    """The blocked scan against the per-cell Magnus loop of the oracles."""

    @pytest.mark.parametrize("K", [1, 65])
    @pytest.mark.parametrize("damping", sorted(CASES))
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_matches_loop(self, mode, reverse, damping, K):
        lam = np.linspace(-2e5, 4e4, K)
        got, ref = run_both(CASES[damping], lam, mode, reverse)
        assert ref is not None
        assert_sweeps_agree(got, ref, lam)

    @pytest.mark.parametrize("K", [1, 65])
    @pytest.mark.parametrize("damping", sorted(CASES))
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n", sorted(EDGE_CASES))
    def test_matches_loop_at_block_edges(self, n, mode, reverse, damping, K):
        lam = np.linspace(-2e5, 4e4, K)
        got, ref = run_both(EDGE_CASES[n][damping], lam, mode, reverse)
        assert ref is not None
        assert_sweeps_agree(got, ref, lam)

    @pytest.mark.parametrize("n", [16, 256, 257, 1024])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_column_does_not_depend_on_its_batch(self, mode, n):
        # Alone, a column's state meets one top product of the tree where
        # n <= 16, a lone matrix that np.matmul would hand to BLAS, whose
        # fused rounding differs once the start (1, a) is inexact to
        # multiply: the Newton path of a root then changed with the roots
        # it was batched with.  65 columns cross the chunk edges of a
        # derivative sweep.  Each column's cells are its own (1 x m)(m x nb)
        # products, which no two columns share: a batched product with the
        # columns as rows rounded differently at K = 2 than at K = 64.  The
        # last batch holds every degree class, 3, 4, 8 and cosh/sinh, with
        # the class 3 columns apart, so one class is written through a copy.
        # On 16 cells max|u0| is past the bounds of classes 3 and 4.  The
        # second class 3 column is the first's negative.
        co = coefficient_cases(n)["undamped"]
        classes = [D for D in (4, 3, 0, 8, 3) if class_column(co, D)]
        assert len(classes) == (2 if n == 16 else 5)
        spanning = np.array([class_column(co, D) for D in classes])
        spanning[4:] *= -1.0
        size = np.abs(spanning)
        degree = ode._DEGREES[np.searchsorted(ode._DEGREE_BOUNDS, co.bound[0]
                              + size * (co.bound[1] + size * co.bound[2]))]
        assert list(degree) == classes
        for lam in [np.linspace(-30.0, 2000.0, K) for K in (2, 8, 65)] \
                + [spanning]:
            batch = _sweep(co, lam, 1.0, 3.0, **MODES[mode])
            for k in range(lam.size):
                alone = _sweep(co, lam[k:k + 1], 1.0, 3.0, **MODES[mode])
                for key, value in alone.items():
                    assert np.array_equal(value[..., 0],
                                          batch[key][..., k]), key

    def test_build_writes_the_cells_in_place(self):
        # The products write straight into M: a 64-column ladder on 2048
        # cells, its tables built, allocates M (4194304 B) and 6.1 kB more
        # at its peak (measured 4200400 B), never a second array of M's
        # size.
        co = CASES["undamped"]
        lam = (np.pi * (np.arange(64) + 1.0)) ** 2
        _build_matrices(co, lam)
        tracemalloc.start()
        try:
            M, _ = _build_matrices(co, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.shape == (_BLOCK, 2, 2, 64, 128)
        assert peak < 2 * M.nbytes

    @pytest.mark.parametrize("damping", sorted(CASES))
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_matches_loop_while_rescaling(self, mode, reverse, damping):
        co = FINE_CASES[damping]
        lam = np.array([-1e6, -3e5, 10.0])
        got, ref = run_both(co, lam, mode, reverse)
        if ref is None:
            assert mode == "trace"
            return
        assert ref["logscale"][0] > 0.0 and got["logscale"][0] > 0.0
        assert_sweeps_agree(got, ref, lam)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(16, 4096), damping=st.sampled_from(sorted(CASES)),
           mode=st.sampled_from(sorted(MODES)), reverse=st.booleans(),
           lam=st.lists(st.floats(-2e5, 4e4), min_size=1, max_size=70))
    def test_matches_loop_on_random_grids(self, n, damping, mode, reverse, lam):
        # Odd and even block counts, partial last blocks, and grids within
        # one span of the tree over the block totals and across many.
        lam = np.array(lam)
        got, ref = run_both(coefficient_cases(n)[damping], lam, mode, reverse)
        if ref is not None:
            assert_sweeps_agree(got, ref, lam)

    def test_zero_nodes_keep_the_count_strict(self):
        rng = np.random.default_rng(5)
        Y = rng.choice([-2.0, 0.0, 3.0], size=(40, 200), p=[0.4, 0.2, 0.4])
        Y[0, :50] = 0.0
        expect = []
        for col in Y.T:
            last, flips = np.sign(col[0]), 0
            for s in np.sign(col[1:]):
                flips += s != 0 and s == -last
                last = s if s != 0 else last
            expect.append(flips)
        np.testing.assert_array_equal(sign_flips(Y), expect)

    @pytest.mark.parametrize("n", sorted(EDGE_CASES))
    def test_block_counts_match_grid_order(self, n):
        # Columns from dense signs to runs of zeros that cross block edges,
        # with zeros forced at node 0, the last node and both sides of the
        # first block edge; the pad cells past node n hold noise, which the
        # count must not read.
        B = _BLOCK
        nb = -(-n // B)
        rng = np.random.default_rng(n)
        zero_share = np.repeat([0.0, 0.2, 0.6, 0.95], 16)
        K = zero_share.size
        Y = rng.choice([-2.0, 3.0], size=(n + 1, K))
        Y[rng.random((n + 1, K)) < zero_share] = 0.0
        Y[0, ::2] = 0.0
        Y[n, ::3] = 0.0
        Y[B:B + 2, 1::4] = 0.0
        Y[:, -1] = 0.0
        inner = rng.choice([-1.0, 0.0, 1.0], size=(nb * B, K))
        inner[:n] = Y[1:]
        inner = inner.reshape(nb, B, K).transpose(1, 0, 2)
        np.testing.assert_array_equal(_block_flips(Y[0], inner, n),
                                      sign_flips(Y))


def cell_order(M: np.ndarray) -> np.ndarray:
    """(B, 2, 2, K, nb) block-order matrices as (4, nb B, K) in cell order."""
    B, _, _, K, nb = M.shape
    return M.reshape(B, 4, K, nb).transpose(1, 3, 0, 2).reshape(4, nb * B, K)


def constant_transfer(c, lam, h):
    """The exact transfer of y'' = (c - lam) y over h, (M11, M21, M12, M22)."""
    k = c - lam
    w = math.sqrt(abs(k))
    if k > 0.0:
        C, S, kS = math.cosh(w * h), math.sinh(w * h) / w, w * math.sinh(w * h)
    elif k < 0.0:
        C, S, kS = math.cos(w * h), math.sin(w * h) / w, -w * math.sin(w * h)
    else:
        C, S, kS = 1.0, h, 0.0
    return np.array([C, kS, S, C]), w * h


class TestQuadraticSteps:
    """Magnus cells: Omega linear in lam and u = p**2 + q r quadratic, exact
    for constant V, determinant 1."""

    # Columns from deep below the spectrum to far above it: on these grids
    # they take both Taylor degrees of the entry tables and cosh and sinh.
    LAM = (-1e6, -2e5, -250.0, 0.0, 0.3, 91.0, 4e4, 2e5)

    @pytest.mark.parametrize("damping", sorted(CASES))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_quadratic_in_lam(self, damping, reverse):
        # The closed-form exponent rows against Omega formed from explicit
        # commutators of the Gauss samples by the oracle, whose exponential
        # is then its cell; 17 cells leave a padded last block.
        co = EDGE_CASES[17][damping]
        co = co.reflected() if reverse else co
        n = co.samples.shape[1]
        p0, p1, q0, r0, r1 = co.cells.transpose(0, 2, 1).reshape(5, -1)[:, :n]
        for lam in (-2e5, 3.7, 4e4):
            omega = magnus_exponents(co.samples, np.zeros_like(co.samples),
                                     np.array([lam]), 1.0 / n)[:, 0]
            top = np.abs(omega).max()
            for got, want in ((p0 + lam * p1, omega[:, 0, 0]),
                              (-p0 - lam * p1, omega[:, 1, 1]),
                              (q0, omega[:, 0, 1]),
                              (r0 + lam * r1, omega[:, 1, 0])):
                assert np.abs(got - want.real).max() <= 1e-14 * top
            u = (p0 + lam * p1) ** 2 + q0 * (r0 + lam * r1)
            bound = co.bound[0] + abs(lam) * (co.bound[1] + abs(lam) * co.bound[2])
            assert np.abs(u).max() <= bound
        assert np.all(co.cells[:, :, -1][:, 1:] == 0.0)

    @pytest.mark.parametrize("n", [16, 17, 257, 2048])
    @pytest.mark.parametrize("c", [-300.0, 0.0, 2.5])
    def test_constant_potential_is_exact(self, n, c):
        # For constant V every cell is the exact transfer of
        # y'' = (c - lam) y over h, to rounding.  Rows are compared on the
        # scale of y and of y' / w, w = max(1, sqrt|c - lam|, |c| h): the
        # samples of V carry the rounding of c, which moves y' by |c| h eps,
        # and far below the spectrum both on the scale of cosh(w h).
        lam = np.array(self.LAM + (c, c + 1e-3))
        M = cell_order(_build_matrices(_sampled(np.full(n + 1, c)), lam)[0])
        for k, col in enumerate(lam):
            want, angle = constant_transfer(c, col, 1.0 / n)
            w = max(1.0, math.sqrt(abs(c - col)), abs(c) / n)
            scale = max(1.0, want[0]) * np.array([1.0, w, 1.0 / w, 1.0])
            err = np.abs(M[:, :n, k] - want[:, None]) / scale[:, None]
            assert err.max() <= 2e-15 * max(1.0, angle), (col, err.max())
            assert np.all(M[:, n:, k].T == [1.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("n", [16, 17, 257, 2048])
    @pytest.mark.parametrize("damping", sorted(CASES))
    def test_determinant_is_one(self, n, damping):
        co = coefficient_cases(n)[damping]
        M = cell_order(_build_matrices(co, np.array(self.LAM))[0])
        M11, M21, M12, M22 = M
        size = np.abs(M11 * M22) + np.abs(M12 * M21)
        assert np.all(np.abs(M11 * M22 - M12 * M21 - 1.0) <= 4e-15 * size)

    def test_normal_form_has_zero_damping_samples(self):
        # Both pictures integrate y'' = (V - lam) y, so a record holds V, its
        # Gauss samples and what the cells derive from them, and the
        # impedance problem's V is that of the normal form shifted by c0.
        imp, sch = CASES["damped"], CASES["undamped"]
        for co in (imp, sch):
            assert [f.name for f in dataclasses.fields(co)] == [
                "V", "samples", "cells", "u", "bound", "_tables"]
        c0 = compute_c0(q_two_mode(), ConditionU.exponential(0.5, 1.0))
        np.testing.assert_array_equal(imp.V, sch.V + c0)


class TestSweepMemory:
    def test_derivative_sweep_allocates_no_per_cell_derivatives(self):
        # A derivative sweep scans at lam + ih, 32 complex columns at a
        # time, which weigh what 64 real ones do, so it needs little more
        # than an endpoint sweep of the same width.  Holding dM for every
        # cell, as the sweep once did, reads 1.93, and one scan of all 64
        # complex columns about 2.
        co = CASES["undamped"]
        assert co.samples.shape == (3, 2048)
        lam = (np.pi * (np.arange(64) + 1.0)) ** 2

        def peak(**mode):
            tracemalloc.start()
            try:
                _sweep(co, lam, 0.0, 1.0, **mode)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(deriv=True) <= 1.3 * peak()
