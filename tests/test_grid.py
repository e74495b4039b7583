"""Grid calculus: quadrature, derivatives, sequence norms, symmetry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (FitTarget, FourierRep, GridFunction,
                       GridMismatchError, InversionConfig, SequenceData,
                       cumulative_integral, differentiate, inner_product,
                       integral, l2_norm, resample, seq_norm, sup_norm,
                       symmetry_defect, symmetry_project, trig_basis)
from liouville.grid import _simpson_weights
from liouville.inverse import _FitMap
from liouville.ode import _midpoints


def gf(fn, n=512):
    return GridFunction.from_callable(fn, n)


class TestGridFunction:
    def test_node_count(self):
        f = GridFunction(np.zeros(257))
        assert f.n == 256
        assert f.x[0] == 0.0 and f.x[-1] == 1.0

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(4))

    def test_rejects_non_finite(self):
        v = np.zeros(257)
        v[3] = np.inf
        with pytest.raises(ValueError):
            GridFunction(v)

    def test_values_immutable(self):
        f = GridFunction(np.zeros(257))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_arithmetic(self):
        f = gf(lambda x: x)
        g = gf(lambda x: 1.0 - x)
        assert np.allclose((f + g).values, 1.0)
        assert np.allclose((f - f).values, 0.0)
        assert np.allclose((2.0 * f).values, 2.0 * f.values)
        assert np.allclose((-f).values, -f.values)
        assert np.allclose((1.0 - f).values, g.values)

    def test_mismatched_grids_raise(self):
        with pytest.raises(GridMismatchError):
            gf(lambda x: x, 256) + gf(lambda x: x, 512)

    def test_reflected(self):
        f = gf(lambda x: x ** 2)
        r = f.reflected()
        assert np.allclose(r.values, (1.0 - f.x) ** 2)


class TestQuadrature:
    def test_cubics_exact(self):
        for k in range(4):
            f = gf(lambda x, k=k: x ** k)
            assert integral(f) == pytest.approx(1.0 / (k + 1), abs=1e-15)

    def test_odd_cell_count_still_cubic_exact(self):
        f = gf(lambda x: x ** 3, n=501)
        assert integral(f) == pytest.approx(0.25, abs=1e-14)

    def test_smooth_fourth_order(self):
        exact = math.e - 1.0
        errs = [abs(integral(gf(np.exp, n)) - exact) for n in (64, 128)]
        assert errs[1] <= errs[0] / 12.0
        assert abs(integral(gf(np.exp, 2048)) - exact) < 1e-14

    def test_trig(self):
        assert integral(gf(lambda x: np.sin(2 * np.pi * x))) == \
            pytest.approx(0.0, abs=1e-13)
        assert integral(gf(lambda x: np.cos(np.pi * x) ** 2)) == \
            pytest.approx(0.5, abs=1e-13)

    def test_norm_and_inner_product(self):
        f = gf(lambda x: np.sqrt(2.0) * np.sin(np.pi * x))
        g = gf(lambda x: np.sqrt(2.0) * np.sin(2 * np.pi * x))
        assert l2_norm(f) == pytest.approx(1.0, abs=1e-12)
        assert inner_product(f, g) == pytest.approx(0.0, abs=1e-12)

    def test_sup_norm(self):
        assert sup_norm(gf(lambda x: -3.0 + 0.0 * x)) == 3.0


class TestCalculus:
    def test_derivative_exact_on_quartics(self):
        f = gf(lambda x: x ** 4)
        df = differentiate(f)
        assert np.max(np.abs(df.values - 4.0 * f.x ** 3)) < 1e-11

    def test_derivative_fourth_order(self):
        def err(n):
            f = gf(lambda x: np.sin(2 * np.pi * x), n)
            return np.max(np.abs(differentiate(f).values
                                 - 2 * np.pi * np.cos(2 * np.pi * f.x)))
        assert err(512) <= err(256) / 12.0
        assert err(256) < 1e-6

    def test_cumulative_integral(self):
        def err(n):
            f = gf(lambda x: np.cos(2 * np.pi * x), n)
            exact = np.sin(2 * np.pi * f.x) / (2 * np.pi)
            return np.max(np.abs(cumulative_integral(f).values - exact))
        assert err(512) <= err(256) / 12.0
        assert err(512) < 1e-9
        assert cumulative_integral(gf(lambda x: x)).values[0] == 0.0

    def test_fundamental_theorem(self):
        f = gf(lambda x: np.exp(x) * np.sin(3 * x))
        back = differentiate(cumulative_integral(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-8

    @pytest.mark.parametrize("kind", ["sines", "noise"])
    @pytest.mark.parametrize("n", [2048, 1023])
    @pytest.mark.parametrize("op", [differentiate, cumulative_integral])
    def test_rows_match_one_row_calls(self, op, n, kind):
        rows = trig_basis("sine", 16, n) if kind == "sines" \
            else np.random.default_rng(n).normal(size=(3, n + 1))
        batched = op(rows)
        single = np.stack([op(GridFunction(r)).values for r in rows])
        assert batched.shape == rows.shape
        assert np.max(np.abs(batched - single)) <= 1e-15 * np.max(np.abs(single))


class TestSequences:
    def test_seq_norm_closed_form(self):
        assert seq_norm(SequenceData([1.0])) == pytest.approx(math.sqrt(2.0))
        assert seq_norm(SequenceData([1.0], alpha=1.0)) == \
            pytest.approx(2.0 * math.pi * math.sqrt(2.0))
        assert seq_norm(SequenceData([], alpha=1.0)) == 0.0

    def test_seq_norm_weight_grows_with_index(self):
        lone = [seq_norm(SequenceData(np.eye(4)[k], alpha=1.0))
                for k in range(4)]
        assert lone == sorted(lone)

    def test_entries_immutable(self):
        s = SequenceData([1.0, 2.0])
        with pytest.raises(ValueError):
            s.entries[0] = 5.0


class TestSymmetry:
    def test_projection_classes(self):
        odd = gf(lambda x: np.sin(2 * np.pi * x))
        even = gf(lambda x: np.cos(2 * np.pi * x))
        assert symmetry_defect(odd, "odd") < 1e-14
        assert symmetry_defect(even, "even") < 1e-14
        assert symmetry_defect(odd, "even") == pytest.approx(l2_norm(odd),
                                                             rel=1e-12)

    def test_projections_decompose(self):
        f = gf(lambda x: np.exp(x))
        total = symmetry_project(f, "odd") + symmetry_project(f, "even")
        assert np.allclose(total.values, f.values)

    def test_unknown_parity(self):
        with pytest.raises(ValueError):
            symmetry_project(gf(lambda x: x), "sideways")


class TestResample:
    def test_roundtrip_smooth(self):
        f = gf(lambda x: np.sin(2 * np.pi * x), 1024)
        g = resample(resample(f, 512), 1024)
        assert np.max(np.abs(g.values - f.values)) < 1e-10

    def test_identity_fastpath(self):
        f = gf(lambda x: x)
        assert resample(f, f.n) is f


def midpoint_x(n):
    return (np.arange(n) + 0.5) / n


class TestLocalQuintic:
    def test_interior_midpoint_stencil(self):
        n = 64
        weights = np.stack([_midpoints(np.eye(n + 1)[i]) for i in range(n + 1)])
        stencil = np.array([3.0, -25.0, 150.0, 150.0, -25.0, 3.0]) / 256.0
        for j in range(2, n - 2):
            expected = np.zeros(n + 1)
            expected[j - 2:j + 4] = stencil
            assert np.array_equal(weights[:, j], expected)

    @pytest.mark.parametrize("degree", range(6))
    def test_reproduces_quintics(self, degree):
        coeffs = np.random.default_rng(degree).normal(size=degree + 1)
        f = gf(lambda x: np.polyval(coeffs, x - 0.3), 64)
        assert np.max(np.abs(_midpoints(f.values)
                             - np.polyval(coeffs, midpoint_x(64) - 0.3))) < 1e-12
        g = resample(f, 1000)
        assert np.max(np.abs(g.values - np.polyval(coeffs, g.x - 0.3))) < 1e-12

    def test_sixth_order(self):
        def err(n):
            f = gf(lambda x: np.sin(3 * np.pi * x), n)
            return np.max(np.abs(_midpoints(f.values)
                                 - np.sin(3 * np.pi * midpoint_x(n))))

        assert math.log2(err(64) / err(128)) >= 5.5

    def test_doubling_interleaves_midpoints(self):
        f = gf(lambda x: np.exp(np.sin(5 * x)), 300)
        g = resample(f, 600)
        assert np.array_equal(g.values[::2], f.values)
        assert np.array_equal(g.values[1::2], _midpoints(f.values))

    def test_halving_returns_nodes(self):
        f = gf(lambda x: np.exp(np.sin(5 * x)), 300)
        assert np.array_equal(resample(resample(f, 600), 300).values, f.values)


class TestFourierRep:
    def test_sine_basis(self):
        f = FourierRep("sine", [0.0, 1.0]).evaluate(256)
        assert np.allclose(f.values, np.sin(2 * np.pi * f.x))

    def test_full_basis_mean(self):
        f = FourierRep("full", [0.25, 1.0, -0.5]).evaluate(512)
        assert integral(f) == pytest.approx(0.25, abs=1e-12)

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            FourierRep("hexagonal", [1.0])

    @pytest.mark.parametrize("basis", ["sine", "cosine", "full"])
    def test_matches_mode_sum(self, basis):
        # Unit coefficients against the mode-by-mode sum of the definition.
        n, c = 1024, np.ones(7)
        x = np.linspace(0.0, 1.0, n + 1)
        want = np.zeros(n + 1)
        if basis == "full":
            want += c[0]
            for m in range(1, 4):
                want += math.sqrt(2.0) * (c[2 * m - 1] * np.cos(2 * math.pi * m * x)
                                          + c[2 * m] * np.sin(2 * math.pi * m * x))
        else:
            wave = np.sin if basis == "sine" else np.cos
            for k in range(1, c.size + 1):
                want += c[k - 1] * wave(math.pi * k * x)
        got = FourierRep(basis, c).evaluate(n).values
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_empty_coefficients(self):
        for basis in ("sine", "cosine", "full"):
            assert not np.any(FourierRep(basis, []).evaluate(256).values)


def _old_fit_basis(regime, N, n):
    """The fit basis as it was written before ``trig_basis`` existed."""
    x = np.linspace(0.0, 1.0, n + 1)
    m = np.arange(1, N + 1)[:, None]
    cos = math.sqrt(2.0) * np.cos(2.0 * math.pi * m * x[None, :])
    if regime == "symmetric-dirichlet":
        return cos
    sin = math.sqrt(2.0) * np.sin(2.0 * math.pi * m * x[None, :])
    return np.concatenate([cos, sin], axis=0)


class TestTrigBasis:
    @pytest.mark.parametrize("kind", ["sine", "cosine"])
    def test_simpson_gram_is_identity(self, kind):
        B = trig_basis(kind, 8, 256)
        gram = (B * _simpson_weights(256)[None, :]) @ B.T
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            trig_basis("tan", 4, 256)

    @pytest.mark.parametrize("regime", ["symmetric-dirichlet", "dirichlet"])
    @pytest.mark.parametrize("N", [3, 5, 12])
    @pytest.mark.parametrize("n", [1024, 16384])
    def test_fit_basis_bit_identical(self, regime, N, n):
        norming = None if regime == "symmetric-dirichlet" else np.zeros(N)
        target = FitTarget(regime=regime, remainders=np.zeros(N),
                           norming=norming)
        basis = _FitMap(target, InversionConfig(fit_grid=n)).basis
        assert np.array_equal(basis, _old_fit_basis(regime, N, n))


coeffs = st.lists(st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=5)


@st.composite
def waves(draw):
    return FourierRep("sine", draw(coeffs)).evaluate(256)


class TestProperties:
    @given(waves(), waves(), st.floats(-3.0, 3.0))
    @settings(deadline=None)
    def test_integral_linear(self, f, g, c):
        lhs = integral(f + g * c)
        assert lhs == pytest.approx(integral(f) + c * integral(g),
                                    abs=1e-10 * (1 + abs(c)))

    @given(waves())
    @settings(deadline=None)
    def test_integral_bounded_by_sup(self, f):
        assert abs(integral(f)) <= sup_norm(f) + 1e-12

    @given(waves(), waves())
    @settings(deadline=None)
    def test_inner_product_symmetric(self, f, g):
        assert inner_product(f, g) == pytest.approx(inner_product(g, f),
                                                    abs=1e-12)

    @given(waves())
    @settings(deadline=None)
    def test_norm_consistent(self, f):
        assert l2_norm(f) ** 2 == pytest.approx(inner_product(f, f),
                                                abs=1e-12)

    @given(waves(), st.sampled_from(["odd", "even"]))
    @settings(deadline=None)
    def test_projection_idempotent(self, f, parity):
        p = symmetry_project(f, parity)
        again = symmetry_project(p, parity)
        assert np.allclose(again.values, p.values)
        assert symmetry_defect(p, parity) < 1e-12

    @given(waves())
    @settings(deadline=None)
    def test_parity_parts_orthogonal(self, f):
        odd = symmetry_project(f, "odd")
        even = symmetry_project(f, "even")
        assert inner_product(odd, even) == pytest.approx(0.0, abs=1e-10)
