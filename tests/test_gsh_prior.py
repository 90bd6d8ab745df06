import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refs
from gsh_shrink.gsh_prior import (GshParams, ShrinkagePrior, gsh_cdf,
                                  gsh_constants, gsh_density, gsh_kurtosis,
                                  gsh_log_density, gsh_quantile, gsh_sample)
from gsh_shrink.numerics import SeededRng

T_GRID = (-3.0, -1.0, 0.1, 1.0, 3.0, 10.0)
TAU_GRID = (0.5, 1.0, 2.0)
#: The admissible shape range (-pi, 50] with its clamp, both sides of the
#: logistic switch and the elicitation's upper clamp.
T_CLOSED_FORM = (-math.pi + 1e-3, -3.0, -1.5, -1e-7, 0.0, 1e-7, 0.5, 3.0,
                 10.0, 50.0)


def normalization_integral(tau, t, points=200001):
    p = GshParams.make(tau, t)
    theta = np.linspace(-60.0 * tau, 60.0 * tau, points)
    return np.trapezoid(gsh_density(theta, p), theta)


class TestConstants:
    def test_hyperbolic_secant_case(self):
        a, c1, c2 = gsh_constants(-math.pi / 2)
        assert a == pytest.approx(0.0, abs=1e-12)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1e-9, -1e-9])
    def test_logistic_limit(self, t):
        a, c1, c2 = gsh_constants(t)
        assert a == pytest.approx(1.0, abs=1e-9)
        assert c1 == pytest.approx(math.pi / math.sqrt(3), abs=1e-9)
        assert c2 == pytest.approx(math.pi / math.sqrt(3), abs=1e-9)

    def test_positive_branch(self):
        a, c1, c2 = gsh_constants(1.0)
        assert a == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert c2 == pytest.approx(math.sqrt((math.pi**2 + 1) / 3), rel=1e-15)
        assert c1 == pytest.approx(math.sinh(1.0) * c2, rel=1e-15)

    @pytest.mark.parametrize("t", [-math.pi, -4.0, math.nan])
    def test_invalid_shape(self, t):
        with pytest.raises(ValueError):
            gsh_constants(t)

    @pytest.mark.parametrize("t", [-math.pi + 1e-3, -3.1, -3.0])
    def test_constants_keep_their_digits_near_the_clamp(self, t):
        # pi^2 - t^2 cancels as t -> -pi; (pi - t)(pi + t) does not
        a, c1, c2 = gsh_constants(t)
        ref_a, _, ref_c1, ref_c2 = refs.gsh_constants(t)
        for got, ref in ((a, ref_a), (c1, ref_c1), (c2, ref_c2)):
            assert abs(got - ref) <= math.ulp(ref)

    def test_continuity_at_branch_switch(self):
        lo = gsh_constants(-1e-7)
        mid = gsh_constants(0.0)
        hi = gsh_constants(1e-7)
        for x, y, z in zip(lo, mid, hi):
            assert x == pytest.approx(y, abs=1e-10)
            assert z == pytest.approx(y, abs=1e-10)


class TestDensity:
    def test_value_at_zero_sech_case(self):
        p = GshParams.make(1.0, -math.pi / 2)
        # constants (0, 1, pi/2): g(0) = 1 / (1 + 0 + 1)
        assert gsh_log_density(0.0, p) == pytest.approx(math.log(0.5), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(-50, 50), t=st.floats(-3.1, 10),
           tau=st.floats(0.1, 5))
    def test_symmetry(self, theta, t, tau):
        p = GshParams.make(tau, t)
        assert gsh_log_density(theta, p) == pytest.approx(
            gsh_log_density(-theta, p), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t", T_GRID)
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_normalization(self, t, tau):
        assert normalization_integral(tau, t) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t", T_GRID)
    def test_scale_family(self, t):
        theta = np.linspace(-8, 8, 101)
        for tau in (0.5, 2.0):
            p_tau = GshParams.make(tau, t)
            p_one = GshParams.make(1.0, t)
            np.testing.assert_allclose(
                gsh_density(theta, p_tau),
                gsh_density(theta / tau, p_one) / tau,
                rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("t", T_GRID)
    def test_exponential_tail(self, t):
        # log g -> log(c1/tau) - c2 theta/tau once exp(-z) terms are below
        # the tolerance; the correction is ~2a exp(-z), so start the probe
        # at z = 16 + log(1 + 2|a|)
        p = GshParams.make(1.0, t)
        z0 = 16.0 + math.log1p(2.0 * abs(p.a))
        theta = np.linspace(z0 / p.c2, z0 / p.c2 + 5.0, 9)
        expected = math.log(p.c1) - p.c2 * theta
        np.testing.assert_allclose(gsh_log_density(theta, p), expected,
                                   atol=1e-6)

    def test_negative_a_positivity(self):
        # a = cos(-3) < 0; the denominator is (e^z + a)^2 + sin^2 t > 0
        p = GshParams.make(1.0, -3.0)
        theta = np.linspace(-30, 30, 2001)
        vals = gsh_density(theta, p)
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0)

    def test_overflow_safety(self):
        p = GshParams.make(1.0, 3.0)
        val = gsh_log_density(300.0, p)
        assert np.isfinite(val)
        assert val == pytest.approx(math.log(p.c1) - p.c2 * 300.0, rel=1e-12)

    @pytest.mark.parametrize("t", T_CLOSED_FORM)
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_log_density_matches_oracle(self, t, tau):
        p = GshParams.make(tau, t)
        theta = tau * np.concatenate([np.linspace(-200.0, 200.0, 801),
                                      np.linspace(-1.0, 1.0, 201),
                                      [-1e-9, 1e-9, 1e5, -1e300]])
        ref = refs.gsh_log_density(theta, tau, t)
        np.testing.assert_allclose(gsh_log_density(theta, p), ref, rtol=1e-12, atol=0.0)

    def test_log_density_of_the_largest_doubles(self):
        # 2 max(z, 0) overflowed to inf here, and log g came out -inf or NaN
        p = GshParams.make(1.0, -3.0)
        theta = np.array([1.7e308, -1.7e308])
        np.testing.assert_allclose(gsh_log_density(theta, p),
                                   math.log(p.c1) - p.c2 * 1.7e308, rtol=1e-15)


class TestKurtosis:
    def test_logistic_value(self):
        assert gsh_kurtosis(0.0) == pytest.approx(4.2)
        assert gsh_kurtosis(1e-9) == pytest.approx(4.2)

    def test_sech_value(self):
        assert gsh_kurtosis(-math.pi / 2) == pytest.approx(5.0, rel=1e-14)

    def test_t10_value(self):
        expected = (21 * math.pi**2 + 900) / (5 * math.pi**2 + 500)
        assert gsh_kurtosis(10.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(2.01559, abs=5e-6)

    def test_strictly_decreasing(self):
        grid = [-3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        vals = [gsh_kurtosis(t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 9 / 5 for v in vals)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gsh_kurtosis(-math.pi)


class TestCdf:
    @pytest.mark.parametrize("t", T_GRID)
    def test_center_is_exactly_half(self, t):
        p = GshParams.make(1.0, t)
        assert gsh_cdf(0.0, p) == 0.5

    @pytest.mark.parametrize("t", T_GRID)
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_total_mass(self, t, tau):
        p = GshParams.make(tau, t)
        assert gsh_cdf(60.0 * tau, p) == pytest.approx(1.0, abs=1e-9)
        assert gsh_cdf(-60.0 * tau, p) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("t", T_GRID)
    def test_symmetry(self, t):
        p = GshParams.make(1.0, t)
        theta = np.linspace(0.0, 20.0, 41)
        np.testing.assert_allclose(gsh_cdf(theta, p) + gsh_cdf(-theta, p),
                                   1.0, atol=1e-9)

    def test_nondecreasing(self):
        p = GshParams.make(1.0, 3.0)
        theta = np.linspace(-65, 65, 4001)
        vals = gsh_cdf(theta, p)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_matches_dense_quadrature(self):
        p = GshParams.make(1.0, -1.0)
        for x in (-3.0, -0.5, 0.7, 2.0, 5.0):
            grid = np.linspace(0.0, abs(x), 100001)
            half = np.trapezoid(gsh_density(grid, p), grid)
            ref = 0.5 + math.copysign(half, x)
            assert gsh_cdf(x, p) == pytest.approx(ref, abs=1e-7)


class TestClosedForm:
    @pytest.mark.parametrize("t", T_CLOSED_FORM)
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_cdf_matches_oracle(self, t, tau):
        p = GshParams.make(tau, t)
        theta = tau * np.concatenate([np.linspace(-60.0, 60.0, 481),
                                      np.linspace(-1.0, 1.0, 201),
                                      [-1e-9, 1e-9, -1e-4, 1e-4]])
        err = np.abs(gsh_cdf(theta, p) - refs.gsh_cdf(theta, tau, t))
        assert np.max(err) <= 1e-12

    @pytest.mark.parametrize("t", T_CLOSED_FORM)
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_quantile_round_trip(self, t, tau):
        p = GshParams.make(tau, t)
        tail = 2.0 ** -np.arange(1, 54)
        q = np.concatenate([tail, 1.0 - tail,
                            np.linspace(2.0**-53, 1.0 - 2.0**-53, 2001)])
        back = gsh_cdf(gsh_quantile(q, p), p)
        assert np.max(np.abs(back - q)) <= 1e-12
        # below the median the inverse also holds relative to the mass
        lower = q <= 0.5
        assert np.max(np.abs(back[lower] - q[lower]) / q[lower]) <= 1e-12

    @pytest.mark.parametrize("t", T_CLOSED_FORM)
    def test_quantile_center_and_order(self, t):
        p = GshParams.make(1.0, t)
        assert gsh_quantile(0.5, p) == 0.0
        q = np.linspace(0.0, 1.0, 4001)
        assert np.all(np.diff(gsh_quantile(q, p)) >= 0)

    @pytest.mark.parametrize("t", (-math.pi + 1e-3, -1.0, 0.0, 3.0, 50.0))
    def test_sample_is_quantile_of_the_uniforms(self, t):
        p = GshParams.make(1.5, t)
        u = SeededRng(21, 4).generator().random(5000)
        np.testing.assert_array_equal(gsh_sample(SeededRng(21, 4), p, 5000),
                                      gsh_quantile(u, p))


class TestSampling:
    def test_empty(self):
        out = gsh_sample(SeededRng(1), GshParams.make(1.0, 1.0), 0)
        assert out.shape == (0,)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            gsh_sample(SeededRng(1), GshParams.make(1.0, 1.0), -2)

    def test_determinism(self):
        p = GshParams.make(1.0, -1.0)
        a = gsh_sample(SeededRng(5, 2), p, 1000)
        b = gsh_sample(SeededRng(5, 2), p, 1000)
        np.testing.assert_array_equal(a, b)

    def test_mean_and_variance(self):
        p = GshParams.make(1.0, 1.0)
        s = gsh_sample(SeededRng(11), p, 200_000)
        assert abs(s.mean()) < 0.01
        # the parametrisation is standardised: variance = tau^2
        assert s.var() == pytest.approx(1.0, abs=0.02)

    def test_scale(self):
        p = GshParams.make(2.0, 1.0)
        s = gsh_sample(SeededRng(11), p, 200_000)
        assert s.var() == pytest.approx(4.0, abs=0.1)

    def test_quantile_boundary_is_finite(self):
        # a uniform draw of exactly 0 reaches q = 0, the boundary of the inverse
        p = GshParams.make(1.0, 1.0)
        qs = np.array([0.0, 0.25, 0.5 - 1e-7, 0.5, np.nextafter(1.0, 0.0)])
        out = gsh_quantile(qs, p)
        assert np.all(np.isfinite(out))
        assert np.all(np.diff(out) >= 0)


class TestTypes:
    def test_make_validates_tau(self):
        with pytest.raises(ValueError):
            GshParams.make(0.0, 1.0)
        with pytest.raises(ValueError):
            GshParams.make(-1.0, 1.0)

    def test_prior_alpha_bounds(self):
        p = GshParams.make(1.0, 1.0)
        ShrinkagePrior(0.0, p)
        ShrinkagePrior(1.0, p)
        with pytest.raises(ValueError):
            ShrinkagePrior(1.5, p)
        with pytest.raises(ValueError):
            ShrinkagePrior(-0.1, p)
