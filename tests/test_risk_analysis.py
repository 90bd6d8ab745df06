import numpy as np
import pytest

from gsh_shrink.gsh_prior import GshParams, ShrinkagePrior, gsh_sample
from gsh_shrink.numerics import QuadratureSpec, SeededRng, sample_normal
from gsh_shrink.risk_analysis import (MONTE_CARLO, QUADRATURE, bayes_risk,
                                      default_risk_grid, risk_curve,
                                      rule_moments)
from gsh_shrink.shrinkage import ShrinkageRule, shrink_array

GH64 = QuadratureSpec(node_count=64)


def make_rule(alpha=0.9, tau=1.0, t=3.0, sigma=1.0, quad=GH64):
    return ShrinkageRule(prior=ShrinkagePrior(alpha, GshParams.make(tau, t)),
                         sigma=sigma, quad=quad)


class TestRuleMoments:
    def test_point_mass_rule(self):
        rule = make_rule(alpha=1.0)
        for theta in (0.0, 1.5, -4.0):
            bias_sq, variance, risk = rule_moments(theta, rule)
            assert bias_sq == pytest.approx(theta**2, abs=1e-12)
            assert variance == 0.0
            assert risk == pytest.approx(theta**2, abs=1e-12)

    def test_bias_vanishes_at_origin(self):
        bias_sq, variance, risk = rule_moments(0.0, make_rule())
        assert bias_sq < 1e-20
        assert risk == pytest.approx(variance, abs=1e-20)

    def test_against_monte_carlo_oracle(self):
        # R(3) = E[(delta(d) - 3)^2] estimated from raw normal draws
        rule = make_rule()
        draws = sample_normal(SeededRng(77), 3.0, 1.0, 10**6)
        sq_err = (shrink_array(draws, rule) - 3.0) ** 2
        mc = sq_err.mean()
        se = sq_err.std(ddof=1) / np.sqrt(sq_err.size)
        risk = rule_moments(3.0, rule)[2]
        assert abs(risk - mc) < 3 * se

    def test_vector_input(self):
        theta = np.array([-2.0, 0.0, 2.0])
        bias_sq, variance, risk = rule_moments(theta, make_rule())
        assert bias_sq.shape == (3,)
        np.testing.assert_allclose(risk, bias_sq + variance, atol=1e-12)

    def test_matrix_input_keeps_its_shape(self):
        # a 2-D theta raised a broadcasting error; each output now has its
        # shape and the values of the flat call
        theta = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
        rule = make_rule(t=-3.0)
        flat = rule_moments(theta.ravel(), rule)
        for got, want in zip(rule_moments(theta, rule), flat):
            assert got.shape == (3, 4)
            assert np.array_equal(got.ravel(), want)
        assert [x.shape for x in rule_moments(np.zeros((2, 0)), rule)] == [(2, 0)] * 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_theta_named(self, bad):
        # the error named index (1, 0) of the internal (theta x node) matrix
        rule = make_rule(t=-3.0)
        with pytest.raises(ValueError, match=r"theta must be finite: index 1 is"):
            risk_curve([0.0, bad, 2.0], rule)
        with pytest.raises(ValueError, match=r"theta must be finite: index \(0, 1\) is"):
            rule_moments(np.array([[0.0, bad]]), rule)


class TestRiskCurve:
    def test_even_functions_on_symmetric_grid(self):
        curve = risk_curve(default_risk_grid(), make_rule())
        np.testing.assert_allclose(curve.squared_bias,
                                   curve.squared_bias[::-1], atol=1e-8)
        np.testing.assert_allclose(curve.classical_risk,
                                   curve.classical_risk[::-1], atol=1e-8)

    def test_decomposition_identity(self):
        curve = risk_curve(default_risk_grid(), make_rule(t=-3.0))
        np.testing.assert_allclose(
            curve.classical_risk, curve.squared_bias + curve.variance,
            atol=1e-8)
        assert np.all(curve.squared_bias >= 0)
        assert np.all(curve.variance >= 0)

    def test_degenerate_rule_curve(self):
        grid = default_risk_grid()
        curve = risk_curve(grid, make_rule(alpha=1.0))
        np.testing.assert_allclose(curve.classical_risk, grid**2, atol=1e-12)

    def test_default_grid(self):
        grid = default_risk_grid()
        assert grid.size == 321
        assert grid[0] == -8.0 and grid[-1] == 8.0


class TestBayesRisk:
    def test_point_mass_is_free(self):
        est = bayes_risk(make_rule(alpha=1.0))
        assert est.value == 0.0

    def test_quadrature_monte_carlo_agreement(self):
        rule = make_rule()
        quad = bayes_risk(rule, QUADRATURE)
        mc = bayes_risk(rule, MONTE_CARLO, mc_draws=20000, rng=SeededRng(3))
        assert mc.std_error > 0
        assert abs(quad.value - mc.value) < 3 * mc.std_error

    def test_grid_doubling_stability(self):
        rule = make_rule(t=-1.0)
        a = bayes_risk(rule, QUADRATURE, theta_points=4801).value
        b = bayes_risk(rule, QUADRATURE, theta_points=9601).value
        assert abs(a - b) / a < 1e-4

    def test_risk_at_zero_nonincreasing_in_alpha(self):
        risks = [rule_moments(0.0, make_rule(alpha=a))[2]
                 for a in (0.6, 0.9, 0.99)]
        assert risks[0] >= risks[1] >= risks[2]

    def test_frozen_reference_value(self):
        # dense-grid quadrature value for (t=3, alpha=0.9, tau=sigma=1),
        # cross-checked against Monte Carlo in the acceptance suite
        est = bayes_risk(make_rule(), QUADRATURE)
        assert est.value == pytest.approx(0.08546, abs=2e-3)

    def test_monte_carlo_needs_rng(self):
        with pytest.raises(ValueError):
            bayes_risk(make_rule(), MONTE_CARLO, mc_draws=10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            bayes_risk(make_rule(), "bootstrap")

    def test_bad_draw_count(self):
        with pytest.raises(ValueError):
            bayes_risk(make_rule(), MONTE_CARLO, mc_draws=0, rng=SeededRng(1))
