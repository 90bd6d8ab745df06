import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gsh_shrink
from conftest import refs
from gsh_shrink.gsh_prior import GshParams, ShrinkagePrior, gsh_log_density
from gsh_shrink.numerics import (DENSE_QUAD, PIPELINE_QUAD, QuadratureSpec,
                                 TRAPEZOID_ORACLE, gaussian_quad_nodes)
from gsh_shrink.shrinkage import (_MAX_PANELS, _SUB_PANELS, _TABLE_NODES, _Z_DIRECT,
                                  ShrinkageRule, _clenshaw, _kernel, shrink, shrink_array)

GH32 = QuadratureSpec(node_count=32)
GH64 = QuadratureSpec(node_count=64)


def make_rule(alpha=0.9, tau=1.0, t=3.0, sigma=1.0, quad=DENSE_QUAD):
    return ShrinkageRule(prior=ShrinkagePrior(alpha, GshParams.make(tau, t)),
                         sigma=sigma, quad=quad)


class TestBasics:
    def test_point_mass_prior_kills_everything(self):
        rule = make_rule(alpha=1.0)
        for d in (-5.0, 0.0, 0.3, 12.0):
            assert shrink(d, rule) == 0.0

    def test_zero_maps_to_zero(self):
        for t in (-3.0, 0.1, 3.0, 10.0):
            assert shrink(0.0, make_rule(t=t)) == 0.0

    def test_nonfinite_rejected(self):
        rule = make_rule()
        with pytest.raises(ValueError):
            shrink(float("nan"), rule)
        with pytest.raises(ValueError):
            shrink(float("inf"), rule)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_array_rejected(self, bad):
        for alpha in (0.9, 1.0):
            rule = make_rule(alpha=alpha)
            with pytest.raises(ValueError, match=r"index 1 is"):
                shrink_array([1.0, bad, np.inf], rule)
            d = np.zeros((3, 50))
            d[2, 7] = bad
            with pytest.raises(ValueError, match=r"index \(2, 7\) is"):
                shrink_array(d, rule)

    def test_empty_input(self):
        for alpha in (0.9, 1.0):
            out = shrink_array(np.empty((0,)), make_rule(alpha=alpha))
            assert out.shape == (0,)
            assert out.dtype == np.float64

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            make_rule(sigma=0.0)

    def test_extreme_coefficient_is_stable(self):
        rule = make_rule()
        val = shrink(100.0, rule)
        assert np.isfinite(val)
        assert 90.0 < val <= 100.0

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64],
                             ids=["pipeline", "dense", "gh64"])
    def test_largest_doubles_stay_finite(self, quad):
        # the log density overflowed at |d| = 1.7e308 and delta came out NaN;
        # at tau = 0.1, k |d| itself overflows and every log weight was -inf
        d = np.array([1.7e308, -1.7e308, 1e200, -1e154, 1e10])
        for tau in (0.1, 1.0, 40.0):
            rule = make_rule(alpha=0.9, tau=tau, t=-3.0, sigma=1.0, quad=quad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = shrink_array(d, rule)
            assert np.all(np.isfinite(out)), f"tau={tau}"
            assert np.all(np.abs(out) <= np.abs(d)), f"tau={tau}"
            assert np.array_equal(np.sign(out), np.sign(d)), f"tau={tau}"

    def test_direct_and_shifted_paths_agree_at_crossover(self):
        # the evaluator switches from direct density evaluation to the
        # log-space shifted form once cosh could overflow; the two paths
        # must agree with the oracle on either side of the switch
        rule = make_rule(t=10.0)  # switch near |d| =~ 87
        d = np.array([80.0, 85.0, 90.0, 95.0])
        assert [shrink(x, rule) for x in d] == pytest.approx(
            refs.posterior_mean(d, 0.9, 1.0, 1.0, 10.0), abs=1e-6)
        grid = np.linspace(70.0, 110.0, 401)
        assert np.all(np.diff(shrink_array(grid, rule)) > 0)


def test_oracle_loads_no_gsh_shrink():
    # the oracle must share no code with the rule it checks, or a fault in
    # the rule could hide in its own reference
    code = ("import sys, refs; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gsh_shrink'))")
    path = os.pathsep.join([str(Path(refs.__file__).parent),
                            str(Path(gsh_shrink.__file__).resolve().parents[1])])
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={"PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


class TestOracleAgreement:
    def test_spec_point_gauss_hermite(self):
        # d=3, sigma=1, tau=1, alpha=0.9, t=3: the 64-node rule has
        # converged here and must match the direct posterior integral
        rule = make_rule(quad=GH64)
        oracle = refs.posterior_mean(3.0, 0.9, 1.0, 1.0, 3.0)[0]
        assert shrink(3.0, rule) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("t", [-3.0, 0.1, 3.0, 10.0])
    @pytest.mark.parametrize("alpha", [0.6, 0.99])
    def test_default_quadrature_matches_oracle(self, t, alpha):
        rule = make_rule(alpha=alpha, t=t)
        d = np.array([0.5, 1.0, 3.0, 6.0, 10.0])
        assert [shrink(x, rule) for x in d] == pytest.approx(
            refs.posterior_mean(d, alpha, 1.0, 1.0, t), abs=1e-6)

    def test_alpha_zero_pure_slab(self):
        rule = make_rule(alpha=0.0)
        oracle = refs.posterior_mean(2.0, 0.0, 1.0, 1.0, 3.0)[0]
        assert shrink(2.0, rule) == pytest.approx(oracle, abs=1e-8)

    def test_nonunit_sigma(self):
        rule = make_rule(sigma=2.5)
        oracle = refs.posterior_mean(4.0, 0.9, 2.5, 1.0, 3.0)[0]
        assert shrink(4.0, rule) == pytest.approx(oracle, abs=1e-6)


class TestShapeProperties:
    @pytest.mark.parametrize("t", [-3.0, 0.1, 3.0, 10.0])
    def test_antisymmetry(self, t):
        rule = make_rule(t=t)
        for d in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert shrink(-d, rule) == pytest.approx(-shrink(d, rule),
                                                     abs=1e-10)

    @pytest.mark.parametrize("t", [-3.0, 0.1, 3.0, 10.0])
    def test_shrinks_towards_zero(self, t):
        rule = make_rule(t=t)
        d = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        out = shrink_array(d, rule)
        assert np.all(np.abs(out) <= np.abs(d))

    @pytest.mark.parametrize("t", [-3.0, 0.1, 3.0, 10.0])
    def test_monotone_nondecreasing(self, t):
        rule = make_rule(t=t)
        grid = np.linspace(-10, 10, 2001)
        vals = shrink_array(grid, rule)
        assert np.all(np.diff(vals) >= -1e-10)

    def test_heavier_tails_shrink_extremes_less(self):
        # at d = 6 the near-uniform slab (t=10) shrinks far more than the
        # heavy slab (t=-3); verified against the oracle before asserting
        # on the implementation
        o_heavy = refs.posterior_mean(6.0, 0.9, 1.0, 1.0, -3.0)[0]
        o_light = refs.posterior_mean(6.0, 0.9, 1.0, 1.0, 10.0)[0]
        assert o_light < o_heavy
        got_heavy = shrink(6.0, make_rule(t=-3.0))
        got_light = shrink(6.0, make_rule(t=10.0))
        assert got_light < got_heavy
        assert got_heavy == pytest.approx(o_heavy, abs=1e-6)
        assert got_light == pytest.approx(o_light, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), t=st.floats(-3.1, 12.0),
           tau=st.floats(0.2, 3.0), sigma=st.floats(0.2, 3.0),
           d=st.floats(0.01, 30.0))
    # a 32-node Gauss-Hermite rule returns -0.2665 here, where the posterior
    # mean is +0.0038121: the slab's poles lie 0.43 = sigma/4.6 from the
    # real axis, too close for Gauss-Hermite to resolve, so the property is
    # checked under the shipped dense default (Gauss-Hermite accuracy is
    # covered by test_gauss_hermite_node_doubling and the acceptance suite)
    @example(alpha=0.0, t=0.0, tau=0.25, sigma=2.0, d=0.25)
    def test_random_rules_contract_towards_zero(self, alpha, t, tau, sigma, d):
        rule = make_rule(alpha=alpha, tau=tau, t=t, sigma=sigma)
        plus = shrink(d, rule)
        minus = shrink(-d, rule)
        assert abs(plus) <= d
        assert minus == pytest.approx(-plus, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 3.0])
    def test_gauss_hermite_node_doubling(self, t):
        # GH converges here (for t = -3 and t = 10 the density's complex
        # poles sit too close to the real axis; see the dense default)
        r64 = make_rule(t=t, quad=QuadratureSpec(node_count=64))
        r128 = make_rule(t=t, quad=QuadratureSpec(node_count=128))
        grid = np.linspace(-10, 10, 201)
        np.testing.assert_allclose(shrink_array(grid, r64),
                                   shrink_array(grid, r128), atol=1e-8)

    @pytest.mark.parametrize("t", [-3.0, 0.1, 3.0, 10.0])
    def test_default_quadrature_resolution_doubling(self, t):
        dense = QuadratureSpec(method=TRAPEZOID_ORACLE, oracle_halfwidth=12.0,
                               oracle_points=4001)
        grid = np.linspace(-10, 10, 201)
        np.testing.assert_allclose(shrink_array(grid, make_rule(t=t)),
                                   shrink_array(grid, make_rule(t=t, quad=dense)),
                                   atol=1e-8)


def cosh_form_shrink(d, rule):
    """Reference posterior mean: the slab weights through np.cosh, summed
    node by node over blocks of up to 4e6 elements, with the same log-space
    fallback beyond |z| = 600 as the kernel."""
    d = np.asarray(d, dtype=float)
    alpha = rule.prior.alpha
    u, v = gaussian_quad_nodes(rule.quad)
    sigma, p = rule.sigma, rule.prior.gsh
    flat = d.ravel()
    out = np.empty_like(flat)
    block = max(1, 4_000_000 // u.size)
    for start in range(0, flat.size, block):
        dj = flat[start:start + block]
        arg = dj[:, None] + sigma * u[None, :]
        z_reach = p.c2 * (np.abs(dj).max() + sigma * np.abs(u).max()) / p.tau
        log_point = (np.log(alpha) - np.log(sigma) - 0.5 * (dj / sigma) ** 2
                     - 0.5 * np.log(2.0 * np.pi)) if alpha > 0.0 else -np.inf
        if z_reach < 600.0:
            gv = (p.c1 / p.tau) / (2.0 * np.cosh(p.c2 / p.tau * arg)
                                   + 2.0 * p.a) * v[None, :]
            shift = np.zeros((dj.size, 1))
        else:
            s = gsh_log_density(arg, p) + np.log(v)[None, :]
            shift = s.max(axis=1, keepdims=True)
            gv = np.exp(s - shift)
        point = np.exp(log_point - shift[:, 0])
        out[start:start + block] = (1.0 - alpha) * (gv * arg).sum(axis=1) \
            / (point + (1.0 - alpha) * gv.sum(axis=1))
    out[flat == 0.0] = 0.0
    return out.reshape(d.shape)


class TestCoshFormReference:
    """The factorised kernel against the cosh-form sum it replaced.

    The tolerance is fixed from the arithmetic, not from a measurement: at
    the t clamp, 2 cosh(z) + 2a cancels down to 2 + 2 cos(t) ~ 1e-6, which
    magnifies rounding by ~2e6, and ~10 ulp of that is 1e-8 * sigma.
    """

    # 37 x 41 = 1517 coefficients: not a multiple of any quadrature's block
    # rows (127, 32, 1024), |d| up to 100 sigma with d = 0 at the centre,
    # and two-dimensional like the d matrix of rule_moments
    D_UNIT = np.sinh(np.linspace(-np.arcsinh(100.0), np.arcsinh(100.0),
                                 37 * 41)).reshape(37, 41)

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64],
                             ids=["pipeline", "dense", "gh64"])
    @pytest.mark.parametrize("t", [-np.pi + 1e-3, -3.0, 0.0, 3.0, 10.0, 50.0])
    def test_matches_cosh_form(self, t, quad):
        assert self.D_UNIT.flat[self.D_UNIT.size // 2] == 0.0
        sigma = 1.5
        for ratio in (0.1, 1.0, 10.0):
            for alpha in (0.0, 0.9):
                rule = make_rule(alpha=alpha, tau=sigma / ratio, t=t,
                                 sigma=sigma, quad=quad)
                d = sigma * self.D_UNIT
                with warnings.catch_warnings(record=True) as ref_warnings:
                    warnings.simplefilter("always")
                    ref = cosh_form_shrink(d, rule)
                # no new warnings: where the reference is silent, so is the kernel
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore" if ref_warnings else "error")
                    got = shrink_array(d, rule)
                assert got.shape == d.shape
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-8 * sigma,
                                           err_msg=f"sigma/tau={ratio} alpha={alpha}")


def direct_shrink(d, rule):
    """shrink_array over pieces of at most _TABLE_NODES coefficients: no
    panel then holds more coefficients than a table has nodes, so every
    coefficient is evaluated directly."""
    flat = np.ravel(d)
    return np.concatenate([shrink_array(flat[i:i + _TABLE_NODES], rule)
                           for i in range(0, flat.size, _TABLE_NODES)]).reshape(np.shape(d))


class TestPanelTables:
    """Chebyshev tables per pole-width panel against the direct evaluation
    they stand in for, on inputs dense enough for tables to be built."""

    SIGMA = 1.5
    #: mean coefficients per panel: a panel needs more than _TABLE_NODES
    PER_PANEL = 40
    MOST = 20_000
    T_BOX = [-np.pi + 1e-3, -3.0, 0.0, 3.0, 10.0, 50.0]

    def dense_input(self, rule, seed):
        """Uniform |d| <= 8 sigma, PER_PANEL a pole-width panel on average
        (at most MOST); where far panels 2 tau/c2 wide exist (t < 2 - pi), a
        uniform band |d| <= 100 sigma, PER_PANEL a far panel on average;
        then TestCoshFormReference's sinh grid out to 100 sigma."""
        p = rule.prior.gsh
        rho = refs.pole_distance(p.tau, p.t)
        width = 2.0 * p.tau / refs.gsh_constants(p.t)[3]
        rng = np.random.default_rng(seed)
        n = min(self.MOST, int(self.PER_PANEL * 8.0 * rule.sigma / rho) + 1)
        parts = [rng.uniform(-8.0, 8.0, n)]
        if width > rho:
            n = min(self.MOST, int(self.PER_PANEL * 100.0 * rule.sigma / width) + 1)
            parts.append(rng.uniform(-100.0, 100.0, n))
        return rule.sigma * np.concatenate(parts + [TestCoshFormReference.D_UNIT.ravel()])

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64, GH32],
                             ids=["pipeline", "dense", "gh64", "gh32"])
    @pytest.mark.parametrize("t", T_BOX)
    def test_matches_direct_evaluation(self, t, quad):
        reach = np.abs(gaussian_quad_nodes(quad)[0]).max()
        for ratio in (0.1, 1.0, 10.0):
            for alpha in (0.0, 0.9):
                rule = make_rule(alpha=alpha, tau=self.SIGMA / ratio, t=t,
                                 sigma=self.SIGMA, quad=quad)
                p = rule.prior.gsh
                if p.c2 / p.tau * self.SIGMA * reach >= _Z_DIRECT:
                    # every coefficient takes the log-space branch: no tables
                    continue
                d = self.dense_input(rule, seed=round(10 * ratio))
                got, ref = shrink_array(d, rule), direct_shrink(d, rule)
                case = f"sigma/tau={ratio} alpha={alpha}"
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9 * self.SIGMA,
                                           err_msg=case)
                if d.size < self.MOST:
                    # PER_PANEL a panel: tables were built, and a table's
                    # value differs from the direct sum in the last bits
                    assert not np.array_equal(got, ref), case

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64],
                             ids=["pipeline", "dense", "gh64"])
    @pytest.mark.parametrize("t", [-np.pi + 1e-3, 0.0, 10.0])
    def test_odd_bit_for_bit(self, t, quad):
        rule = make_rule(alpha=0.9, tau=self.SIGMA, t=t, sigma=self.SIGMA, quad=quad)
        d = self.dense_input(rule, seed=2)
        assert np.array_equal(shrink_array(-d, rule), -shrink_array(d, rule))

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD], ids=["pipeline", "dense"])
    def test_every_dense_panel_has_a_table(self, quad):
        # at the clamp with sigma/tau = 10, rho-wide panels out to 100 sigma
        # number 45 760, past _MAX_PANELS, so coefficients beyond about 36
        # sigma could not be tabled; with far panels past x1 the panels
        # number 5 847 (6 762 under the dense rule), and every panel that
        # holds more coefficients than a table has nodes gets a table
        rule = make_rule(alpha=0.9, tau=self.SIGMA / 10.0, t=-np.pi + 1e-3,
                         sigma=self.SIGMA, quad=quad)
        kernel = _kernel(rule.prior.gsh, rule.sigma, rule.quad)
        d = self.dense_input(rule, seed=8)
        top = np.abs(d).max()
        assert top == pytest.approx(100.0 * self.SIGMA)
        assert top / kernel.rho > _MAX_PANELS
        count, column_of = kernel.tables(d)
        c = kernel.coordinate(np.abs(d))
        assert c.max() < count <= _MAX_PANELS
        held = np.bincount(c.astype(np.intp))
        dense = np.flatnonzero(held > _TABLE_NODES)
        assert dense.max() >= kernel.n1
        assert np.all(column_of[_SUB_PANELS * dense] >= _SUB_PANELS)

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64],
                             ids=["pipeline", "dense", "gh64"])
    @pytest.mark.parametrize("t", [-np.pi + 1e-3, -3.0, 3.0])
    def test_tables_only_dense_panels(self, t, quad):
        # a cold kernel's one call keeps the constant columns and one
        # table per panel that holds more coefficients than a table has
        # nodes, and none for the panels between them
        rule = make_rule(alpha=0.9, tau=self.SIGMA, t=t, sigma=self.SIGMA, quad=quad)
        d = self.dense_input(rule, seed=11)
        _kernel.cache_clear()
        kernel = _kernel(rule.prior.gsh, rule.sigma, rule.quad)
        assert kernel.tables(d) is not None
        held = np.bincount(kernel.coordinate(np.abs(d)).astype(np.intp))
        dense = np.count_nonzero(held[:kernel.max_panels] > _TABLE_NODES)
        assert kernel.series.shape[1] == _SUB_PANELS * (1 + dense)

    @pytest.mark.parametrize("quad", [GH64, GH32], ids=["gh64", "gh32"])
    @pytest.mark.parametrize("t", [-np.pi + 1e-3, 0.0, 10.0])
    def test_gauss_hermite_rules_build_tables(self, t, quad):
        # every quadrature tables its dense panels, rules with few nodes too
        rule = make_rule(alpha=0.9, tau=self.SIGMA, t=t, sigma=self.SIGMA, quad=quad)
        kernel = _kernel(rule.prior.gsh, rule.sigma, rule.quad)
        assert kernel.tables(self.dense_input(rule, seed=9)) is not None

    def test_sign_defects_are_kept(self):
        # where the quadrature itself returns the wrong sign, the kernel must
        # return that value, not hide it by giving delta the sign of d.
        # 64-node Gauss-Hermite at sigma/tau = 10, t = 0, alpha = 0 gives
        # -0.082 at d = 0.1, where the posterior mean is +0.00098
        gh = make_rule(alpha=0.0, tau=0.1, t=0.0, sigma=1.0, quad=GH64)
        d = np.concatenate([[0.1], self.dense_input(gh, seed=3)])
        assert shrink_array(d, gh)[0] == pytest.approx(
            cosh_form_shrink(np.array([0.1]), gh)[0], abs=1e-9)
        assert shrink_array(d, gh)[0] < -0.08
        # the 513-node trapezoid at the t clamp turns 35 coefficients of
        # 0.02 < |d| < 0.08 the wrong way; the tables keep each of them
        pipe = make_rule(alpha=0.0, tau=1.0, t=-np.pi + 1e-3, sigma=1.0, quad=PIPELINE_QUAD)
        d = self.dense_input(pipe, seed=3)
        got, ref = shrink_array(d, pipe), direct_shrink(d, pipe)
        assert np.count_nonzero(ref * d < 0) >= 10
        np.testing.assert_array_equal(np.sign(got), np.sign(ref))

    def test_repeated_call_is_identical(self):
        rule = make_rule(t=-3.0, quad=PIPELINE_QUAD)
        d = self.dense_input(rule, seed=4)
        assert np.array_equal(shrink_array(d, rule), shrink_array(d, rule))


def real_clenshaw(coefs, s):
    """sum_k coefs[k] T_k(s) for a real (terms, points) array, by the
    textbook recurrence."""
    b1 = b2 = np.zeros_like(s)
    for c in coefs[:0:-1]:
        b1, b2 = c + 2.0 * s * b1 - b2, b1
    return coefs[0] + s * b1 - b2


def panel_series(kernel, panel):
    """The 20-term Chebyshev series of I0 and J on one panel, a (terms, 2)
    array in s = 2 (coordinate - panel) - 1, from the sums at the panel's
    Chebyshev points: rho wide up to x1 and width wide beyond."""
    angles = np.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
    c = panel + 0.5 + 0.5 * np.cos(angles)
    if panel < kernel.n1:
        nodes = c * kernel.rho
    else:
        nodes = kernel.x1 + (c - kernel.n1) * kernel.width
    coefs = (2.0 / _TABLE_NODES) * np.cos(np.outer(np.arange(_TABLE_NODES), angles)) \
        @ kernel.integrals(nodes)
    coefs[0] *= 0.5
    return coefs


class TestSubPanelSeries:
    """Each panel's 20-term series is re-expanded on 8 sub-panels as 9-term
    series, evaluated for I0 and J at once by one complex recurrence."""

    T_BOX = [-np.pi + 1e-3, -3.139, -3.0, 0.0, 3.0, 10.0, 50.0]

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD], ids=["pipeline", "dense"])
    @pytest.mark.parametrize("t", T_BOX)
    def test_matches_the_wide_series(self, t, quad):
        # delta from the sub-panel series against delta from the panel's
        # 20-term series, summed here, at every tabled coefficient.  The
        # first far panel's edge lies 10 sub-panel half-widths from the last
        # pole, not 16, so its sub-panel series decay like 20^-k
        cases = far_cases = 0
        for ratio in (0.1, 1.0, 10.0):
            for alpha in (0.0, 0.9):
                rule = make_rule(alpha=alpha, tau=TestPanelTables.SIGMA / ratio, t=t,
                                 sigma=TestPanelTables.SIGMA, quad=quad)
                kernel = _kernel(rule.prior.gsh, rule.sigma, rule.quad)
                d = TestPanelTables().dense_input(rule, seed=round(10 * ratio))
                tables = kernel.tables(d)
                if tables is None:
                    # the log-space branch throughout, or no panel dense enough
                    continue
                cases += 1
                got = shrink_array(d, rule)
                count, column_of = tables
                mag = np.abs(d)
                c = np.fmin(kernel.coordinate(mag), count)
                panel = c.astype(np.intp)
                tabled = column_of[_SUB_PANELS * panel] >= _SUB_PANELS
                mag, c, panel = mag[tabled], c[tabled], panel[tabled]
                if kernel.x1 + kernel.width <= 100.0 * rule.sigma:
                    # a whole far panel lies inside the input's band
                    assert np.any(panel >= kernel.n1), f"sigma/tau={ratio}: no far table"
                    far_cases += 1
                unique, index = np.unique(panel, return_inverse=True)
                coefs = np.stack([panel_series(kernel, p) for p in unique], axis=-1)
                coefs = coefs[..., index]
                s = 2.0 * (c - panel) - 1.0
                i0, j = real_clenshaw(coefs[:, 0], s), real_clenshaw(coefs[:, 1], s)
                ref = np.sign(d[tabled]) * kernel.posterior_mean(mag, i0, j, alpha)
                np.testing.assert_allclose(got[tabled], ref, rtol=0.0,
                                           atol=1e-12 * rule.sigma,
                                           err_msg=f"sigma/tau={ratio} alpha={alpha}")
        assert cases >= 4
        assert far_cases >= (4 if t < 2.0 - np.pi else 0)

    @pytest.mark.parametrize("t", [-np.pi + 1e-3, -3.0, 3.0])
    def test_complex_recurrence_is_two_real_ones(self, t):
        rule = make_rule(t=t, sigma=1.5, quad=PIPELINE_QUAD)
        shrink_array(TestPanelTables().dense_input(rule, seed=6), rule)
        series = _kernel(rule.prior.gsh, rule.sigma, rule.quad).series
        rng = np.random.default_rng(7)
        rows = rng.integers(0, series.shape[1], 5000)
        s = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 4997)])
        sums = _clenshaw(series, rows, s)
        assert np.array_equal(sums.real, real_clenshaw(series.real[:, rows], s))
        assert np.array_equal(sums.imag, real_clenshaw(series.imag[:, rows], s))


class TestKernelCache:
    """One kernel per (slab, sigma, quadrature), kept for the next call: each
    panel's table is a product of its own, whatever batch it is filled in,
    so no result depends on what the kernel evaluated before."""

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64],
                             ids=["pipeline", "dense", "gh64"])
    @pytest.mark.parametrize("t", [-np.pi + 1e-3, -3.0, 3.0])
    def test_same_bits_whatever_the_history(self, t, quad):
        rule = make_rule(alpha=0.9, t=t, sigma=1.5, quad=quad)
        d = TestPanelTables().dense_input(rule, seed=5)
        _kernel.cache_clear()
        cold = shrink_array(d, rule)
        # the same kernel, warmed on other panels first
        _kernel.cache_clear()
        shrink_array(np.concatenate([3.0 * d[::3], d[::7]]), rule)
        assert np.array_equal(shrink_array(d, rule), cold)
        # the same panels, filled in other batches: d's far half first
        _kernel.cache_clear()
        shrink_array(d[np.abs(d) > np.median(np.abs(d))], rule)
        assert np.array_equal(shrink_array(d, rule), cold)
        # after another rule took the cache's one place
        shrink_array(d, make_rule(alpha=0.9, t=t + 0.5, sigma=1.5, quad=quad))
        assert np.array_equal(shrink_array(d, rule), cold)

    @pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64],
                             ids=["pipeline", "dense", "gh64"])
    @pytest.mark.parametrize("t", [-np.pi + 1e-3, -3.0])
    def test_panel_bits_do_not_depend_on_its_batch(self, t, quad):
        # numpy's stacked product gives each panel's 20 rows a product of
        # their own.  One flat product over the batch rounds a row by where
        # it falls in the BLAS row blocking, which shows with 13 rows a
        # stack (20 happen to divide evenly here)
        rule = make_rule(alpha=0.9, t=t, sigma=1.5, quad=quad)
        kernel = _kernel(rule.prior.gsh, rule.sigma, rule.quad)
        x = np.random.default_rng(12).uniform(0.0, 8.0, (8, 13))
        assert np.array_equal(kernel.integrals(x), np.stack([kernel.integrals(r) for r in x]))
        # near and far panels, alone and batched
        n1 = int(kernel.n1)
        assert n1 + 9 < kernel.max_panels
        batch = np.array([0, 3, n1 - 1, n1, 1, n1 + 9, 2, n1 + 4])
        together = kernel.sub_panel_series(batch)
        for i, panel in enumerate(batch):
            alone = kernel.sub_panel_series(np.array([panel]))
            assert np.array_equal(alone, together[:, _SUB_PANELS * i:_SUB_PANELS * (i + 1)]), panel

    def test_rules_differing_in_alpha_share_a_kernel(self):
        d = np.linspace(-8.0, 8.0, 4001)
        _kernel.cache_clear()
        for alpha in (0.0, 0.5, 0.75, 0.9):
            shrink_array(d, make_rule(alpha=alpha, t=-3.0, quad=PIPELINE_QUAD))
        info = _kernel.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 3, 1)


def loads_numpy_ma(calls: str) -> bool:
    """Whether numpy.ma is imported after the given calls, in a fresh
    interpreter with y a noisy 4096-point sine."""
    code = ("import sys, numpy as np; "
            "from gsh_shrink import denoise_detailed; "
            "from gsh_shrink.risk_analysis import default_risk_grid, risk_curve; "
            "from gsh_shrink.shrinkage import ShrinkageRule; "
            "from gsh_shrink.gsh_prior import GshParams, ShrinkagePrior; "
            "y = np.sin(np.linspace(0, 20, 4096)) + np.random.default_rng(1).normal(0, 0.3, 4096); "
            f"{calls}; "
            "print('numpy.ma' in sys.modules)")
    path = str(Path(gsh_shrink.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip() == "True"


def test_pipeline_leaves_numpy_ma_unloaded():
    # numpy.ma costs about 1 MB on import; nothing on the denoise and risk
    # paths needs it
    assert not loads_numpy_ma(
        "denoise_detailed(y, 'gsh'); "
        "risk_curve(default_risk_grid(), "
        "ShrinkageRule(ShrinkagePrior(0.9, GshParams.make(1.0, -3.0)), 1.0))")


def test_baselines_leave_numpy_ma_unloaded():
    assert not loads_numpy_ma("; ".join(f"denoise_detailed(y, {m!r})" for m in
                                        ("universal_hard", "universal_soft", "sure")))


@pytest.mark.parametrize("quad", [PIPELINE_QUAD, DENSE_QUAD, GH64],
                         ids=["pipeline", "dense", "gh64"])
@pytest.mark.parametrize("t", [-3.0, 3.0, 50.0])
def test_peak_memory_stays_flat(t, quad):
    # rule_moments' (theta x node) matrix, 2001 x 64; panels are counted and
    # evaluated in chunks, so the work on top of input and output stays
    # within a fixed margin: two 512 KB work blocks.  At t = 50 nearly every
    # coefficient takes the log-space branch, an eighth of a block at a time
    rule = make_rule(t=t, quad=quad)
    shrink_array(np.linspace(-1.0, 1.0, 64), rule)  # node caches
    u = gaussian_quad_nodes(GH64)[0]
    tracemalloc.start()
    try:
        d = np.linspace(-60.0, 60.0, 2001)[:, None] + u[None, :]
        out = shrink_array(d, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= d.nbytes + out.nbytes + 2**20
