import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsh_shrink.dwt import daubechies_filter, forward
from gsh_shrink.elicitation import (ElicitationConfig, alpha_level, elicit_all,
                                    elicit_t, estimate_sigma, sample_kurtosis)
from gsh_shrink.experiments import ExperimentConfig, denoise_detailed
from gsh_shrink.gsh_prior import gsh_kurtosis
from gsh_shrink.numerics import DegenerateInputError, SeededRng, sample_normal
from gsh_shrink.signals import sample_function, scale_to_snr

CFG = ElicitationConfig()


class TestEstimateSigma:
    def test_constant_magnitudes(self):
        assert estimate_sigma([2.0, -2.0, 2.0]) == pytest.approx(2.0 / 0.6745)

    def test_hand_median(self):
        assert estimate_sigma([-1.0, 0.0, 2.0]) == pytest.approx(1.0 / 0.6745)
        assert 1.0 / 0.6745 == pytest.approx(1.4826, abs=5e-5)

    def test_even_length_midpoint(self):
        # sorted magnitudes 1, 2, 3, 5 -> median 2.5
        assert estimate_sigma([3.0, -1.0, 5.0, 2.0]) == pytest.approx(2.5 / 0.6745)

    def test_consistency_on_normal_noise(self):
        draws = sample_normal(SeededRng(31), 0.0, 2.0, 2**20)
        assert estimate_sigma(draws) == pytest.approx(2.0, rel=0.01)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-100, 100).filter(lambda v: abs(v) > 1e-6))
    def test_scale_equivariance(self, c):
        v = np.array([0.3, -1.2, 4.0, 0.0, 2.2])
        assert estimate_sigma(c * v) == pytest.approx(
            abs(c) * estimate_sigma(v), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_sigma([])


class TestAlphaLevel:
    def test_primary_level_is_zero(self):
        for gamma in (0.5, 1.0, 2.0, 4.0):
            cfg = ElicitationConfig(gamma=gamma, primary_level=4)
            assert alpha_level(4, cfg) == 0.0

    def test_direct_values(self):
        cfg = ElicitationConfig(gamma=2.0, primary_level=4)
        assert alpha_level(5, cfg) == pytest.approx(0.75)
        assert alpha_level(7, cfg) == pytest.approx(1 - 1 / 16)

    def test_nondecreasing_in_level(self):
        vals = [alpha_level(j, CFG) for j in range(4, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_increasing_in_gamma_above_primary(self):
        lo = ElicitationConfig(gamma=1.0)
        hi = ElicitationConfig(gamma=3.0)
        for j in range(5, 10):
            assert alpha_level(j, hi) > alpha_level(j, lo)

    def test_below_primary_rejected(self):
        with pytest.raises(ValueError):
            alpha_level(3, CFG)


class TestSampleKurtosis:
    def test_two_point_distribution(self):
        assert sample_kurtosis([-1.0, -1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_normal_draws(self):
        draws = sample_normal(SeededRng(17), 0.0, 1.0, 10**6)
        assert sample_kurtosis(draws) == pytest.approx(3.0, abs=0.05)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-50, 50).filter(lambda v: abs(v) > 1e-3),
           b=st.floats(-50, 50))
    def test_affine_invariance(self, a, b):
        v = np.array([0.1, -2.0, 0.7, 3.3, -0.4, 1.9])
        assert sample_kurtosis(a * v + b) == pytest.approx(
            sample_kurtosis(v), abs=1e-10)

    def test_matches_exact_sums_on_heavy_tails(self):
        # Student-t(4) has no finite fourth moment, so the sample's fourth
        # power spans many orders of magnitude
        x = np.random.default_rng(41).standard_t(4, size=20_000)
        mean = math.fsum(x) / x.size
        m2 = math.fsum((v - mean) ** 2 for v in x) / x.size
        m4 = math.fsum((v - mean) ** 4 for v in x) / x.size
        assert sample_kurtosis(x) == pytest.approx(m4 / m2**2, rel=1e-14)

    @staticmethod
    def bumps():
        _, f = sample_function("bumps", 1024)
        return scale_to_snr(f, 7.0, 1.0) + sample_normal(SeededRng(1), 0.0, 1.0, 1024)

    def test_scale_free_at_extreme_scales(self):
        # m4 / m2^2 is scale-free, but its fourth powers overflowed at
        # 2^250; a power-of-two scale keeps every bit of the ratio
        y = self.bumps()
        t = elicit_t(sample_kurtosis(y))
        for c in (2.0**250, 2.0**-250):
            assert elicit_t(sample_kurtosis(c * y)) == t, c

    @pytest.mark.parametrize("c", [1e80, 1e-160])
    def test_denoise_runs_at_extreme_scales(self, c):
        # the pooled kurtosis overflowed (1e80) or underflowed (1e-160) to
        # NaN, and denoise raised
        cfg = ExperimentConfig(sizes=(1024,))
        y = self.bumps()
        result = denoise_detailed(c * y, "gsh", cfg)
        assert np.all(np.isfinite(result.f_hat))
        assert result.hyperparams.t_value == pytest.approx(
            denoise_detailed(y, "gsh", cfg).hyperparams.t_value, rel=1e-12)

    def test_constant_vector(self):
        with pytest.raises(DegenerateInputError):
            sample_kurtosis([5.0, 5.0, 5.0, 5.0])

    def test_short_vector(self):
        with pytest.raises(ValueError):
            sample_kurtosis([1.0, 2.0, 3.0])


class TestElicitT:
    def test_logistic_point_exact(self):
        assert elicit_t(4.2) == 0.0

    def test_hand_values(self):
        assert elicit_t(5.0) == pytest.approx(-math.pi / 2, abs=1e-14)
        assert elicit_t(3.0) == pytest.approx(math.pi, abs=1e-14)

    @pytest.mark.parametrize("t", [-2.0, -1.0, 0.5, 1.0, 3.0])
    def test_round_trip(self, t):
        assert elicit_t(gsh_kurtosis(t)) == pytest.approx(t, abs=1e-9)

    def test_pole_guard(self):
        assert elicit_t(9.0 / 5.0) == CFG.t_max
        assert elicit_t(1.0) == CFG.t_max
        assert elicit_t(1.8 + 1e-7) == CFG.t_max

    def test_clamped_to_range(self):
        # enormous kurtosis maps just above -pi, below the configured floor
        assert elicit_t(1e12) == CFG.t_min
        # slightly platykurtic values map to huge positive t, then clamp
        assert elicit_t(1.805) == CFG.t_max

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            elicit_t(float("nan"))


class TestElicitAll:
    def test_pure_noise_recovery(self):
        rng = SeededRng(2024)
        y = sample_normal(rng, 0.0, 1.0, 512)
        decomp = forward(y, daubechies_filter(10), CFG.primary_level)
        hyper = elicit_all(decomp, CFG)
        assert 0.85 <= hyper.sigma_hat <= 1.15
        # gaussian details: kurtosis near 3, hence t near pi
        assert 2.0 <= hyper.t_value <= 4.8
        assert hyper.tau == 1.0
        assert hyper.alpha_by_level[CFG.primary_level] == 0.0
        assert hyper.level_t(CFG.primary_level) == hyper.t_value

    def test_constant_signal_degenerate(self):
        # the mathematical image of a constant signal: every detail
        # coefficient is zero (the transform itself leaves ~1e-16 rounding
        # residue, which denoise handles downstream)
        decomp = forward(np.full(512, 4.0), daubechies_filter(10),
                         CFG.primary_level)
        decomp = decomp.with_details(
            {j: np.zeros_like(d) for j, d in decomp.details.items()})
        with pytest.raises(DegenerateInputError):
            elicit_all(decomp, CFG)

    def test_per_level_with_pooled_fallback(self):
        cfg = ElicitationConfig(pool_levels=False)
        rng = SeededRng(2025)
        y = sample_normal(rng, 0.0, 1.0, 512)
        decomp = forward(y, daubechies_filter(10), cfg.primary_level)
        hyper = elicit_all(decomp, cfg)
        # small levels (16 coefficients at level 4) inherit the pooled value
        assert hyper.level_t(4) == hyper.t_value
        assert hyper.t_by_level[8] != hyper.t_value

    def test_primary_level_mismatch_rejected(self):
        decomp = forward(np.arange(512, dtype=float), daubechies_filter(10), 3)
        with pytest.raises(ValueError, match="J0"):
            elicit_all(decomp, ElicitationConfig(primary_level=4))


class TestConfigValidation:
    def test_bad_gamma(self):
        for gamma in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma"):
                ElicitationConfig(gamma=gamma)

    def test_bad_primary_level(self):
        with pytest.raises(ValueError):
            ElicitationConfig(primary_level=-1)
