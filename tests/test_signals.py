import numpy as np
import pytest

from gsh_shrink.numerics import DegenerateInputError, SeededRng
from gsh_shrink.signals import (FUNCTION_NAMES, evaluate, make_noisy_sample,
                                sample_function, scale_to_snr)


class TestEvaluate:
    def test_doppler_endpoints(self):
        assert evaluate("doppler", 0.0) == 0.0
        assert evaluate("doppler", 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_heavisine_midpoint(self):
        # 4 sin(2 pi) - sgn(0.2) - sgn(0.22)
        assert evaluate("heavisine", 0.5) == pytest.approx(-2.0, abs=1e-12)

    def test_blocks_constant_between_knots(self):
        assert evaluate("blocks", 0.17) == evaluate("blocks", 0.21)
        assert evaluate("blocks", 0.5) == evaluate("blocks", 0.6)

    def test_all_functions_finite(self):
        x = np.linspace(0, 1, 1001)
        for name in FUNCTION_NAMES:
            assert np.all(np.isfinite(evaluate(name, x)))

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown"):
            evaluate("ramp", 0.5)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            evaluate("bumps", -0.1)
        with pytest.raises(ValueError):
            evaluate("bumps", np.array([0.5, 1.2]))


class TestSampleFunction:
    def test_design_points(self):
        x, _ = sample_function("blocks", 4)
        np.testing.assert_allclose(x, [0.25, 0.5, 0.75, 1.0])

    def test_doppler_column(self):
        x, f = sample_function("doppler", 512)
        assert np.all(np.isfinite(f))
        assert f[-1] == pytest.approx(0.0, abs=1e-12)

    def test_blocks_plateau_count(self):
        _, f = sample_function("blocks", 2048)
        assert len(np.unique(np.round(f, 9))) <= 12

    @pytest.mark.parametrize("n", [0, 1, 100, 513])
    def test_rejects_non_dyadic(self, n):
        with pytest.raises(ValueError):
            sample_function("bumps", n)


class TestScaleToSnr:
    def test_exact_sd(self):
        _, f = sample_function("heavisine", 256)
        scaled = scale_to_snr(f, 3.0, 1.0)
        assert np.std(scaled) == pytest.approx(3.0, abs=1e-12)
        scaled = scale_to_snr(f, 5.0, 1.4)
        assert np.std(scaled) == pytest.approx(7.0, abs=1e-12)

    def test_idempotent_after_first_application(self):
        _, f = sample_function("bumps", 256)
        once = scale_to_snr(f, 3.0, 1.0)
        twice = scale_to_snr(once, 3.0, 1.0)
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_sign_flip(self):
        _, f = sample_function("doppler", 256)
        assert np.std(scale_to_snr(-f, 3.0, 2.0)) == pytest.approx(6.0,
                                                                   abs=1e-12)

    def test_exact_over_full_grid(self):
        for name in FUNCTION_NAMES:
            for n in (512, 1024, 2048):
                _, f = sample_function(name, n)
                for snr in (3.0, 5.0, 7.0):
                    sigma = 7.0 / snr
                    scaled = scale_to_snr(f, snr, sigma)
                    assert np.std(scaled) / sigma == pytest.approx(snr,
                                                                   abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            scale_to_snr(np.ones(16), 3.0, 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            scale_to_snr(np.arange(4.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            scale_to_snr(np.arange(4.0), 3.0, 0.0)
        for snr, sigma in ((float("nan"), 1.0), (float("inf"), 1.0), (7.0, float("nan"))):
            with pytest.raises(ValueError, match="finite"):
                scale_to_snr(np.arange(4.0), snr, sigma)


class TestMakeNoisySample:
    def test_vanishing_noise(self):
        s = make_noisy_sample("heavisine", 256, 7.0, 1e-12, SeededRng(1))
        np.testing.assert_allclose(s.y, s.f, atol=1e-10)

    def test_determinism(self):
        a = make_noisy_sample("doppler", 256, 3.0, 1.0, SeededRng(9, 3))
        b = make_noisy_sample("doppler", 256, 3.0, 1.0, SeededRng(9, 3))
        np.testing.assert_array_equal(a.y, b.y)

    def test_noise_scale(self):
        s = make_noisy_sample("blocks", 2048, 5.0, 2.0, SeededRng(4))
        assert np.std(s.y - s.f) == pytest.approx(2.0, rel=0.05)

    def test_snr_invariant(self):
        s = make_noisy_sample("bumps", 512, 5.0, 1.3, SeededRng(2))
        assert np.std(s.f) / s.sigma == pytest.approx(s.snr, abs=1e-9)
        assert len(s.x) == len(s.f) == len(s.y) == 512
