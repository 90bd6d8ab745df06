import dataclasses

import numpy as np
import pytest

import gsh_shrink.experiments as exp
from gsh_shrink.elicitation import ElicitationConfig
from gsh_shrink.experiments import (ExperimentConfig, cell_stream_id, denoise,
                                    denoise_detailed, mse, run_experiment,
                                    sure_threshold, universal_threshold)
from gsh_shrink.gsh_prior import GshParams, ShrinkagePrior
from gsh_shrink.numerics import SeededRng, sample_normal
from gsh_shrink.shrinkage import ShrinkageRule, shrink_array
from gsh_shrink.signals import make_noisy_sample

FAST_CFG = ExperimentConfig(functions=("heavisine",), sizes=(512,),
                            snrs=(3.0,), replications=2)


class TestMse:
    def test_zero_for_identical(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        f = np.arange(8.0)
        assert mse(f + 1.0, f) == pytest.approx(1.0)

    def test_hand_value(self):
        assert mse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])


class TestUniversalThreshold:
    def test_small_coefficients_die(self):
        lam = 1.0 * np.sqrt(2 * np.log(512))
        d = np.linspace(-lam, lam, 11)
        np.testing.assert_array_equal(
            universal_threshold(d, 1.0, 512, "hard"), np.zeros(11))
        np.testing.assert_array_equal(
            universal_threshold(d, 1.0, 512, "soft"), np.zeros(11))

    def test_hard_keeps_survivors_intact(self):
        lam = 2.0 * np.sqrt(2 * np.log(1024))
        out = universal_threshold([10 * lam], 2.0, 1024, "hard")
        assert out[0] == pytest.approx(10 * lam)

    def test_soft_subtracts_threshold(self):
        lam = np.sqrt(2 * np.log(256))
        out = universal_threshold([lam + 1.0, -(lam + 1.0)], 1.0, 256, "soft")
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            universal_threshold([1.0], 1.0, 1, "hard")
        with pytest.raises(ValueError):
            universal_threshold([1.0], 1.0, 512, "medium")
        # a negative sigma made the soft threshold expand every coefficient:
        # [0.5, -2, 3, 0.1] came back as [2.17, -3.67, 4.67, 1.77]
        for sigma in (-1.0, np.nan, np.inf):
            for mode in ("hard", "soft"):
                with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
                    universal_threshold([0.5, -2.0, 3.0, 0.1], sigma, 4, mode)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_zero_sigma_is_identity(self, mode):
        d = np.array([0.5, -2.0, 0.0])
        np.testing.assert_array_equal(universal_threshold(d, 0.0, 4, mode), d)


class TestSureThreshold:
    def test_dominates_identity_on_pure_noise(self):
        sure_losses = []
        identity_losses = []
        for trial in range(100):
            d = sample_normal(SeededRng(505, trial), 0.0, 1.0, 256)
            sure_losses.append(np.mean(sure_threshold(d, 1.0) ** 2))
            identity_losses.append(np.mean(d**2))
        assert np.mean(sure_losses) <= np.mean(identity_losses)

    def test_huge_coefficient_survives(self):
        d = sample_normal(SeededRng(99), 0.0, 1.0, 128)
        d[7] = 50.0
        out = sure_threshold(d, 1.0)
        lam_max = np.sqrt(2 * np.log(128))
        assert abs(out[7]) >= 50.0 - lam_max

    def test_zeros_in_zeros_out(self):
        np.testing.assert_array_equal(sure_threshold(np.zeros(32), 1.0),
                                      np.zeros(32))

    def test_empty_level_rejected(self):
        with pytest.raises(ValueError):
            sure_threshold([], 1.0)

    def test_zero_sigma_is_identity(self):
        d = np.array([0.5, -2.0])
        np.testing.assert_array_equal(sure_threshold(d, 0.0), d)

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_invalid_sigma_rejected(self, sigma):
        # NaN gave an all-NaN level, and a negative sigma the identity
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            sure_threshold([0.5, -2.0, 3.0], sigma)

    @pytest.mark.parametrize("seed", range(5))
    def test_threshold_from_unique_candidates(self, seed):
        # the candidates are the distinct standardised magnitudes up to the
        # cap, with zero and the cap; ties and repeated zeros are common on
        # quantised data
        d = np.round(sample_normal(SeededRng(seed), 0.0, 2.0, 300), 1)
        d[:20] = 0.0
        x = np.abs(d) / 1.3
        cap = np.sqrt(2.0 * np.log(x.size))
        candidates = np.unique(np.concatenate([[0.0, cap], x[x <= cap]]))
        xs = np.sort(x)
        counts = np.searchsorted(xs, candidates, side="right")
        sq_prefix = np.concatenate([[0.0], np.cumsum(xs * xs)])
        risk = x.size - 2.0 * counts + sq_prefix[counts] + (x.size - counts) * candidates**2
        lam = candidates[int(np.argmin(risk))] * 1.3
        np.testing.assert_array_equal(sure_threshold(d, 1.3),
                                      np.sign(d) * np.maximum(np.abs(d) - lam, 0.0))


class TestDenoise:
    def test_constant_signal_passes_through(self):
        y = np.full(512, 3.25)
        for method in ("gsh", "universal_hard", "universal_soft", "sure"):
            np.testing.assert_allclose(denoise(y, method, FAST_CFG), y,
                                       atol=1e-9)

    def test_beats_identity_on_noisy_heavisine(self):
        sample = make_noisy_sample("heavisine", 512, 3.0, 7.0 / 3.0,
                                   SeededRng(808))
        out = denoise(sample.y, "gsh", FAST_CFG)
        assert mse(out, sample.f) < mse(sample.y, sample.f)

    @pytest.mark.parametrize("method",
                             ["gsh", "universal_hard", "universal_soft", "sure"])
    def test_sign_equivariance(self, method):
        sample = make_noisy_sample("doppler", 512, 5.0, 1.4, SeededRng(7))
        plus = denoise(sample.y, method, FAST_CFG)
        minus = denoise(-sample.y, method, FAST_CFG)
        np.testing.assert_allclose(minus, -plus, atol=1e-9)

    @pytest.mark.parametrize("method",
                             ["gsh", "universal_hard", "universal_soft", "sure"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected(self, method, bad):
        y = make_noisy_sample("doppler", 512, 5.0, 1.4, SeededRng(7)).y
        y[300] = bad
        y[400] = np.nan
        with pytest.raises(ValueError, match=r"index 300 is"):
            denoise(y, method, FAST_CFG)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            denoise(np.zeros(64), "fdr", FAST_CFG)

    def test_detailed_result_contents(self):
        sample = make_noisy_sample("heavisine", 512, 5.0, 1.4, SeededRng(3))
        cfg = dataclasses.replace(
            FAST_CFG, elicitation=ElicitationConfig(pool_levels=False))
        res = denoise_detailed(sample.y, "gsh", cfg)
        assert res.sigma_hat > 0
        hyper = res.hyperparams
        assert hyper is not None
        assert res.estimated.levels == res.decomposition.levels
        np.testing.assert_array_equal(res.estimated.scaling,
                                      res.decomposition.scaling)
        # each level is shrunk by its own rule, built from the reported
        # hyperparameters, and by no other level's
        rules = {j: ShrinkageRule(
                     prior=ShrinkagePrior(hyper.alpha_by_level[j],
                                          GshParams.make(hyper.tau, hyper.level_t(j))),
                     sigma=hyper.sigma_hat, quad=cfg.quad)
                 for j in res.decomposition.levels}
        assert len(set(rules.values())) == len(rules)
        for j, rule in rules.items():
            np.testing.assert_array_equal(
                res.estimated.details[j],
                shrink_array(res.decomposition.details[j], rule))


class TestRunExperiment:
    def test_single_replication_statistics(self):
        cfg = dataclasses.replace(FAST_CFG, replications=1,
                                  methods=("universal_hard",))
        (record,) = run_experiment(cfg)
        rng = SeededRng(cfg.base_seed, cell_stream_id("heavisine", 512, 3.0, 0))
        sample = make_noisy_sample("heavisine", 512, 3.0, cfg.noise_sigma(3.0),
                                   rng)
        expected = mse(denoise(sample.y, "universal_hard", cfg), sample.f)
        assert record.amse == pytest.approx(expected, rel=1e-12)
        assert record.amse_std_error == 0.0

    def test_one_transform_per_replication(self, monkeypatch):
        # every method of a replication estimates from the same forward
        # transform, and the records equal denoise's per-method AMSE bit
        # for bit
        cfg = dataclasses.replace(FAST_CFG, methods=exp.METHODS)
        calls = []

        def counting_forward(*args):
            calls.append(args[0].size)
            return real_forward(*args)

        real_forward = exp.forward
        monkeypatch.setattr(exp, "forward", counting_forward)
        records = exp.run_cell(cfg, "heavisine", 512, 3.0)
        assert calls == [512] * cfg.replications
        monkeypatch.setattr(exp, "forward", real_forward)
        samples = [make_noisy_sample("heavisine", 512, 3.0, cfg.noise_sigma(3.0),
                                     SeededRng(cfg.base_seed,
                                               cell_stream_id("heavisine", 512, 3.0, r)))
                   for r in range(cfg.replications)]
        for record in records:
            mses = [mse(denoise(s.y, record.method, cfg), s.f) for s in samples]
            assert record.amse == float(np.mean(mses))

    def test_reruns_are_identical(self):
        a = run_experiment(FAST_CFG)
        b = run_experiment(FAST_CFG)
        assert a == b

    def test_record_grid_shape(self):
        cfg = dataclasses.replace(FAST_CFG, functions=("blocks", "doppler"),
                                  snrs=(3.0, 7.0))
        records = run_experiment(cfg)
        assert len(records) == 2 * 2 * len(cfg.methods)
        keys = {(r.function, r.n, r.snr, r.method) for r in records}
        assert len(keys) == len(records)

    def test_failing_cell_is_identified(self, monkeypatch):
        real = exp.make_noisy_sample

        def fail_at_snr_5(function, n, snr, sigma, rng):
            if snr == 5.0:
                raise FloatingPointError("synthetic failure")
            return real(function, n, snr, sigma, rng)

        # forked workers inherit the patch; only the second cell fails
        monkeypatch.setattr(exp, "make_noisy_sample", fail_at_snr_5)
        cfg = dataclasses.replace(FAST_CFG, snrs=(3.0, 5.0), replications=1)
        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match=r"cell \(function=heavisine, "
                               r"n=512, snr=5\.0\) failed: synthetic failure"):
                run_experiment(cfg, jobs)

    def test_worker_count_does_not_change_records(self):
        cfg = dataclasses.replace(FAST_CFG, functions=("blocks", "doppler"))
        assert run_experiment(cfg, jobs=2) == run_experiment(cfg, jobs=1)

    def test_pool_capped_at_cell_count(self, monkeypatch):
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        cfg = dataclasses.replace(FAST_CFG, snrs=(3.0, 5.0),
                                  methods=("universal_hard",))
        serial = run_experiment(cfg)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        assert run_experiment(cfg, jobs=8) == serial
        assert asked == [2]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(FAST_CFG, jobs)

    def test_stream_ids_stable_and_distinct(self):
        a = cell_stream_id("bumps", 512, 3.0, 0)
        assert a == cell_stream_id("bumps", 512, 3.0, 0)
        others = {cell_stream_id("bumps", 512, 3.0, 1),
                  cell_stream_id("bumps", 1024, 3.0, 0),
                  cell_stream_id("blocks", 512, 3.0, 0),
                  cell_stream_id("bumps", 512, 5.0, 0)}
        assert a not in others
        assert len(others) == 4


class TestConfigValidation:
    def test_unknown_function(self):
        with pytest.raises(ValueError):
            ExperimentConfig(functions=("spikes",))

    def test_non_dyadic_size(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=(500,))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("cv",))

    def test_bad_replications(self):
        # 1.5 was accepted and failed later, inside a cell, as a RuntimeError
        for replications in (0, -2, 1.5, 2.0, "3"):
            with pytest.raises(ValueError, match="replications must be an integer >= 1"):
                ExperimentConfig(replications=replications)

    def test_size_too_short_for_primary_level(self):
        with pytest.raises(ValueError, match="primary level"):
            ExperimentConfig(sizes=(16,))
        ExperimentConfig(sizes=(32,))  # J0=4 needs at least 2^5

    def test_noise_sigma(self):
        cfg = ExperimentConfig(signal_sd=7.0)
        assert cfg.noise_sigma(7.0) == pytest.approx(1.0)
        assert cfg.noise_sigma(3.0) == pytest.approx(7.0 / 3.0)
