"""Every workload check passes on the program's output and fails on a
corrupted copy: one coefficient's sign flipped, alpha off by 0.05, sigma_hat
scaled by 1.01.

Run from the repository root: python3 -m pytest perfbench -q
"""
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from gsh_shrink import (GshParams, ShrinkagePrior, ShrinkageRule, bayes_risk,  # noqa: E402
                        denoise_detailed, gsh_sample, make_noisy_sample, risk_curve,
                        shrink_array, universal_threshold)
from gsh_shrink.numerics import PIPELINE_QUAD, SeededRng  # noqa: E402


def reshrink(details, hyper, alpha_shift=0.0, sigma_scale=1.0):
    out = {}
    for j, d in details.items():
        prior = ShrinkagePrior(min(hyper.alpha_by_level[j] + alpha_shift, 1.0),
                               GshParams.make(1.0, hyper.level_t(j)))
        out[j] = shrink_array(d, ShrinkageRule(prior, hyper.sigma_hat * sigma_scale, PIPELINE_QUAD))
    return out


def flip_largest(details, est):
    j = max(details)
    k = int(np.argmax(np.abs(details[j])))
    out = {i: e.copy() for i, e in est.items()}
    out[j][k] = -out[j][k]
    return out


@pytest.fixture(scope="module")
def denoised():
    y = make_noisy_sample("heavisine", 4096, 7.0, 1.0, SeededRng(3)).y
    return y, denoise_detailed(y, "gsh")


def test_denoise_checks(denoised):
    y, res = denoised
    rng = np.random.default_rng(0)
    assert workloads.check_denoise(y, res, rng, {}) == []
    details, hyper = res.decomposition.details, res.hyperparams
    sigma, alpha, t = refs.elicit(details, 4, per_level=False)

    def posterior_fails(est):
        errs = checks.posterior_errors(details, est, sigma, alpha, t, np.random.default_rng(0))
        return checks.check_posterior(errs, sigma) != []

    assert checks.check_shrunk(details, flip_largest(details, res.estimated.details))
    assert posterior_fails(reshrink(details, hyper, alpha_shift=0.05))
    assert posterior_fails(reshrink(details, hyper, sigma_scale=1.01))
    ref_scaling, ref_details = refs.dwt_forward(y, refs.daubechies_lowpass(10), 4)
    bad = {j: d.copy() for j, d in details.items()}
    bad[4][0] = -bad[4][0]
    assert checks.check_forward(y, ref_scaling, ref_details, res.decomposition.scaling, bad)
    assert checks.check_reconstruction(y, y * 1.01)
    assert checks.check_output(np.append(res.f_hat[1:], np.nan), y.size)


def test_threshold_checks():
    y = make_noisy_sample("blocks", 2048, 3.0, 7.0 / 3.0, SeededRng(4)).y
    for method in ("universal_hard", "universal_soft", "sure"):
        res = denoise_detailed(y, method)
        details, est = res.decomposition.details, res.estimated.details
        assert checks.check_thresholds(details, est, y.size, method) == []
        flipped = {j: e.copy() for j, e in est.items()}
        j, k = max((j, int(np.argmax(np.abs(e)))) for j, e in est.items() if np.any(e))
        flipped[j][k] = -flipped[j][k]
        assert checks.check_thresholds(details, flipped, y.size, method)
    soft = {j: universal_threshold(d, 1.01 * res.sigma_hat, y.size, "soft")
            for j, d in details.items()}
    assert checks.check_thresholds(details, soft, y.size, "universal_soft")


def test_simulate_record_and_snr_checks():
    sample = make_noisy_sample("bumps", 512, 3.0, 7.0 / 3.0, SeededRng(1))
    assert checks.check_snr(sample.f, sample.sigma, 3.0) == []
    assert checks.check_snr(sample.f, sample.sigma * 1.01, 3.0)
    cfg = workloads.SimulateGrid(7, HERE).cfg
    records = workloads.run_cell(replace(cfg, replications=2), "bumps", 512, 3.0)
    assert checks.check_records(records, "bumps", 512, 3.0, cfg.methods) == []
    assert checks.check_records(records[::-1], "bumps", 512, 3.0, cfg.methods)
    assert checks.check_records([replace(records[0], amse=float("nan"))] + records[1:],
                                "bumps", 512, 3.0, cfg.methods)


def test_risk_checks():
    t = 3.0
    rule = workloads.RiskDiagnostics.rule(t)
    identity = refs.bayes_risk_identity(0.9, 1.0, 1.0, t)
    assert checks.check_bayes_risk(bayes_risk(rule, theta_points=481).value, identity,
                                   0.9, 1.0, 1.0) == []
    wrong_alpha = ShrinkageRule(ShrinkagePrior(0.95, rule.prior.gsh), 1.0, PIPELINE_QUAD)
    wrong_sigma = ShrinkageRule(rule.prior, 1.01, PIPELINE_QUAD)
    for bad in (wrong_alpha, wrong_sigma):
        assert checks.check_bayes_risk(bayes_risk(bad, theta_points=481).value, identity,
                                       0.9, 1.0, 1.0)
    curve = risk_curve(np.linspace(-8.0, 8.0, 81), rule)
    assert checks.check_risk_curve(curve.squared_bias, curve.variance, curve.classical_risk) == []
    risk = curve.classical_risk.copy()
    risk[10] = -risk[10]
    assert checks.check_risk_curve(curve.squared_bias, curve.variance, risk)
    assert checks.check_monte_carlo(0.0905, 0.001, 0.0855) == []
    assert checks.check_monte_carlo(0.0925, 0.001, 0.0855)
    draws = gsh_sample(SeededRng(9), rule.prior.gsh, 100_000)
    assert checks.check_draws(draws, 1.0, t) == []
    assert checks.check_draws(draws * 1.05, 1.0, t)
    assert checks.check_draws(draws, 1.0, -3.0)


class OneSeries(workloads.StockCli):
    series = 1


def test_stock_checks(tmp_path):
    wl = OneSeries(5, tmp_path)
    op, high = wl.ops(0)
    assert op.check(op.run()) == []
    # the fixed high-price series meets the window blind spot at level 5
    assert any("posterior mean" in p for p in high.check(high.run()))
    path, prefix, _ = wl.inputs["series-0"]
    coeff_path = Path(f"{prefix}_coefficients.csv")
    rows = workloads.read_csv(coeff_path)
    level = np.array([int(r[0]) for r in rows])
    emp = np.array([float(r[2]) for r in rows])
    est = np.array([float(r[3]) for r in rows])
    details = {j: emp[level == j] for j in np.unique(level).tolist()}
    hyper = denoise_detailed(workloads.pad_pow2(wl.inputs["series-0"][2]), "gsh",
                             workloads.stock_config()).hyperparams

    def corrupt(new_est):
        body = "".join(f"{r[0]},{r[1]},{r[2]},{float(v)!r}\n" for r, v in zip(rows, new_est))
        coeff_path.write_text("level,position,empirical,estimated\n" + body)
        return wl.check_run("series-0", 0)

    k = int(np.argmax(np.abs(emp)))
    flipped = est.copy()
    flipped[k] = -flipped[k]
    assert any("changed sign" in p for p in corrupt(flipped))
    for shifted in (reshrink(details, hyper, alpha_shift=0.05),
                    reshrink(details, hyper, sigma_scale=1.01)):
        problems = corrupt(np.concatenate([shifted[j] for j in sorted(shifted)]))
        assert any("posterior mean" in p for p in problems)
