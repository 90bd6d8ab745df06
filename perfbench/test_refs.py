"""Known limits of the independent references.

Run from the repository root: python3 -m pytest perfbench -q
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402


@pytest.mark.parametrize("t", [-3.0, -1.0, 0.0, 0.5, 3.0])
def test_spike_only_prior_gives_zero(t):
    d = np.array([-40.0, -2.0, 0.3, 5.0, 80.0])
    assert np.all(refs.posterior_mean(d, 1.0, 1.0, 1.0, t) == 0.0)


@pytest.mark.parametrize("t", [-1e-7, 1e-7])
def test_small_t_gives_the_logistic(t):
    theta = np.linspace(-6.0, 6.0, 25)
    logistic = 1.0 / (1.0 + np.exp(-math.pi * theta / math.sqrt(3.0)))
    assert np.max(np.abs(refs.gsh_cdf(theta, 1.0, t) - logistic)) < 1e-9
    assert np.max(np.abs(refs.gsh_cdf(theta, 1.0, 0.0) - logistic)) < 1e-15
    d = np.array([-3.0, 0.4, 2.0, 7.0])
    assert np.max(np.abs(refs.posterior_mean(d, 0.6, 0.8, 1.0, t)
                         - refs.posterior_mean(d, 0.6, 0.8, 1.0, 0.0))) < 1e-8


def test_hyperbolic_secant_cdf():
    theta = np.linspace(-5.0, 5.0, 41)
    exact = 2.0 / math.pi * np.arctan(np.exp(math.pi * theta / 2.0))
    assert np.max(np.abs(refs.gsh_cdf(theta, 1.0, -math.pi / 2) - exact)) < 1e-14


@pytest.mark.parametrize("t", [-math.pi + 1e-3, -3.0, -1.0, 0.0, 2.0, 10.0, 50.0])
def test_cdf_integrates_the_density(t):
    """F(b) - F(a) against Gauss-Legendre panels of the density, and symmetry."""
    tau = 1.3
    edges = np.linspace(-4.0, 4.0, 4001)
    x, w = np.polynomial.legendre.leggauss(20)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    pieces = (half[:, None] * w * np.exp(refs.gsh_log_density(
        mid[:, None] + half[:, None] * x, tau, t))).sum(axis=1)
    f = refs.gsh_cdf(edges, tau, t)
    assert np.max(np.abs(np.diff(f) - pieces)) < 1e-12
    assert np.all(np.diff(f) >= 0.0)
    assert np.max(np.abs(f + refs.gsh_cdf(-edges, tau, t) - 1.0)) < 1e-14


@pytest.mark.parametrize("t", [-1.0, 0.5, 3.0])
def test_large_d_reaches_the_tweedie_asymptote(t):
    sigma, tau = 0.7, 1.2
    c2 = refs.gsh_constants(t)[3]
    d = np.array([60.0, 90.0, -75.0])
    expected = d - np.sign(d) * c2 * sigma ** 2 / tau
    assert np.max(np.abs(refs.posterior_mean(d, 0.8, sigma, tau, t) - expected)) < 1e-9


def test_posterior_mean_is_odd_monotone_and_sign_preserving():
    d = np.linspace(-12.0, 12.0, 97)
    for t in (-math.pi + 1e-3, -2.0, 0.0, 5.0):
        m = refs.posterior_mean(d, 0.9, 1.0, 1.0, t)
        assert np.max(np.abs(m + m[::-1])) < 1e-12
        assert np.all(np.diff(m) > 0.0)
        assert np.all(np.abs(m) <= np.abs(d) + 1e-15) and np.all(m * d >= 0.0)


@pytest.mark.parametrize("t", [-3.0, 0.0, 3.0])
def test_bayes_risk_identity_lies_under_the_bayes_cap(t):
    for alpha in (0.5, 0.9):
        r = refs.bayes_risk_identity(alpha, 1.0, 1.0, t)
        assert 0.0 < r <= min(1.0 - alpha, 1.0)
    assert refs.bayes_risk_identity(1.0, 1.0, 1.0, t) == 0.0


@pytest.mark.parametrize("t", [-3.1, -3.0, -1.0, 0.0, 0.5, 3.0, 10.0, 49.0])
def test_kurtosis_round_trip(t):
    assert refs.t_from_kurtosis(refs.gsh_kurtosis(t)) == pytest.approx(t, abs=1e-12)


def test_kurtosis_limits():
    assert refs.t_from_kurtosis(4.2) == 0.0
    assert refs.t_from_kurtosis(1.8) == refs.T_MAX
    assert refs.t_from_kurtosis(1e9) == refs.T_MIN
    assert refs.gsh_kurtosis(-math.pi / 2) == pytest.approx(5.0)


def test_elicitation_formulas():
    rng = np.random.default_rng(5)
    assert refs.mad_sigma(rng.normal(0.0, 2.0, 200_000)) == pytest.approx(2.0, rel=0.01)
    assert refs.kurtosis(rng.normal(size=200_000)) == pytest.approx(3.0, abs=0.05)
    assert refs.alpha_level(4, 4) == 0.0
    assert refs.alpha_level(6, 4) == pytest.approx(1.0 - 1.0 / 9.0)


def test_universal_threshold():
    d = np.array([-5.0, -1.0, 0.5, 2.0, 4.0])
    lam = math.sqrt(2.0 * math.log(16))
    assert np.array_equal(refs.universal(d, 1.0, 16, soft=False), np.where(abs(d) > lam, d, 0.0))
    assert np.allclose(refs.universal(d, 1.0, 16, soft=True),
                       np.sign(d) * np.maximum(abs(d) - lam, 0.0))


def test_sure_threshold_minimises_sure():
    rng = np.random.default_rng(2)
    d = np.concatenate([rng.normal(size=200), rng.normal(4.0, 1.0, 20)])
    out = refs.sure(d, 1.0)
    lam = float(np.max(np.abs(d) - np.abs(out)))
    x = np.abs(d)

    def sure(l):
        return x.size - 2 * np.count_nonzero(x <= l) + np.minimum(x * x, l * l).sum()
    grid = np.linspace(0.0, math.sqrt(2.0 * math.log(x.size)), 5001)
    assert sure(lam) <= min(sure(g) for g in grid) + 1e-9


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_daubechies_filters(n):
    h = refs.daubechies_lowpass(n)
    k = np.arange(h.size)
    assert h.size == 2 * n
    assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-13)
    for shift in range(0, h.size, 2):
        assert float(h[shift:] @ h[:h.size - shift]) == pytest.approx(float(shift == 0), abs=1e-12)
    g = refs.highpass(h)
    for p in range(n):
        assert float(g @ k ** p) == pytest.approx(0.0, abs=1e-9 * max(1.0, float(abs(g) @ k ** p)))


def test_fft_dwt_haar_and_energy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=64)
    scaling, details = refs.dwt_forward(x, refs.daubechies_lowpass(1), 4)
    assert np.allclose(details[5], (x[0::2] - x[1::2]) / math.sqrt(2.0), atol=1e-14)
    energy = float(scaling @ scaling) + sum(float(d @ d) for d in details.values())
    assert energy == pytest.approx(float(x @ x), rel=1e-13)
    _, details10 = refs.dwt_forward(x, refs.daubechies_lowpass(10), 1)
    assert sorted(details10) == [1, 2, 3, 4, 5]
