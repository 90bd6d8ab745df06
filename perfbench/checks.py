"""Correctness checks of the program's outputs.

Each check takes plain arrays or records and returns a list of problems;
an empty list means the output passed.  Nothing here compares against a
stored copy of an earlier output: every check is either a property the
method must have or a comparison with ``refs``, which shares no code with
the program.  The tolerances, and the errors measured that set them, are
listed in README.md.
"""
from __future__ import annotations

import math

import numpy as np

import refs

#: Shrunk coefficient vs the independent posterior mean, in units of sigma_hat.
#: The pipeline's worst error on passing inputs is 3e-3 sigma_hat; alpha off
#: by 0.05, sigma_hat scaled by 1.01 or t moved by 0.01 each move some
#: sampled coefficient by more than 0.17 sigma_hat.
POSTERIOR_TOL = 0.02
#: Forward DWT vs the FFT DWT, and inverse(forward(y)) vs y, relative to max |y|.
DWT_RTOL = 1e-10
#: Threshold baselines vs the formulas, relative to max |d|.
THRESHOLD_RTOL = 1e-12
#: Quadrature Bayes risk vs the identity (1 - alpha) tau^2 - E[delta^2].
BAYES_IDENTITY_TOL = 1e-4
#: Monte Carlo vs quadrature, in the run's own standard errors.  The ratio is
#: skewed: at t = -3 a draw with few large theta has both a low mean and a
#: low standard error.  Over 60 000 streams of 2000 draws it fell below -4 in
#: 13 and never below -5 in the 40 000 where that was counted.
MC_SIGMAS = 6.0
#: Sampler moments and CDF vs the closed form, in standard errors; the sample
#: variance missed by more than 5 standard errors once in 20 000 streams of
#: 2000 draws, at t = -3 and at t = 0.
SAMPLER_SIGMAS = 6.0
#: Coefficients sampled from each |d| / sigma_hat bin of a level.
SAMPLES_PER_BIN = 3


def sample_indices(d: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Up to SAMPLES_PER_BIN coefficients from each |d|/sigma bin [0,1), ..., [9,10), [10, inf)."""
    bins = np.minimum((np.abs(d) / sigma).astype(int), 10)
    out = []
    for b in range(11):
        idx = np.flatnonzero(bins == b)
        if idx.size:
            out.extend(rng.choice(idx, min(SAMPLES_PER_BIN, idx.size), replace=False))
    return np.sort(np.asarray(out, dtype=int))


def check_output(f_hat, n: int) -> list[str]:
    f_hat = np.asarray(f_hat)
    if f_hat.shape != (n,):
        return [f"output has shape {f_hat.shape}, expected ({n},)"]
    if not np.all(np.isfinite(f_hat)):
        return ["output has non-finite values"]
    return []


def check_reconstruction(y, y_back) -> list[str]:
    err = float(np.max(np.abs(np.asarray(y_back) - y)))
    if not err <= DWT_RTOL * float(np.max(np.abs(y))):
        return [f"inverse(forward(y)) misses y by {err:.3g}"]
    return []


def check_forward(y, ref_scaling, ref_details: dict, scaling, details: dict) -> list[str]:
    """The program's forward transform against ``refs.dwt_forward`` of y."""
    if sorted(ref_details) != sorted(details):
        return [f"levels {sorted(details)} differ from {sorted(ref_details)}"]
    err = max(float(np.max(np.abs(ref_scaling - scaling))),
              *(float(np.max(np.abs(ref_details[j] - details[j]))) for j in details))
    if not err <= DWT_RTOL * float(np.max(np.abs(y))):
        return [f"forward differs from the FFT DWT by {err:.3g}"]
    return []


def check_shrunk(details: dict, est: dict) -> list[str]:
    """Every shrunk coefficient keeps its sign and |delta(d)| <= |d|."""
    flips = sum(int(np.count_nonzero(np.sign(est[j]) * np.sign(d) < 0)) for j, d in details.items())
    grow = sum(int(np.count_nonzero(np.abs(est[j]) > np.abs(d))) for j, d in details.items())
    out = []
    if flips:
        out.append(f"{flips} shrunk coefficients changed sign")
    if grow:
        out.append(f"{grow} shrunk coefficients grew in magnitude")
    return out


def posterior_errors(details: dict, est: dict, sigma_hat: float, alpha: dict, t: dict,
                     rng: np.random.Generator) -> np.ndarray:
    """|estimate - reference posterior mean| on stratified samples of every level."""
    errs = []
    for j, d in details.items():
        idx = sample_indices(d, sigma_hat, rng)
        ref = refs.posterior_mean(d[idx], alpha[j], sigma_hat, 1.0, t[j])
        errs.append(np.abs(np.asarray(est[j])[idx] - ref))
    return np.concatenate(errs)


def check_posterior(errs: np.ndarray, sigma_hat: float) -> list[str]:
    worst = float(errs.max())
    if not worst <= POSTERIOR_TOL * sigma_hat:
        return [f"shrunk coefficients miss the posterior mean by {worst:.3g} "
                f"(tolerance {POSTERIOR_TOL * sigma_hat:.3g})"]
    return []


def check_thresholds(details: dict, est: dict, n: int, method: str) -> list[str]:
    sigma = refs.mad_sigma(details[max(details)])
    worst = 0.0
    for j, d in details.items():
        if method == "sure":
            ref = refs.sure(d, sigma)
        else:
            ref = refs.universal(d, sigma, n, soft=method == "universal_soft")
        worst = max(worst, float(np.max(np.abs(ref - est[j])) / max(np.max(np.abs(d)), 1e-300)))
    if not worst <= THRESHOLD_RTOL:
        return [f"{method} estimates differ from the threshold formula by {worst:.3g} (relative)"]
    return []


def check_snr(f, sigma: float, snr: float) -> list[str]:
    got = float(np.std(f)) / sigma
    if not abs(got - snr) <= 1e-12 * snr:
        return [f"sd(f)/sigma = {got!r}, expected {snr!r}"]
    return []


def check_records(records, function: str, n: int, snr: float, methods) -> list[str]:
    out = []
    if [(r.function, r.n, r.snr, r.method) for r in records] != \
            [(function, n, snr, m) for m in methods]:
        out.append("records do not list the cell's methods in order")
    for r in records:
        if not (math.isfinite(r.amse) and r.amse > 0.0):
            out.append(f"{r.method} AMSE {r.amse!r} is not finite and positive")
    return out


def check_risk_curve(bias_sq, variance, risk) -> list[str]:
    out = []
    scale = float(np.max(risk))
    if not float(np.max(np.abs(risk - risk[::-1]))) <= 1e-10 * scale:
        out.append("risk curve is not even in theta")
    if not float(np.max(np.abs(bias_sq + variance - risk))) <= 1e-12 * scale:
        out.append("bias^2 + variance differs from the risk")
    if not np.all(np.isfinite(risk)) or np.any(risk < 0):
        out.append("risk curve has negative or non-finite values")
    return out


def check_bayes_risk(r: float, identity: float, alpha: float, tau: float, sigma: float) -> list[str]:
    out = []
    cap = min((1.0 - alpha) * tau * tau, sigma * sigma)
    if not 0.0 < r <= cap:
        out.append(f"Bayes risk {r!r} outside (0, {cap!r}]")
    if not abs(r - identity) <= BAYES_IDENTITY_TOL:
        out.append(f"Bayes risk {r!r} misses the identity value {identity!r}")
    return out


def check_monte_carlo(mc: float, se: float, quad: float) -> list[str]:
    if not (se > 0.0 and abs(mc - quad) <= MC_SIGMAS * se):
        return [f"Monte Carlo {mc!r} (se {se!r}) is not within {MC_SIGMAS} se of {quad!r}"]
    return []


def check_draws(draws, tau: float, t: float) -> list[str]:
    """Mean, variance and the empirical CDF at nine quantiles against the closed form."""
    x = np.asarray(draws, dtype=float)
    n = x.size
    kurt = refs.gsh_kurtosis(t)
    out = []
    if not abs(x.mean()) <= SAMPLER_SIGMAS * tau / math.sqrt(n):
        out.append(f"draw mean {x.mean():.4g} is off zero")
    if not abs(x.var() - tau * tau) <= SAMPLER_SIGMAS * tau * tau * math.sqrt((kurt - 1.0) / n):
        out.append(f"draw variance {x.var():.4g} is off {tau * tau}")
    grid = np.quantile(x, np.linspace(0.1, 0.9, 9))
    f = refs.gsh_cdf(grid, tau, t)
    ecdf = np.searchsorted(np.sort(x), grid, side="right") / n
    if not np.all(np.abs(ecdf - f) <= SAMPLER_SIGMAS * np.sqrt(f * (1.0 - f) / n) + 1.0 / n):
        out.append("empirical CDF of the draws is off the closed form")
    return out
