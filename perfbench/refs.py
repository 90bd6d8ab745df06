"""Independent reference computations for the benchmark's correctness checks.

Everything here is written from the paper's formulas with numpy alone; no
code of ``gsh_shrink`` is imported, so a fault in the program cannot hide
in its own reference.

- GSH constants, log-density and the closed-form CDF (Vaughan 2002).
- The spike-and-GSH posterior mean and marginal density, by composite
  Gauss-Legendre panels in log space on a window around d wide enough to
  hold both d +- WINDOW_SIGMAS sigma and, where it matters, the slab bulk
  at zero.  Panels narrow geometrically towards the slab's complex poles,
  which sit rho = (pi - |t|) tau / c2 off the real axis at theta = 0 for
  t < 0 (pi tau / c2 for t >= 0).
- Elicitation: MAD noise scale, kurtosis -> t inversion, alpha(j).
- Universal and SURE thresholds.
- A periodic DWT by FFT circular correlation, with Daubechies filters from
  spectral factorisation.
"""
from __future__ import annotations

import math

import numpy as np

MAD_SCALE = 0.6745
T_MIN = -math.pi + 1e-3
T_MAX = 50.0
#: Levels shorter than this take the pooled kurtosis (per-level elicitation).
MIN_LEVEL_SIZE = 30
#: alpha(j) = 1 - (j - J0 + 1)^-ALPHA_DECAY.
ALPHA_DECAY = 2.0
#: The posterior window reaches at least this many sigma either side of d.
WINDOW_SIGMAS = 12.0

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


# ---------------------------------------------------------------------------
# GSH distribution
# ---------------------------------------------------------------------------

def gsh_constants(t: float) -> tuple[float, float, float, float]:
    """(a, 1 + a, c1, c2) of the GSH density with unit-variance scaling."""
    if t <= -math.pi:
        raise ValueError("t must exceed -pi")
    if t == 0.0:
        c2 = math.pi / math.sqrt(3.0)
        return 1.0, 2.0, c2, c2
    if t < 0.0:
        c2 = math.sqrt((math.pi - t) * (math.pi + t) / 3.0)
        # 1 + cos t = 2 cos^2(t/2) keeps its digits as t -> -pi
        return math.cos(t), 2.0 * math.cos(t / 2.0) ** 2, math.sin(t) / t * c2, c2
    c2 = math.sqrt((math.pi ** 2 + t * t) / 3.0)
    return math.cosh(t), 1.0 + math.cosh(t), math.sinh(t) / t * c2, c2


def gsh_kurtosis(t: float) -> float:
    """beta(t) = (21 pi^2 + 9 q) / (5 pi^2 + 5 q), q = t |t|."""
    q = t * abs(t)
    return (21.0 * math.pi ** 2 + 9.0 * q) / (5.0 * math.pi ** 2 + 5.0 * q)


def pole_distance(tau: float, t: float) -> float:
    """Distance of the density's nearest complex pole from the real axis."""
    _, _, _, c2 = gsh_constants(t)
    return (math.pi - abs(t)) * tau / c2 if t < 0.0 else math.pi * tau / c2


def gsh_log_density(theta, tau: float, t: float) -> np.ndarray:
    """log g(theta) = log(c1/tau) - |z| - log((1 - e^-|z|)^2 + 2(1+a) e^-|z|)."""
    _, one_plus_a, c1, c2 = gsh_constants(t)
    z = np.abs(c2 * np.asarray(theta, dtype=float) / tau)
    e = np.exp(-z)
    return math.log(c1 / tau) - z - np.log(np.expm1(-z) ** 2 + 2.0 * one_plus_a * e)


def gsh_cdf(theta, tau: float, t: float) -> np.ndarray:
    """Closed-form CDF; F(theta) for theta <= 0, 1 - F(-theta) above.

    With w = exp(c2 theta / tau) <= 1 on the lower half:
      t < 0: F = atan2(w sin|t|, 1 + w cos t) / |t|
      t = 0: F = w / (1 + w)
      t > 0: F = [log1p(w e^t) - log1p(w e^-t)] / (2t)
             = log1p(2 w sinh t / (1 + w e^-t)) / (2t)
    """
    _, _, _, c2 = gsh_constants(t)
    th = np.asarray(theta, dtype=float)
    w = np.exp(-c2 * np.abs(th) / tau)
    if t < 0.0:
        lower = np.arctan2(w * math.sin(-t), 1.0 + w * math.cos(t)) / (-t)
    elif t == 0.0:
        lower = w / (1.0 + w)
    else:
        lower = np.log1p(2.0 * w * math.sinh(t) / (1.0 + w * math.exp(-t))) / (2.0 * t)
    return np.where(th <= 0.0, lower, 1.0 - lower)


# ---------------------------------------------------------------------------
# Posterior mean under alpha * delta_0 + (1 - alpha) * GSH(tau, t)
# ---------------------------------------------------------------------------

def _edge_ladder(reach: float, sigma: float, rho: float, graded: bool) -> np.ndarray:
    """Panel edges on [-reach, reach]: each panel is at most sigma wide and at
    most half as wide as the distance from its inner end to the nearest pole.

    For t < 0 the poles sit above theta = 0, at distance sqrt(x^2 + rho^2)
    from x, so panels widen geometrically away from zero; for t >= 0 the
    distance is at least rho everywhere.
    """
    xs = [0.0]
    while xs[-1] < reach:
        dist = math.hypot(xs[-1], rho) if graded else rho
        step = min(sigma, 0.5 * dist)
        if step == sigma:
            xs.extend(xs[-1] + sigma * np.arange(1, math.ceil((reach - xs[-1]) / sigma) + 1))
            break
        xs.append(xs[-1] + step)
    pos = np.asarray(xs)
    return np.concatenate([-pos[:0:-1], pos])


def _nodes(edges: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the ladder's panels cut to [lo, hi]."""
    inner = edges[(edges > lo) & (edges < hi)]
    cut = np.concatenate([[lo], inner, [hi]])
    mid = 0.5 * (cut[1:] + cut[:-1])
    half = 0.5 * (cut[1:] - cut[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X[None, :]).ravel(),
            (half[:, None] * _GL_W[None, :]).ravel())


def posterior(d, alpha: float, sigma: float, tau: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean delta(d) and log marginal density log m(d).

    Each d is integrated over [d - p, d + p].  The slab density is unimodal,
    so outside the window the slab integrand is at most
    g(0) phi((p)/sigma), while the mass within sigma of d is at least
    0.68 g(|d| + sigma).  With g(0)/g(x) <= e^{c2 x / tau} (1 + 1/(2(1+a))),
    p = sigma * max(WINDOW_SIGMAS, sqrt(2 (c2 (|d| + sigma)/tau + log(1 + 1/(2(1+a))) + 41)))
    leaves out less than e^-40 of the posterior mass.  For slabs with
    heavy shoulders the window reaches the slab bulk at zero; for light
    slabs it covers the shift of the posterior mode towards zero.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    _, one_plus_a, _, c2 = gsh_constants(t)
    rho = pole_distance(tau, t)
    slack = math.log1p(0.5 / one_plus_a) + 41.0
    pads = sigma * np.maximum(WINDOW_SIGMAS,
                              np.sqrt(2.0 * (c2 * (np.abs(d) + sigma) / tau + slack)))
    log_norm = math.log(sigma * math.sqrt(2.0 * math.pi))
    mean = np.empty(d.shape)
    log_m = np.empty(d.shape)
    edges = _edge_ladder(float((np.abs(d) + pads).max(initial=0.0)), sigma, rho, t < 0.0)
    for i, (di, pad) in enumerate(zip(d.ravel(), pads.ravel())):
        theta, w = _nodes(edges, di - pad, di + pad)
        ll = np.log(w) + gsh_log_density(theta, tau, t) \
            - 0.5 * ((theta - di) / sigma) ** 2
        top = ll.max()
        e = np.exp(ll - top)
        log_spike = math.log(alpha) - 0.5 * (di / sigma) ** 2 if alpha > 0.0 else -math.inf
        log_slab = math.log1p(-alpha) + top + math.log(e.sum()) if alpha < 1.0 else -math.inf
        log_total = np.logaddexp(log_spike, log_slab)
        mean.flat[i] = 0.0 if alpha == 1.0 else \
            (1.0 - alpha) * float(theta @ e) * math.exp(top - log_total)
        log_m.flat[i] = log_total - log_norm
    return mean, log_m


def posterior_mean(d, alpha: float, sigma: float, tau: float, t: float) -> np.ndarray:
    return posterior(d, alpha, sigma, tau, t)[0]


def bayes_risk_identity(alpha: float, sigma: float, tau: float, t: float) -> float:
    """r = (1 - alpha) tau^2 - E_m[delta(d)^2], the posterior mean's Bayes risk.

    E_m is an integral over d of delta^2 m, on panels of width sigma out to
    where m's exponential tail, e^{-c2 |d| / tau}, leaves < 1e-20.
    """
    _, _, _, c2 = gsh_constants(t)
    reach = max(12.0 * sigma, (46.0 + 2.0 * math.log(100.0 * tau / c2)) * tau / c2)
    edges = np.arange(-reach, reach + sigma, sigma)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    dd = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    ww = (half[:, None] * _GL_W[None, :]).ravel()
    delta, log_m = posterior(dd, alpha, sigma, tau, t)
    return (1.0 - alpha) * tau * tau - float(np.sum(ww * delta ** 2 * np.exp(log_m)))


# ---------------------------------------------------------------------------
# Elicitation
# ---------------------------------------------------------------------------

def mad_sigma(finest) -> float:
    return float(np.median(np.abs(np.asarray(finest, dtype=float))) / MAD_SCALE)


def kurtosis(x) -> float:
    x = np.asarray(x, dtype=float)
    c = x - x.mean()
    return float(np.mean(c ** 4) / np.mean(c ** 2) ** 2)


def t_from_kurtosis(beta: float) -> float:
    """Invert beta(t) = (21 pi^2 -+ 9 t^2) / (5 pi^2 -+ 5 t^2), clamped."""
    if beta <= 1.8 + 1e-6:
        return T_MAX
    if abs(5.0 * beta - 21.0) < 1e-12:  # the logistic, beta = 21/5
        return 0.0
    ratio = (5.0 * beta - 21.0) / (5.0 * beta - 9.0)
    t = -math.pi * math.sqrt(ratio) if ratio >= 0.0 else math.pi * math.sqrt(-ratio)
    return min(max(t, T_MIN), T_MAX)


def alpha_level(j: int, primary_level: int) -> float:
    return 1.0 - (j - primary_level + 1.0) ** (-ALPHA_DECAY)


def elicit(details: dict[int, np.ndarray], primary_level: int,
           per_level: bool) -> tuple[float, dict[int, float], dict[int, float]]:
    """sigma_hat, alpha by level, t by level for the detail levels given."""
    levels = sorted(details)
    sigma_hat = mad_sigma(details[levels[-1]])
    t_pooled = t_from_kurtosis(kurtosis(np.concatenate([details[j] for j in levels])))
    t_by = {}
    for j in levels:
        level = details[j]
        if per_level and level.size >= MIN_LEVEL_SIZE and np.ptp(level) > 0.0:
            t_by[j] = t_from_kurtosis(kurtosis(level))
        else:
            t_by[j] = t_pooled
    return sigma_hat, {j: alpha_level(j, primary_level) for j in levels}, t_by


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

def universal(d, sigma: float, n: int, soft: bool) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    lam = sigma * math.sqrt(2.0 * math.log(n))
    if soft:
        return np.sign(d) * np.maximum(np.abs(d) - lam, 0.0)
    return np.where(np.abs(d) > lam, d, 0.0)


def sure(d, sigma: float) -> np.ndarray:
    """Soft threshold at the SURE minimiser over {0, cap} and |d|/sigma <= cap.

    SURE(lam) = n - 2 #{|x| <= lam} + sum min(x^2, lam^2) on x = |d| / sigma,
    cap = sqrt(2 log n); evaluated directly for every candidate, smallest
    minimiser first.
    """
    d = np.asarray(d, dtype=float)
    if sigma <= 0.0:
        return d.copy()
    x = np.abs(d) / sigma
    cap = math.sqrt(2.0 * math.log(x.size))
    cands = np.unique(np.concatenate([[0.0, cap], x[x <= cap]]))
    best, best_lam = math.inf, 0.0
    x2 = x * x
    for lam in cands:
        risk = x.size - 2.0 * np.count_nonzero(x <= lam) + np.minimum(x2, lam * lam).sum()
        if risk < best:
            best, best_lam = risk, lam
    lam = best_lam * sigma
    return np.sign(d) * np.maximum(np.abs(d) - lam, 0.0)


# ---------------------------------------------------------------------------
# DWT by FFT
# ---------------------------------------------------------------------------

def daubechies_lowpass(n_moments: int) -> np.ndarray:
    """Extremal-phase Daubechies lowpass filter by spectral factorisation.

    H(z) = ((1 + z)/2)^N Q(z) up to scale, where Q(z) Q(1/z) = P(y) with
    y = (2 - z - 1/z)/4 and P(y) = sum_{k<N} C(N-1+k, k) y^k; Q takes the
    zeros of P(y(z)) inside the unit circle.  Taps are the coefficients in
    ascending powers of z, scaled to sum to sqrt(2).
    """
    n = n_moments
    poly = np.array([1.0 + 0j])  # descending powers of z
    for y in np.roots([math.comb(n - 1 + k, k) for k in range(n)][::-1]):
        b = 2.0 - 4.0 * y
        z = (b + np.sqrt(b * b - 4.0 + 0j)) / 2.0  # z + 1/z = b
        poly = np.convolve(poly, [1.0, -(z if abs(z) < 1.0 else 1.0 / z)])
    for _ in range(n):
        poly = np.convolve(poly, [1.0, 1.0])
    h = np.real(poly)[::-1]
    return h * math.sqrt(2.0) / h.sum()


def highpass(h: np.ndarray) -> np.ndarray:
    """Quadrature mirror: g[m] = (-1)^m h[L - 1 - m]."""
    return h[::-1] * (-1.0) ** np.arange(h.size)


def _correlate_down(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """c[k] = sum_m f[m] x[(2k + m) mod n], by FFT circular correlation."""
    n = x.size
    fp = np.bincount(np.arange(f.size) % n, weights=f, minlength=n)
    c = np.fft.irfft(np.fft.rfft(x) * np.conj(np.fft.rfft(fp)), n)
    return c[::2]


def dwt_forward(x, h: np.ndarray, primary_level: int):
    """(scaling, details by level) of the periodic pyramid down to J0."""
    a = np.asarray(x, dtype=float)
    g = highpass(h)
    details = {}
    j = int(round(math.log2(a.size)))
    while j > primary_level:
        details[j - 1] = _correlate_down(a, g)
        a = _correlate_down(a, h)
        j -= 1
    return a, details
