"""Donoho-Johnstone test functions and noisy-sample generation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DegenerateInputError, SeededRng, sample_normal

# Canonical knot/height/width constants of the Donoho-Johnstone test
# signals (Wavelab MakeSignal convention); inputs of this package, not
# outputs.
_KNOTS = (0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81)
_BLOCK_HEIGHTS = (4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2)
_BUMP_HEIGHTS = (4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2)
_BUMP_WIDTHS = (0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01,
                0.005, 0.008, 0.005)


def _blocks(x):
    out = np.zeros_like(x)
    for knot, height in zip(_KNOTS, _BLOCK_HEIGHTS):
        out += height * (1.0 + np.sign(x - knot)) / 2.0
    return out


def _bumps(x):
    out = np.zeros_like(x)
    for knot, height, width in zip(_KNOTS, _BUMP_HEIGHTS, _BUMP_WIDTHS):
        out += height / (1.0 + np.abs((x - knot) / width)) ** 4
    return out


def _doppler(x):
    return np.sqrt(x * (1.0 - x)) * np.sin(2.0 * np.pi * 1.05 / (x + 0.05))


def _heavisine(x):
    return 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)


TEST_FUNCTIONS = {
    "bumps": _bumps,
    "blocks": _blocks,
    "doppler": _doppler,
    "heavisine": _heavisine,
}

FUNCTION_NAMES = tuple(TEST_FUNCTIONS)


def evaluate(name: str, x):
    """Closed-form value of a test function on [0, 1]."""
    if name not in TEST_FUNCTIONS:
        raise ValueError(f"unknown test function {name!r}; "
                         f"choose one of {FUNCTION_NAMES}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("test functions are defined on [0, 1]")
    out = TEST_FUNCTIONS[name](arr)
    return out if out.ndim else float(out)


def sample_function(name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate on the dyadic design x_i = i/n, i = 1..n, n a power of two."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample size must be a power of two, got {n}")
    x = np.arange(1, n + 1) / n
    return x, evaluate(name, x)


def scale_to_snr(f, snr: float, sigma: float) -> np.ndarray:
    """Rescale a signal so that sd(f)/sigma = snr, with 1/n-normalised sd."""
    if not (np.isfinite(snr) and np.isfinite(sigma) and snr > 0 and sigma > 0):
        raise ValueError(f"snr and sigma must be finite and > 0, got {snr} and {sigma}")
    f = np.asarray(f, dtype=float)
    sd = float(np.std(f))
    if sd == 0.0:
        raise DegenerateInputError("cannot set the SNR of a constant signal")
    return (snr * sigma / sd) * f


@dataclass(frozen=True)
class NoisySample:
    """One simulated data set: design, SNR-scaled truth, and noisy values."""

    x: np.ndarray
    f: np.ndarray
    y: np.ndarray
    sigma: float
    snr: float
    seed: SeededRng


def make_noisy_sample(name: str, n: int, snr: float, sigma: float,
                      rng: SeededRng) -> NoisySample:
    """Sample the test function, scale it to the target SNR, add white noise."""
    x, f_raw = sample_function(name, n)
    f = scale_to_snr(f_raw, snr, sigma)
    y = f + sample_normal(rng, 0.0, sigma, n)
    return NoisySample(x=x, f=f, y=y, sigma=float(sigma), snr=float(snr), seed=rng)
