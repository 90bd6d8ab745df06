"""Data-driven hyperparameter selection for the spike-and-GSH prior.

The noise level comes from the median absolute deviation of the finest
detail coefficients; the spike weight grows with the resolution level as
alpha(j) = 1 - (j - J0 + 1)^(-gamma); and the slab shape t is obtained by
inverting the kurtosis map at the sample kurtosis of the detail
coefficients.  The slab scale is fixed at tau = 1 and the shrinkage level
around zero is controlled through alpha alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .dwt import WaveletDecomposition
from .numerics import DegenerateInputError

#: Normal consistency constant: the 0.75 quantile of the standard normal.
MAD_SCALE = 0.6745

#: Kurtosis at the logistic limit t = 0.
LOGISTIC_KURTOSIS = 4.2

#: Lower pole of the kurtosis map; sample kurtosis at or below this has no
#: finite preimage and is routed to t_max.
KURTOSIS_FLOOR = 9.0 / 5.0

#: Minimum detail-level size for a per-level kurtosis estimate; smaller
#: levels fall back to the pooled estimate.
MIN_LEVEL_SIZE = 30


@dataclass(frozen=True)
class ElicitationConfig:
    """Knobs of the elicitation step.

    gamma is the spike-weight exponent (2 in the absence of other
    information) and primary_level the coarsest shrunk level J0.  With
    ``pool_levels`` one t is shared across all detail levels; otherwise t
    is per level with a pooled fallback for short levels.  The elicited t
    is clamped to the fixed range [t_min, t_max].
    """

    gamma: float = 2.0
    primary_level: int = 4
    pool_levels: bool = True
    t_min: ClassVar[float] = -np.pi + 1e-3
    t_max: ClassVar[float] = 50.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.primary_level < 0:
            raise ValueError("primary_level must be >= 0")


@dataclass(frozen=True)
class ElicitedHyperparams:
    """Everything the per-level shrinkage rules need."""

    sigma_hat: float
    alpha_by_level: dict[int, float]
    t_value: float
    tau: float = 1.0
    t_by_level: dict[int, float] = field(default_factory=dict)

    def level_t(self, j: int) -> float:
        return self.t_by_level.get(j, self.t_value)


def estimate_sigma(finest_detail) -> float:
    """Robust noise scale: median(|d|) / 0.6745 over the finest detail level."""
    d = np.asarray(finest_detail, dtype=float)
    if d.size == 0:
        raise ValueError("finest detail level is empty")
    return float(_median(np.abs(d)) / MAD_SCALE)


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty 1-d float array, step for step (the same
    partition, mean of the middle values, and NaN rule), without the
    numpy.ma import np.median makes for its NaN check."""
    half = a.size // 2
    middle = [half - 1, half] if a.size % 2 == 0 else [half]
    part = np.partition(a, middle + [-1])
    if np.isnan(part[-1]):
        return np.nan
    return np.mean(part[middle[0]:half + 1])


def alpha_level(j: int, cfg: ElicitationConfig) -> float:
    """Spike weight alpha(j) = 1 - (j - J0 + 1)^(-gamma); zero at j = J0."""
    if j < cfg.primary_level:
        raise ValueError(
            f"level {j} is coarser than the primary level {cfg.primary_level}"
        )
    return 1.0 - (j - cfg.primary_level + 1.0) ** (-cfg.gamma)


def sample_kurtosis(coeffs) -> float:
    """Biased moment-ratio kurtosis: m4 / m2^2 with 1/n central moments."""
    d = np.asarray(coeffs, dtype=float)
    if d.size < 4:
        raise ValueError(f"need at least 4 values, got {d.size}")
    centered = d - d.mean()
    # one square, reused for the fourth power: centered**4 would call pow
    sq = centered * centered
    m2 = np.mean(sq)
    if m2 == 0.0:
        raise DegenerateInputError("constant vector has undefined kurtosis")
    sq *= sq
    m4 = np.mean(sq)
    return float(m4 / (m2 * m2))


def elicit_t(beta_hat: float) -> float:
    """Invert the kurtosis map at the sample kurtosis, clamped to [t_min, t_max].

    beta_hat >= 4.2 maps to the negative branch, beta_hat < 4.2 to the
    positive one; 4.2 itself returns exactly 0 (the logistic limit) and
    values at or below the 9/5 pole return t_max.
    """
    if not np.isfinite(beta_hat):
        raise ValueError(f"kurtosis estimate must be finite, got {beta_hat!r}")
    if beta_hat <= KURTOSIS_FLOOR + 1e-6:
        return ElicitationConfig.t_max
    num = 5.0 * beta_hat - 21.0
    den = 5.0 * beta_hat - 9.0
    if abs(num) < 1e-12:
        return 0.0
    if beta_hat >= LOGISTIC_KURTOSIS:
        t = -np.pi * np.sqrt(num / den)
    else:
        t = np.pi * np.sqrt(-num / den)
    return float(np.clip(t, ElicitationConfig.t_min, ElicitationConfig.t_max))


def elicit_all(decomp: WaveletDecomposition,
               cfg: ElicitationConfig = ElicitationConfig()) -> ElicitedHyperparams:
    """Run the full elicitation on a decomposition.

    Raises :class:`DegenerateInputError` when the detail coefficients carry
    no variation (e.g. the decomposition of a constant signal).
    """
    levels = decomp.levels
    if not levels:
        raise ValueError("decomposition has no detail levels")
    if levels[0] != cfg.primary_level:
        raise ValueError(
            f"decomposition starts at level {levels[0]} but the "
            f"configuration says J0 = {cfg.primary_level}"
        )
    sigma_hat = estimate_sigma(decomp.finest_detail)
    pooled = np.concatenate([decomp.details[j] for j in levels])
    t_pooled = elicit_t(sample_kurtosis(pooled))

    t_by_level: dict[int, float] = {}
    for j in levels:
        if cfg.pool_levels or decomp.details[j].size < MIN_LEVEL_SIZE:
            t_by_level[j] = t_pooled
        else:
            try:
                t_by_level[j] = elicit_t(sample_kurtosis(decomp.details[j]))
            except DegenerateInputError:
                t_by_level[j] = t_pooled

    alpha_by_level = {j: alpha_level(j, cfg) for j in levels}
    return ElicitedHyperparams(
        sigma_hat=sigma_hat,
        alpha_by_level=alpha_by_level,
        t_value=t_pooled,
        tau=1.0,
        t_by_level=t_by_level,
    )
