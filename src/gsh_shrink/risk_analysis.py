"""Frequentist and Bayes risk diagnostics of the shrinkage rule.

For a fixed coefficient value theta the classical risk is

    R(theta) = E_{d ~ N(theta, sigma^2)} [ (delta(d) - theta)^2 ]
             = (E delta - theta)^2 + Var(delta),

and the Bayes risk averages R over the prior,

    r = alpha * R(0) + (1 - alpha) * E_{theta ~ g}[R(theta)],

with the point mass contributing exactly alpha * R(0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gsh_prior import gsh_density, gsh_sample
from .numerics import QuadratureSpec, SeededRng, gaussian_quad_nodes
from .shrinkage import ShrinkageRule, shrink_array

QUADRATURE = "quadrature"
MONTE_CARLO = "monte_carlo"

#: Half-range, in units of tau, of the slab-average theta grid; the
#: exponential tail of g keeps the discarded mass negligible for the shape
#: range exercised here.
_SLAB_HALF_RANGE = 60.0

#: Default outer quadrature for the d-expectation in rule_moments.
DEFAULT_MOMENT_QUAD = QuadratureSpec(node_count=64)


@dataclass(frozen=True)
class RiskCurve:
    """Squared bias, variance, and classical risk on a grid of theta."""

    theta_grid: np.ndarray
    squared_bias: np.ndarray
    variance: np.ndarray
    classical_risk: np.ndarray


@dataclass(frozen=True)
class BayesRiskEstimate:
    value: float
    method: str
    std_error: float = 0.0


def rule_moments(theta, rule: ShrinkageRule):
    """(squared bias, variance, risk) of the rule at fixed theta.

    Computes m1 = E[delta(d)] and m2 = E[delta(d)^2] over d ~ N(theta,
    sigma^2) with the outer quadrature DEFAULT_MOMENT_QUAD; theta may be a
    scalar or an array of any shape, and the three outputs take its shape.
    """
    shape = np.shape(theta)
    th = np.asarray(theta, dtype=float).ravel()
    u, v = gaussian_quad_nodes(DEFAULT_MOMENT_QUAD)
    d = th[:, None] + rule.sigma * u[None, :]
    delta = shrink_array(d, rule)
    m1 = delta @ v
    m2 = (delta * delta) @ v
    bias_sq = (m1 - th) ** 2
    variance = np.maximum(m2 - m1 * m1, 0.0)
    risk = bias_sq + variance
    if not shape:
        return float(bias_sq[0]), float(variance[0]), float(risk[0])
    return bias_sq.reshape(shape), variance.reshape(shape), risk.reshape(shape)


def risk_curve(grid, rule: ShrinkageRule) -> RiskCurve:
    """Risk diagnostics along a grid of coefficient values."""
    grid = np.asarray(grid, dtype=float)
    bias_sq, variance, risk = rule_moments(grid, rule)
    return RiskCurve(theta_grid=grid, squared_bias=bias_sq,
                     variance=variance, classical_risk=risk)


def default_risk_grid(lo: float = -8.0, hi: float = 8.0,
                      points: int = 321) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi) and points >= 2):
        raise ValueError("a risk grid needs finite bounds and at least 2 points, "
                         f"got [{lo}, {hi}] and {points}")
    return np.linspace(lo, hi, points)


def bayes_risk(rule: ShrinkageRule, method: str = QUADRATURE,
               mc_draws: int = 100_000, rng: SeededRng | None = None,
               theta_points: int = 4801) -> BayesRiskEstimate:
    """Bayes risk r = alpha R(0) + (1 - alpha) E_g[R(theta)].

    ``quadrature`` integrates R(theta) g(theta) by the trapezoid rule over
    |theta| <= 60 tau; ``monte_carlo`` draws theta from the slab and
    averages R, reporting the standard error of the slab term.
    """
    if method not in (QUADRATURE, MONTE_CARLO):
        raise ValueError(f"unknown Bayes-risk method {method!r}")
    alpha = rule.prior.alpha
    p = rule.prior.gsh
    risk0 = rule_moments(0.0, rule)[2]
    if alpha == 1.0:
        return BayesRiskEstimate(value=alpha * risk0, method=method)

    if method == QUADRATURE:
        if theta_points < 3:
            raise ValueError("theta_points must be >= 3")
        theta = np.linspace(-_SLAB_HALF_RANGE * p.tau, _SLAB_HALF_RANGE * p.tau,
                            theta_points)
        risk = rule_moments(theta, rule)[2]
        slab = float(np.trapezoid(risk * gsh_density(theta, p), theta))
        return BayesRiskEstimate(value=alpha * risk0 + (1.0 - alpha) * slab,
                                 method=QUADRATURE)

    if mc_draws < 1:
        raise ValueError("mc_draws must be >= 1")
    if rng is None:
        raise ValueError("monte_carlo estimation needs a SeededRng")
    theta = gsh_sample(rng, p, mc_draws)
    risk = rule_moments(theta, rule)[2]
    slab_mean = float(np.mean(risk))
    if mc_draws > 1:
        se = (1.0 - alpha) * float(np.std(risk, ddof=1)) / np.sqrt(mc_draws)
    else:
        se = 0.0
    return BayesRiskEstimate(value=alpha * risk0 + (1.0 - alpha) * slab_mean,
                             method=MONTE_CARLO, std_error=se)
