"""The generalized secant hyperbolic (GSH) distribution of Vaughan (2002).

Symmetric around zero, with a scale parameter ``tau`` and a shape parameter
``t > -pi`` that tunes the kurtosis: t = -pi/2 recovers the hyperbolic
secant distribution, t -> 0 the logistic, and t -> infinity approaches the
uniform.  The parametrisation is standardised so the variance is tau^2 for
every t.  Density:

    g(theta) = (c1/tau) * exp(z) / (exp(2z) + 2a exp(z) + 1),   z = c2*theta/tau

with, for -pi < t < 0:
    a = cos(t),  c2 = sqrt((pi - t)(pi + t)/3),  c1 = (sin(t)/t) * c2
and for t > 0:
    a = cosh(t), c2 = sqrt((pi^2 + t^2)/3),  c1 = (sinh(t)/t) * c2.

The CDF integrates in closed form.  For theta <= 0, with
w = exp(c2*theta/tau) in (0, 1]:

    t < 0:  F = atan2(w sin|t|, 1 + w cos t) / |t|
    t = 0:  F = w / (1 + w)
    t > 0:  F = log1p(2 w sinh(t) / (1 + w e^-t)) / (2t)

and F(theta) = 1 - F(-theta) above zero.  Solving F = s in (0, 1/2] for w
gives the quantile, theta = (tau/c2) log w:

    t < 0:  w = sin(phi) / sin(|t| - phi),  phi = s|t|
    t = 0:  w = s / (1 - s)
    t > 0:  w = expm1(2ts) e^-t / -expm1(2t(s - 1))
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng

#: |t| below this is routed to the logistic-limit constants; the raw
#: formulas hit 0/0 in sin(t)/t there.
T_LOGISTIC_EPS = 1e-6

#: Floor of the tail mass in the quantile: q = 0 and q = 1 stay finite.
_SMALLEST_NORMAL = np.finfo(float).tiny


def gsh_constants(t: float) -> tuple[float, float, float]:
    """Derived constants (a, c1, c2) of the GSH density for shape t > -pi."""
    if not np.isfinite(t) or t <= -np.pi:
        raise ValueError(f"shape parameter t must be finite and > -pi, got {t!r}")
    if abs(t) < T_LOGISTIC_EPS:
        # logistic limit: sin(t)/t and sinh(t)/t -> 1
        c2 = np.pi / np.sqrt(3.0)
        return 1.0, c2, c2
    if t < 0:
        a = np.cos(t)
        # (pi - t)(pi + t), not pi^2 - t^2, which cancels as t -> -pi
        c2 = np.sqrt((np.pi - t) * (np.pi + t) / 3.0)
        c1 = (np.sin(t) / t) * c2
    else:
        a = np.cosh(t)
        c2 = np.sqrt((np.pi**2 + t * t) / 3.0)
        c1 = (np.sinh(t) / t) * c2
    return float(a), float(c1), float(c2)


@dataclass(frozen=True)
class GshParams:
    """Scale tau, shape t, and the derived density constants."""

    tau: float
    t: float
    a: float
    c1: float
    c2: float

    @classmethod
    def make(cls, tau: float, t: float) -> "GshParams":
        if not np.isfinite(tau) or tau <= 0:
            raise ValueError(f"tau must be finite and > 0, got {tau!r}")
        a, c1, c2 = gsh_constants(t)
        return cls(tau=float(tau), t=float(t), a=a, c1=c1, c2=c2)


@dataclass(frozen=True)
class ShrinkagePrior:
    """Point mass at zero with weight alpha, GSH slab with weight 1 - alpha."""

    alpha: float
    gsh: GshParams

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")


def gsh_log_density(theta, p: GshParams):
    """log g(theta), finite wherever z = c2 theta / tau is.

    With e = exp(-|z|), the density is (c1/tau) e / ((1 - e)^2 + 2(1 + a) e),
    so log g = log(c1/tau) - |z| - log((1 - e)^2 + 2(1 + a) e).  The last
    log's argument is a sum of two terms that are never negative, with 1 - e
    taken by expm1 and 1 + a = 2 cos^2(t/2) for t < 0, so nothing cancels as
    t -> -pi or z -> 0, and nothing overflows as |z| grows.
    """
    th = np.asarray(theta, dtype=float)
    z = np.abs(th) * (p.c2 / p.tau)
    e = np.exp(-z)
    one_plus_a = 2.0 * np.cos(p.t / 2.0) ** 2 if p.t <= -T_LOGISTIC_EPS else 1.0 + p.a
    out = np.log(p.c1 / p.tau) - z - np.log(np.expm1(-z) ** 2 + 2.0 * one_plus_a * e)
    return out if out.ndim else float(out)


def gsh_density(theta, p: GshParams):
    """g(theta), the GSH density."""
    out = np.exp(gsh_log_density(theta, p))
    return out if np.ndim(out) else float(out)


def gsh_kurtosis(t: float) -> float:
    """Kurtosis coefficient beta(t); strictly decreasing in t, always > 9/5.

    beta -> infinity as t -> -pi, beta(0) = 21/5, and beta -> 9/5 as
    t -> infinity.
    """
    if not np.isfinite(t) or t <= -np.pi:
        raise ValueError(f"shape parameter t must be finite and > -pi, got {t!r}")
    pi2 = np.pi**2
    if abs(t) < T_LOGISTIC_EPS:
        return 4.2
    if t < 0:
        return float((21.0 * pi2 - 9.0 * t * t) / (5.0 * pi2 - 5.0 * t * t))
    return float((21.0 * pi2 + 9.0 * t * t) / (5.0 * pi2 + 5.0 * t * t))


def _lower_mass(w, t: float):
    """F(theta) for theta <= 0, in terms of w = exp(-c2 |theta| / tau) in (0, 1]."""
    if abs(t) < T_LOGISTIC_EPS:
        return w / (1.0 + w)
    if t < 0:
        return np.arctan2(w * np.sin(-t), 1.0 + w * np.cos(t)) / -t
    return np.log1p(2.0 * w * np.sinh(t) / (1.0 + w * np.exp(-t))) / (2.0 * t)


def _lower_log_w(s, t: float):
    """log w at which _lower_mass equals s in (0, 1/2], kept in logs: w itself underflows."""
    if abs(t) < T_LOGISTIC_EPS:
        return np.log(s) - np.log1p(-s)
    if t < 0:
        phi = -t * s
        return np.log(np.sin(phi)) - np.log(np.sin(-t - phi))
    return (np.log(np.expm1(2.0 * t * s)) - t
            - np.log(-np.expm1(2.0 * t * (s - 1.0))))


def gsh_cdf(theta, p: GshParams):
    """F(theta) in closed form; F(0) = 1/2 exactly."""
    th = np.asarray(theta, dtype=float)
    lower = _lower_mass(np.exp(-p.c2 * np.abs(th) / p.tau), p.t)
    out = np.where(th == 0.0, 0.5, np.where(th > 0.0, 1.0 - lower, lower))
    return out if out.ndim else float(out)


def gsh_quantile(q, p: GshParams):
    """Inverse of gsh_cdf on [0, 1]; Q(1/2) = 0 exactly, Q(0) and Q(1) finite."""
    q = np.asarray(q, dtype=float)
    s = np.maximum(np.minimum(q, 1.0 - q), _SMALLEST_NORMAL)
    out = np.sign(q - 0.5) * (p.tau / p.c2) * np.abs(_lower_log_w(s, p.t))
    return out if out.ndim else float(out)


def gsh_sample(rng: SeededRng, p: GshParams, count: int) -> np.ndarray:
    """i.i.d. GSH draws by inverse CDF of uniforms; deterministic given the seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return gsh_quantile(rng.generator().random(count), p)
