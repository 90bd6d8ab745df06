"""The Bayes shrinkage rule: posterior mean of a wavelet coefficient under
the spike-and-GSH-slab prior and a Normal(theta, sigma^2) likelihood.

For an observed coefficient d,

    delta(d) = (1-alpha) * I1(d) / [ (alpha/sigma) phi(d/sigma) + (1-alpha) I0(d) ]

where I0 = E[g(sigma*U + d)], I1 = E[(sigma*U + d) g(sigma*U + d)] over
U ~ N(0, 1).  Both integrals share the same quadrature nodes.  Slab weights
are evaluated directly through g = (c1/tau)/(2 cosh(z) + 2a) while the
argument range permits, and in log space with a max shift beyond that, so
the ratio stays well conditioned out to |d| of order 100*sigma.

The direct weights are factorised: with z = k(d + sigma*u) and k = c2/tau,
2 cosh(z) = e^{kd} e^{k sigma u} + e^{-kd} e^{-k sigma u}.  Instead of a
cosh per (coefficient, node) pair, a block of coefficients costs two
exponentials per coefficient, one rank-3 matrix product for the
denominators, a reciprocal, and one matrix product that yields I0 and I1
together.  Coefficients are processed in blocks small enough for the work
matrix to stay in cache.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .gsh_prior import ShrinkagePrior, gsh_log_density
from .numerics import DENSE_QUAD, QuadratureSpec, gaussian_quad_nodes

#: Cap on elements of the (coefficients x nodes) work matrix per block:
#: 512 KB of doubles, so a block stays in a core's L2 cache.
_BLOCK_ELEMENTS = 65_536


@dataclass(frozen=True)
class ShrinkageRule:
    """Prior, noise standard deviation, and the quadrature used to apply it."""

    prior: ShrinkagePrior
    sigma: float
    quad: QuadratureSpec = DENSE_QUAD

    def __post_init__(self) -> None:
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")


def shrink_array(d, rule: ShrinkageRule) -> np.ndarray:
    """Vectorised posterior mean; the workhorse behind shrink/shrink_vector."""
    d = np.asarray(d, dtype=float)
    alpha = rule.prior.alpha
    if alpha == 1.0:
        return np.zeros_like(d)

    u, v = gaussian_quad_nodes(rule.quad)
    log_v = np.log(v)
    sigma = rule.sigma
    p = rule.prior.gsh
    k = p.c2 / p.tau

    flat = d.ravel()
    out = np.empty_like(flat)
    block = max(1, _BLOCK_ELEMENTS // u.size)
    u_reach = float(np.abs(u).max())
    if k * sigma * u_reach < 600.0:
        # the direct branch is reachable: node factors of the separable
        # slab weights, and the (nodes x 2) weights of I0 and (I1 - d I0)/sigma
        node_factors = np.stack([np.exp(k * sigma * u), np.exp(-k * sigma * u),
                                 np.ones_like(u)])
        weights = (p.c1 / p.tau) * np.stack([v, v * u], axis=1)
    for start in range(0, flat.size, block):
        dj = flat[start:start + block]
        z_reach = k * (np.abs(dj).max(initial=0.0) + sigma * u_reach)
        if z_reach < 600.0:
            # direct evaluation: g = (c1/tau) / (2 cosh(k(d + sigma u)) + 2a)
            # with 2 cosh(k(d + sigma u)) = e^{kd} e^{k sigma u}
            # + e^{-kd} e^{-k sigma u}, so the whole denominator is one
            # rank-3 product; no factor can overflow here and every slab
            # weight stays positive
            row_factors = np.stack([np.exp(k * dj), np.exp(-k * dj),
                                    np.full_like(dj, 2.0 * p.a)], axis=1)
            slab = row_factors @ node_factors
            integrals = np.reciprocal(slab, out=slab) @ weights
            den = integrals[:, 0]
            num = dj * den + sigma * integrals[:, 1]
            if alpha > 0.0:
                point = (alpha / sigma) * np.exp(-0.5 * (dj / sigma) ** 2) \
                    / np.sqrt(2.0 * np.pi)
            else:
                point = 0.0
        else:
            # log-space with a max shift: for extreme coefficients the raw
            # terms underflow while the ratio stays well conditioned
            arg = dj[:, None] + sigma * u[None, :]
            s = gsh_log_density(arg, p) + log_v[None, :]
            shift = s.max(axis=1, keepdims=True)
            w = np.exp(s - shift)
            den = w.sum(axis=1)
            num = (w * arg).sum(axis=1)
            if alpha > 0.0:
                log_point = (
                    np.log(alpha) - np.log(sigma)
                    - 0.5 * (dj / sigma) ** 2 - 0.5 * np.log(2.0 * np.pi)
                )
                point = np.exp(log_point - shift[:, 0])
            else:
                point = 0.0
        out[start:start + block] = (1.0 - alpha) * num / (point + (1.0 - alpha) * den)

    # the numerator integrand is odd at d = 0, so the posterior mean is
    # exactly zero there; pin it to avoid rounding residue
    out[flat == 0.0] = 0.0
    return out.reshape(d.shape)


def shrink(d: float, rule: ShrinkageRule) -> float:
    """Posterior mean E(theta | d) for a single coefficient."""
    if not np.isfinite(d):
        raise ValueError(f"coefficient must be finite, got {d!r}")
    return float(shrink_array(np.array([d]), rule)[0])


def shrink_vector(coeffs, rules: Mapping[int, ShrinkageRule], level_index) -> np.ndarray:
    """Apply each coefficient's per-level rule elementwise.

    ``level_index[i]`` names the resolution level of ``coeffs[i]``; every
    level that occurs must have a rule in ``rules``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    level_index = np.asarray(level_index, dtype=int)
    if coeffs.shape != level_index.shape:
        raise ValueError("coeffs and level_index must have equal length")
    out = np.empty_like(coeffs)
    for level in np.unique(level_index):
        if level not in rules:
            raise ValueError(f"no shrinkage rule configured for level {level}")
        mask = level_index == level
        out[mask] = shrink_array(coeffs[mask], rules[level])
    return out
