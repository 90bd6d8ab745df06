"""Shared numerical kernels: Gaussian-expectation quadrature and seeded RNG.

Everything in here is pure given its inputs.  ``SeededRng`` values are cheap
to copy and may be handed to parallel workers with distinct stream ids; the
same (seed, stream_id) pair always reproduces the same draws.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

GAUSS_HERMITE = "gauss_hermite"
TRAPEZOID_ORACLE = "trapezoid_oracle"
_METHODS = (GAUSS_HERMITE, TRAPEZOID_ORACLE)

class DegenerateInputError(ValueError):
    """Input data carries no usable variation (e.g. a constant vector)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate a Gaussian expectation.

    ``gauss_hermite`` uses a ``node_count``-point Gauss-Hermite rule.
    ``trapezoid_oracle`` uses a composite trapezoid rule with
    ``oracle_points`` nodes on ``[mu - k*sigma, mu + k*sigma]`` where
    ``k = oracle_halfwidth``; for smooth, exponentially decaying integrands
    the trapezoid rule on such a window is superconvergent, which makes it
    both a slow reference estimator and a robust dense default.

    Gauss-Hermite converges only as fast as the integrand's nearest complex
    singularity allows.  The GSH slab density g has poles at distance

        rho = (pi - |t|) tau / c2  for t < 0,   rho = pi tau / c2  for t >= 0

    from the real axis (rho = 0.26 tau at t = -3, 0.52 tau at t = 10), and
    the error of an n-node rule on the posterior integrals behaves like
    exp(-2 (rho/sigma) sqrt(n)).  When rho/sigma is small the rule can miss
    by more than the posterior mean itself, so neither its sign nor
    |delta(d)| <= |d| is guaranteed (32 nodes give -0.27 where the
    posterior mean is +0.0038 at t = 0, tau = 0.25, sigma = 2, d = 0.25).
    ``DENSE_QUAD`` is the accurate path for posterior means.
    """

    node_count: int = 64
    method: str = GAUSS_HERMITE
    oracle_halfwidth: float = 10.0
    oracle_points: int = 20001

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.oracle_points < 2:
            raise ValueError("oracle_points must be >= 2")
        if self.method == TRAPEZOID_ORACLE and self.oracle_halfwidth < 6.0:
            raise ValueError("oracle_halfwidth must be >= 6 standard deviations")


#: Dense trapezoid rule used as the default for posterior-mean evaluation.
DENSE_QUAD = QuadratureSpec(method=TRAPEZOID_ORACLE, oracle_halfwidth=12.0,
                            oracle_points=2001)

#: Lighter trapezoid rule for bulk pipeline work (simulation cells).
PIPELINE_QUAD = QuadratureSpec(method=TRAPEZOID_ORACLE, oracle_halfwidth=10.0,
                               oracle_points=513)


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source: a 64-bit seed plus a 64-bit stream id.

    Materialises a counter-based Philox generator, so equal (seed,
    stream_id) pairs produce byte-identical streams across runs and
    platforms.  ``generator()`` always restarts the stream from the top.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream_id % 2**64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "SeededRng":
        """Same seed, different independent stream."""
        return SeededRng(self.seed, stream_id)


@functools.lru_cache(maxsize=None)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


def gaussian_quad_nodes(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal nodes u_i and weights v_i with E[h(Z)] = sum v_i h(mu + sigma*u_i).

    For the Gauss-Hermite method the weights sum to 1 exactly up to
    rounding; for the trapezoid method they sum to the (very slightly
    truncated) normal mass on the window.
    """
    if spec.method == GAUSS_HERMITE:
        x, w = _hermgauss(spec.node_count)
        return np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    k = spec.oracle_halfwidth
    u = np.linspace(-k, k, spec.oracle_points)
    step = u[1] - u[0]
    v = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi) * step
    v[0] *= 0.5
    v[-1] *= 0.5
    return u, v


def sample_normal(rng: SeededRng, mu: float, sigma: float, count: int) -> np.ndarray:
    """i.i.d. Normal(mu, sigma^2) draws, deterministic given (seed, stream_id)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return np.full(count, float(mu))
    return rng.generator().normal(mu, sigma, size=count)
