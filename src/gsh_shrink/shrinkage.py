"""The Bayes shrinkage rule: posterior mean of a wavelet coefficient under
the spike-and-GSH-slab prior and a Normal(theta, sigma^2) likelihood.

For an observed coefficient d,

    delta(d) = (1-alpha) * I1(d) / [ (alpha/sigma) phi(d/sigma) + (1-alpha) I0(d) ]

where I0 = E[g(sigma*U + d)], I1 = E[(sigma*U + d) g(sigma*U + d)] over
U ~ N(0, 1).  Both integrals share the same quadrature nodes.  Slab weights
are evaluated directly through g = (c1/tau)/(2 cosh(z) + 2a) while the
argument range permits, and in log space with a max shift beyond that, so
the ratio stays well conditioned out to |d| of order 100*sigma.  The nodes
are symmetric, so delta is odd: it is evaluated at |d| and given the sign
of d, which makes shrink_array(-d) == -shrink_array(d) bit for bit.

The direct weights are factorised: with z = k(d + sigma*u) and k = c2/tau,
2 cosh(z) = e^{kd} e^{k sigma u} + e^{-kd} e^{-k sigma u}.  Instead of a
cosh per (coefficient, node) pair, a block of coefficients costs two
exponentials per coefficient, one rank-3 matrix product for the
denominators, a reciprocal, and one matrix product that yields I0 and
J = (I1 - d I0)/sigma together.  Coefficients are processed in blocks small
enough for the work matrix to stay in cache.

Panel tables.  I0 and J are analytic in the strip |Im d| < rho, where rho
is the distance of the slab's poles from the real axis: (pi - |t|) tau/c2
for t < 0 and pi tau/c2 otherwise.  So |d| is cut into panels rho wide,
anchored at 0, and on each panel a 20-term Chebyshev series reproduces I0
and J to rounding level (the nearest pole lies two half-widths off the
panel; Trefethen, Approximation Theory and Approximation Practice, 2013).
A panel gets a table when it holds more coefficients than the table has
nodes and the direct branch is valid across it; the table costs 20 direct
evaluations, and each of its coefficients then takes two Clenshaw sums and
the exact point mass instead of a pass over the quadrature nodes.  That
pays off only for quadratures with many nodes (the trapezoid rules), so
Gauss-Hermite rules of up to 119 nodes never build tables.  Sparse panels,
the log-space region and inputs of at most 20 coefficients are evaluated
directly.  The series interpolate I0 and J, not delta: the denominator of
delta has complex zeros near the real axis, which a table of delta misses.

One kernel, kept.  Apart from alpha, which enters only the final ratio,
the sums depend on the slab, sigma and the quadrature alone.  A kernel per
such triple holds the nodes, the factorised weights and the tables built so
far, and the last kernel asked for is kept for the next call: a cache of
one.  The levels of one denoise call share sigma and, with a pooled t, the
slab; the risk curve and both Bayes risks of a rule share all three.  Tables
are built in aligned groups of block/20 consecutive panels, always whole, so
a panel's series has the same bits whatever the kernel evaluated before.
Whether a coefficient takes its panel's table still depends on its own
call alone.

Panels are counted and coefficients evaluated in chunks of a few thousand,
so no temporary grows with the input.  A table's delta agrees with the
direct evaluation within 1e-9 sigma (2.3e-10 sigma at worst, at the t
clamp), so shrink(x), which always evaluates directly, and the same x inside
a larger shrink_array call may differ by that much.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gsh_prior import GshParams, ShrinkagePrior, gsh_log_density
from .numerics import DENSE_QUAD, QuadratureSpec, gaussian_quad_nodes

#: Cap on elements of the (coefficients x nodes) work matrix per block:
#: 512 KB of doubles, so a block stays in a core's L2 cache.
_BLOCK_ELEMENTS = 65_536

#: Coefficients per chunk when panels are counted and evaluated, so that no
#: temporary grows with the input.
_CHUNK = 4096

#: Chebyshev points (of the first kind) per panel table.
_TABLE_NODES = 20

#: A table replaces one pass over the quadrature nodes per coefficient by
#: two Clenshaw sums over the table's nodes; that pays off only with at
#: least this many quadrature nodes per table node.  Measured, the two cost
#: the same near 5 (96-node Gauss-Hermite); 64 nodes, at 3.2, lose.
_MIN_QUAD_NODES_PER_TABLE_NODE = 6

#: Most panels counted per call; coefficients beyond them are evaluated
#: directly.
_MAX_PANELS = 16_384

#: Largest |z| = k |d + sigma u| at which slab weights are evaluated directly.
_Z_DIRECT = 600.0

_CHEB_ANGLES = np.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
#: Chebyshev points on [-1, 1], and the matrix taking values there to the
#: coefficients of sum_k c_k T_k (with c_0 already halved).
_CHEB_POINTS = np.cos(_CHEB_ANGLES)
_CHEB_TRANSFORM = (2.0 / _TABLE_NODES) * np.cos(
    np.outer(np.arange(_TABLE_NODES), _CHEB_ANGLES))
_CHEB_TRANSFORM[0] *= 0.5


@dataclass(frozen=True)
class ShrinkageRule:
    """Prior, noise standard deviation, and the quadrature used to apply it."""

    prior: ShrinkagePrior
    sigma: float
    quad: QuadratureSpec = DENSE_QUAD

    def __post_init__(self) -> None:
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")


class _Kernel:
    """The quadrature sums of one (slab, sigma, quadrature), evaluated at |d|,
    and the panel tables built for them so far.  alpha enters only through
    posterior_mean, so rules that differ in alpha alone share one kernel."""

    def __init__(self, p: GshParams, sigma: float, quad: QuadratureSpec):
        u, v = gaussian_quad_nodes(quad)
        self.u, self.log_v = u, np.log(v)
        self.sigma, self.p = sigma, p
        self.k = k = p.c2 / p.tau
        self.block = max(1, _BLOCK_ELEMENTS // u.size)
        self.u_reach = float(np.abs(u).max())
        self.direct_reachable = k * sigma * self.u_reach < _Z_DIRECT
        if self.direct_reachable:
            # node factors of the separable slab weights, and the
            # (nodes x 2) weights of I0 and J = (I1 - d I0)/sigma
            self.node_factors = np.stack([np.exp(k * sigma * u),
                                          np.exp(-k * sigma * u),
                                          np.ones_like(u)])
            self.weights = (p.c1 / p.tau) * np.stack([v, v * u], axis=1)
        # distance of the slab's poles from the real axis: I0 and J are
        # analytic in a strip of this half-width, which is the panel width
        self.rho = (np.pi - abs(p.t) if p.t < 0.0 else np.pi) / k
        # panels whose every node argument stays on the direct branch
        reach = (_Z_DIRECT / k - sigma * self.u_reach) / self.rho
        self.max_panels = int(min(max(reach, 0.0), _MAX_PANELS))
        # tables are built and kept in aligned groups of this many panels,
        # always whole, so a panel's series has the same bits in every call
        self.group = max(1, self.block // _TABLE_NODES)
        self.groups: dict[int, np.ndarray] = {}

    def integrals(self, x: np.ndarray) -> np.ndarray:
        """(I0, J) at each x on the direct branch, as an (x.size, 2) array.

        g = (c1/tau) / (2 cosh(k(x + sigma u)) + 2a) with 2 cosh(k(x + sigma
        u)) = e^{kx} e^{k sigma u} + e^{-kx} e^{-k sigma u}, so the whole
        denominator is one rank-3 product; no factor can overflow here and
        every slab weight stays positive.
        """
        row_factors = np.stack([np.exp(self.k * x), np.exp(-self.k * x),
                                np.full_like(x, 2.0 * self.p.a)], axis=1)
        slab = row_factors @ self.node_factors
        return np.reciprocal(slab, out=slab) @ self.weights

    def posterior_mean(self, x, i0, j, alpha: float) -> np.ndarray:
        """delta at x from I0 and J there, with the point mass exact."""
        sigma = self.sigma
        num = x * i0 + sigma * j
        if alpha > 0.0:
            point = (alpha / sigma) * np.exp(-0.5 * (x / sigma) ** 2) \
                / np.sqrt(2.0 * np.pi)
        else:
            point = 0.0
        return (1.0 - alpha) * num / (point + (1.0 - alpha) * i0)

    def direct(self, mag: np.ndarray, alpha: float) -> np.ndarray:
        """delta at each |d|, one pass over the quadrature nodes each."""
        out = np.empty_like(mag)
        for start in range(0, mag.size, self.block):
            dj = mag[start:start + self.block]
            if self.k * (dj.max(initial=0.0) + self.sigma * self.u_reach) < _Z_DIRECT:
                integrals = self.integrals(dj)
                out[start:start + self.block] = self.posterior_mean(
                    dj, integrals[:, 0], integrals[:, 1], alpha)
                continue
            # the log-space branch holds several (rows x nodes) temporaries
            # at once (six inside gsh_log_density), so it takes an eighth of a
            # block at a time
            stop, rows = start + dj.size, max(1, self.block // 8)
            for sub in range(start, stop, rows):
                end = min(sub + rows, stop)
                out[sub:end] = self.log_space(mag[sub:end], alpha)
        return out

    def log_space(self, dj: np.ndarray, alpha: float) -> np.ndarray:
        """delta at each |d| in log space with a max shift: for extreme
        coefficients the raw terms underflow while the ratio stays well
        conditioned."""
        sigma = self.sigma
        arg = dj[:, None] + sigma * self.u[None, :]
        s = gsh_log_density(arg, self.p) + self.log_v[None, :]
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
        return (1.0 - alpha) * num / (point + (1.0 - alpha) * den)

    def panel_of(self, mag: np.ndarray, count: int) -> np.ndarray:
        """Panel index of each |d|; count for any beyond the first count."""
        return np.fmin(mag / self.rho, count).astype(np.intp)

    def group_table(self, g: int) -> np.ndarray:
        """Chebyshev coefficients of the panels of group g, built on first use:
        a (nodes, 2, panels) array, the series of I0 and J in
        s = 2|d|/rho - (2 panel + 1), which spans [-1, 1]."""
        coefs = self.groups.get(g)
        if coefs is None:
            part = np.arange(g * self.group, min((g + 1) * self.group, self.max_panels))
            nodes = (part[:, None] + 0.5 + 0.5 * _CHEB_POINTS) * self.rho
            values = self.integrals(nodes.ravel()).reshape(part.size, _TABLE_NODES, 2)
            coefs = self.groups[g] = (_CHEB_TRANSFORM @ values).transpose(1, 2, 0)
        return coefs

    def tables(self, flat: np.ndarray):
        """(panel count, panel -> table row, Chebyshev coefficients) for the
        panels that hold more coefficients than a table has nodes, or None.

        The coefficients form a (nodes, 2, rows) array: the tables of every
        group that holds such a panel, side by side.
        """
        if (not self.direct_reachable or flat.size <= _TABLE_NODES
                or self.u.size < _MIN_QUAD_NODES_PER_TABLE_NODE * _TABLE_NODES):
            return None
        top = max(flat.max(initial=0.0), -flat.min(initial=0.0))
        count = int(min(self.max_panels, top / self.rho + 1.0))
        if count <= 0:
            return None
        held = np.zeros(count + 1, dtype=np.intp)
        for start in range(0, flat.size, _CHUNK):
            mag = np.abs(flat[start:start + _CHUNK])
            held += np.bincount(self.panel_of(mag, count), minlength=count + 1)
        panels = np.flatnonzero(held[:count] > _TABLE_NODES)
        if panels.size == 0:
            return None
        group_of = panels // self.group
        used = np.flatnonzero(np.bincount(group_of))
        # every group but the last possible one is self.group panels wide,
        # and that one can only come last
        row_of = np.full(count + 1, -1, dtype=np.intp)
        row_of[panels] = np.searchsorted(used, group_of) * self.group + panels % self.group
        coefs = np.concatenate([self.group_table(g) for g in used], axis=2)
        return count, row_of, coefs

    def tabled(self, mag: np.ndarray, tables, alpha: float) -> np.ndarray:
        """delta at each |d|: from its panel's table where it has one, and
        directly elsewhere."""
        count, row_of, coefs = tables
        panel = self.panel_of(mag, count)
        row = row_of[panel]
        hit = row >= 0
        out = np.empty_like(mag)
        rest = ~hit
        out[rest] = self.direct(mag[rest], alpha)
        x, row = mag[hit], row[hit]
        s = (2.0 / self.rho) * x - (2.0 * panel[hit] + 1.0)
        # Clenshaw's recurrence for both series at once
        s2 = 2.0 * s
        b1 = np.zeros((2, x.size))
        b2 = np.zeros((2, x.size))
        for c in coefs[:0:-1]:
            b0 = c.take(row, axis=1)
            b0 += s2 * b1
            b0 -= b2
            b1, b2 = b0, b1
        i0, j = coefs[0].take(row, axis=1) + s * b1 - b2
        out[hit] = self.posterior_mean(x, i0, j, alpha)
        return out


@functools.lru_cache(maxsize=1)
def _kernel(p: GshParams, sigma: float, quad: QuadratureSpec) -> _Kernel:
    """The kernel of the last (slab, sigma, quadrature) asked for: the levels
    of one denoise call, and the calls of one risk diagnosis, share it."""
    return _Kernel(p, sigma, quad)


def shrink_array(d, rule: ShrinkageRule) -> np.ndarray:
    """Vectorised posterior mean; the workhorse behind shrink."""
    d = np.asarray(d, dtype=float)
    alpha = rule.prior.alpha
    if alpha == 1.0:
        return np.zeros_like(d)
    kernel = _kernel(rule.prior.gsh, rule.sigma, rule.quad)
    flat = d.ravel()
    out = np.empty_like(flat)
    tables = kernel.tables(flat)
    for start in range(0, flat.size, _CHUNK):
        dj = flat[start:start + _CHUNK]
        mag = np.abs(dj)
        delta = kernel.direct(mag, alpha) if tables is None \
            else kernel.tabled(mag, tables, alpha)
        # the rule is odd; the numerator integrand is odd at d = 0, so the
        # posterior mean is exactly zero there: pin it to avoid rounding residue
        delta *= np.sign(dj)
        delta[dj == 0.0] = 0.0
        out[start:start + _CHUNK] = delta
    return out.reshape(d.shape)


def shrink(d: float, rule: ShrinkageRule) -> float:
    """Posterior mean E(theta | d) for a single coefficient."""
    if not np.isfinite(d):
        raise ValueError(f"coefficient must be finite, got {d!r}")
    return float(shrink_array(np.array([d]), rule)[0])

