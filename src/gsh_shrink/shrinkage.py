"""The Bayes shrinkage rule: posterior mean of a wavelet coefficient under
the spike-and-GSH-slab prior and a Normal(theta, sigma^2) likelihood.

For an observed coefficient d,

    delta(d) = (1-alpha) * I1(d) / [ (alpha/sigma) phi(d/sigma) + (1-alpha) I0(d) ]

where I0 = E[g(sigma*U + d)], I1 = E[(sigma*U + d) g(sigma*U + d)] over
U ~ N(0, 1).  Both integrals share the same quadrature nodes.  Slab weights
are evaluated directly through g = (c1/tau)/(2 cosh(z) + 2a) while the
argument range permits, and in log space with a max shift beyond that, so
the ratio stays well conditioned out to |d| of order 100*sigma.  Both take
delta from posterior_mean in one division, as (d I0 + sigma J)/(I0 + c
e^{-(d/sigma)^2/2}) with J = (I1 - d I0)/sigma and c = alpha/((1-alpha)
sigma sqrt(2 pi)); the log-space sums arrive scaled to I0 = 1, and their
log scale comes off the point mass's exponent.  The nodes are symmetric, so
delta is odd: it is evaluated at |d| and given the sign of d, which makes
shrink_array(-d) == -shrink_array(d) bit for bit.

Overflow.  shrink_array lets the kernel overflow silently, because every
overflow in it saturates to the right limit: where the point mass outweighs
the slab past a double's range it is inf and delta is 0; past |d| = 1.3e154
sigma (x/sigma)^2 is inf and the point mass 0; and a panel coordinate that
overflows is clamped to the panel count.  Invalid operations still warn.

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
A panel gets a table, under every quadrature, when it holds more
coefficients than the table has nodes and the direct branch is valid across
it; the table costs 20 direct evaluations.  What is kept is the panel's
series re-expanded on 8 sub-panels rho/8 wide, as 9-term series: the pole
lies 16 sub-panel half-widths off, so their terms decay like 32^-k and 9
reach about 1e-13 of scale.  They are kept in powers of the sub-panel's own
s on [-1, 1], which the fast decay keeps free of cancellation (powers of a
coordinate on [0, 1) cancel).  One constant (72 x 20) matrix, the 20-point
Chebyshev transform, that re-expansion and the integer map from Chebyshev
polynomials to powers, takes a panel's sums at its 20 Chebyshev points to
its sub-panel series, so a batch of panels is filled by one stacked matrix
product.  The series are complex, I0 in the real part and J in the
imaginary part, 1152 bytes a panel.  Each tabled coefficient then takes one
complex Horner sum of 9 terms, which has the bits of the two real ones, and
the exact point mass instead of a pass over the quadrature nodes.  Every
coefficient of a chunk is looked up; those whose panel has no table (sparse
panels, the log-space region) read a constant series there and are then
evaluated directly, as are inputs of at most 20 coefficients.  The series
interpolate I0 and J, not delta: the denominator of delta has complex zeros
near the real axis, which a table of delta misses.

Far panels.  For t < 0 the poles of I0 and J sit at Re d = -sigma u_i, so
within X0 = sigma max|u| of the origin.  Past X0 the sums are analytic in a
disc that grows with |d| - X0, so panels may widen there: beyond x1, the first
multiple of rho at least X0 + W/1.6, panels are W = max(rho, 2/k) wide.  The
first far panel's centre is then 2.25 half-widths from the nearest pole, so
its 20-term series decays like 4.3^-k, and its sub-panels' edge lies 10
sub-panel half-widths from the pole, so their 9-term series decay like
20^-k; farther panels do better.  Across a panel I0 changes by about e^{kW},
which W = 2/k holds at e^2.  Only for t < 2 - pi is 2/k wider than rho;
elsewhere there is no far zone.  One panel coordinate serves counting, table
nodes and lookup: the smaller of |d|/rho and n1 + (|d| - x1)/W, with
n1 = x1/rho, two lines that cross at x1.

One kernel, kept.  Apart from alpha, which enters only the final ratio,
the sums depend on the slab, sigma and the quadrature alone.  A kernel per
such triple holds the nodes, the factorised weights and the tables built so
far, and the last kernel asked for is kept for the next call: a cache of
one.  The levels of one denoise call share sigma and, with a pooled t, the
slab; the risk curve and both Bayes risks of a rule share all three.  A
call fills the dense panels that have no table yet, in batches of at most
block/20 panels, and keeps them side by side in one array.  Each panel's
sums at its 20 nodes are a stacked product of their own, so its series has
the same bits whatever batch it was filled in and whatever the kernel
evaluated before.  Whether a coefficient takes its panel's table still
depends on its own call alone.  A directly evaluated coefficient's last
bits, by contrast, still depend on which coefficients share its block: the
BLAS product rounds a row by where it falls in the block.

Panels are counted and coefficients evaluated in chunks of a few thousand,
so no temporary grows with the input.  A table's delta agrees with the
direct evaluation within 1e-9 sigma (4.5e-10 sigma at worst, 32-node
Gauss-Hermite at the t clamp), so shrink(x), which always evaluates
directly, and the same x inside a larger shrink_array call may differ by
that much.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gsh_prior import GshParams, ShrinkagePrior, gsh_log_density
from .numerics import DENSE_QUAD, QuadratureSpec, gaussian_quad_nodes, require_finite

#: Cap on elements of the (coefficients x nodes) work matrix per block:
#: 512 KB of doubles, so a block stays in a core's L2 cache.
_BLOCK_ELEMENTS = 65_536

#: Coefficients per chunk when panels are counted and evaluated, so that no
#: temporary grows with the input.
_CHUNK = 4096

#: Chebyshev points (of the first kind) per panel table.
_TABLE_NODES = 20

#: Most panels counted per call; coefficients beyond them are evaluated
#: directly.
_MAX_PANELS = 16_384

#: The far zone starts at least W/_FAR_MARGIN past the last pole of the
#: quadrature sums, 10 sub-panel half-widths.
_FAR_MARGIN = 1.6

#: Largest |z| = k |d + sigma u| at which slab weights are evaluated directly.
_Z_DIRECT = 600.0

#: Each panel's series is re-expanded on this many sub-panels of equal width,
#: as a series of _SUB_NODES terms each.  The integrands' nearest pole lies
#: 16 sub-panel half-widths off the real axis, so the sub-panel series decay
#: like (16 + sqrt(257))^-k, about 32^-k.
_SUB_PANELS = 8
_SUB_NODES = 9


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points (of the first kind) on [-1, 1], and the matrix
    taking values there to the coefficients of sum_k c_k T_k (with c_0
    already halved)."""
    angles = np.pi * (np.arange(n) + 0.5) / n
    transform = (2.0 / n) * np.cos(np.outer(np.arange(n), angles))
    transform[0] *= 0.5
    return np.cos(angles), transform


_CHEB_POINTS, _CHEB_TRANSFORM = _chebyshev(_TABLE_NODES)


def _sub_expansion() -> np.ndarray:
    """The (_SUB_PANELS * _SUB_NODES, _TABLE_NODES) matrix taking the values
    at a panel's Chebyshev points to its sub-panels' series: the panel's
    20-term series, re-expanded.  Row _SUB_NODES * m + q gives the
    coefficient of s^q on sub-panel m, in the sub-panel's own s on [-1, 1]."""
    points, transform = _chebyshev(_SUB_NODES)
    # column k holds the integer coefficients of T_k in powers of s
    power = np.eye(_SUB_NODES)
    for k in range(2, _SUB_NODES):
        power[1:, k] = 2.0 * power[:-1, k - 1]
        power[:, k] -= power[:, k - 2]
    centres = (2.0 * np.arange(_SUB_PANELS) + 1.0) / _SUB_PANELS - 1.0
    s = centres[:, None] + points / _SUB_PANELS
    # T_k at each sub-panel's Chebyshev points, (panel, point, k)
    t_k = np.cos(np.arccos(s)[..., None] * np.arange(_TABLE_NODES))
    series = ((power @ transform) @ t_k).reshape(_SUB_PANELS * _SUB_NODES, _TABLE_NODES)
    return series @ _CHEB_TRANSFORM


_SUB_EXPANSION = _sub_expansion()


def _horner(series: np.ndarray, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k series[k, rows] s^k by Horner's rule, for complex series and
    real s.  A product with a complex number of zero imaginary part is exact
    in each part, so each part has the bits of its own real Horner sum."""
    s = s.astype(complex)
    out = series[-1].take(rows)
    for c in series[-2::-1]:
        out *= s
        out += c.take(rows)
    return out


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
        if k * sigma * self.u_reach < _Z_DIRECT:
            # node factors of the separable slab weights, and the
            # (nodes x 2) weights of I0 and J = (I1 - d I0)/sigma
            self.node_factors = np.stack([np.exp(k * sigma * u),
                                          np.exp(-k * sigma * u),
                                          np.ones_like(u)])
            self.weights = (p.c1 / p.tau) * np.stack([v, v * u], axis=1)
        # distance of the slab's poles from the real axis: I0 and J are
        # analytic in a strip of this half-width, which is the panel width
        self.rho = (np.pi - abs(p.t) if p.t < 0.0 else np.pi) / k
        # the far zone: past x1 = n1 rho, panels are width wide.  Only for
        # t < 2 - pi is 2/k wider than rho; otherwise x1 is infinite
        self.width = max(self.rho, 2.0 / k)
        self.n1 = np.inf
        if self.width > self.rho:
            self.n1 = np.ceil((sigma * self.u_reach + self.width / _FAR_MARGIN) / self.rho)
        self.x1 = self.n1 * self.rho
        # panels whose every node argument stays on the direct branch
        reach = self.coordinate(np.array([_Z_DIRECT / k - sigma * self.u_reach]))[0]
        self.max_panels = int(min(max(reach, 0.0), _MAX_PANELS))
        # each dense panel's sub-panel series are built once and kept, side by
        # side in one complex array, I0 in the real part and J in the
        # imaginary part; first[p] is the column where panel p's begin, or 0
        # while it has none.  They follow _SUB_PANELS columns of the constant
        # series 1, which coefficients without a table read, so that every
        # lookup is finite.  Panels are filled in batches of at most batch,
        # which keeps the work matrix at a block's size
        self.batch = max(1, self.block // _TABLE_NODES)
        self.first = np.zeros(self.max_panels, dtype=np.intp)
        self.series = np.zeros((_SUB_NODES, _SUB_PANELS), dtype=complex)
        self.series[0] = 1.0

    def integrals(self, x: np.ndarray) -> np.ndarray:
        """(I0, J) at each x on the direct branch, as an (*x.shape, 2) array.

        g = (c1/tau) / (2 cosh(k(x + sigma u)) + 2a) with 2 cosh(k(x + sigma
        u)) = e^{kx} e^{k sigma u} + e^{-kx} e^{-k sigma u}, so the whole
        denominator is one rank-3 product; no factor can overflow here and
        every slab weight stays positive.  The row factors stack on the last
        axis, so a (P, r) x is P products of r rows each.
        """
        row_factors = np.stack([np.exp(self.k * x), np.exp(-self.k * x),
                                np.full_like(x, 2.0 * self.p.a)], axis=-1)
        slab = row_factors @ self.node_factors
        return np.reciprocal(slab, out=slab) @ self.weights

    def posterior_mean(self, x, i0, j, alpha: float, log_scale=None) -> np.ndarray:
        """delta at x from I0 and J there, in one division with the point mass
        exact (module docstring).  The sums may be given divided by
        e^log_scale; the point mass then is too."""
        sigma = self.sigma
        num = x * i0
        num += sigma * j
        if alpha == 0.0:
            return np.divide(num, i0, out=num)
        # (x/sigma)^2 is scale-free; x^2/sigma^2 underflows at tiny sigma
        den = x / sigma
        den *= den
        den *= -0.5
        if log_scale is not None:
            den -= log_scale
        np.exp(den, out=den)
        den *= alpha / (1.0 - alpha) / (sigma * np.sqrt(2.0 * np.pi))
        den += i0
        return np.divide(num, den, out=num)

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
        """delta at each |d| from log-space weights with a max shift: for
        extreme coefficients the raw terms underflow while the ratio stays
        well conditioned.  The sums go to posterior_mean scaled to I0 = 1,
        with J = E[u | d], so no sum grows past |d|."""
        sigma = self.sigma
        # past |d| = max/(2k), k |d + sigma u| would overflow and every log
        # weight be -inf.  So far out the weights are the exponential tail's,
        # v e^{-k sigma u} up to a factor, whatever d, so they are taken there
        at = np.fmin(dj, np.finfo(float).max / (2.0 * self.k))
        s = gsh_log_density(at[:, None] + sigma * self.u[None, :], self.p)
        s += self.log_v[None, :]
        shift = s.max(axis=1)
        s -= shift[:, None]
        w = np.exp(s, out=s)
        den = w.sum(axis=1)
        return self.posterior_mean(dj, 1.0, (w @ self.u) / den, alpha,
                                   shift + np.log(den))

    def coordinate(self, mag: np.ndarray) -> np.ndarray:
        """The panel coordinate of each |d|: the smaller of |d|/rho and n1 +
        (|d| - x1)/width, which cross at x1, so panel p spans [p, p + 1)."""
        c = mag / self.rho
        if self.x1 < np.inf and mag.max(initial=0.0) > self.x1:
            far = mag / self.width
            far += self.n1 - self.x1 / self.width
            np.fmin(c, far, out=c)
        return c

    def sub_panel_series(self, panels: np.ndarray) -> np.ndarray:
        """The series of the given panels on their sub-panels: a (sub-panel
        nodes, panels.size * _SUB_PANELS) complex array, column _SUB_PANELS * i
        + m the series of I0 + iJ on sub-panel m of panels[i].  A panel's own
        nodes are its Chebyshev points in s = 2 (coordinate - panel) - 1,
        which spans [-1, 1], and its sums are a product of their own."""
        c = panels[:, None] + 0.5 + 0.5 * _CHEB_POINTS
        nodes = c * self.rho
        if panels.max() >= self.n1:
            nodes = np.fmax(nodes, self.x1 + (c - self.n1) * self.width)
        sub = (_SUB_EXPANSION @ self.integrals(nodes)).reshape(
            panels.size, _SUB_PANELS, _SUB_NODES, 2)
        series = np.empty((_SUB_NODES, panels.size, _SUB_PANELS), dtype=complex)
        series.real = sub[..., 0].transpose(2, 0, 1)
        series.imag = sub[..., 1].transpose(2, 0, 1)
        return series.reshape(_SUB_NODES, -1)

    def tables(self, flat: np.ndarray):
        """(panel count, sub-panel -> its column in self.series), when some
        panel holds more coefficients than a table has nodes; else None.
        Sub-panel m of panel p is entry _SUB_PANELS * p + m, and the
        sub-panels of panels without a table in this call map to the
        constant columns.  Dense panels that have no table yet get one."""
        if flat.size <= _TABLE_NODES:
            return None
        top = max(flat.max(initial=0.0), -flat.min(initial=0.0))
        count = int(min(self.max_panels, self.coordinate(np.array([top]))[0] + 1.0))
        held = np.zeros(count + 1, dtype=np.intp)
        for start in range(0, flat.size, _CHUNK):
            c = self.coordinate(np.abs(flat[start:start + _CHUNK]))
            held += np.bincount(np.fmin(c, count, out=c).astype(np.intp),
                                minlength=count + 1)
        panels = np.flatnonzero(held[:count] > _TABLE_NODES)
        if panels.size == 0:
            return None
        new = panels[self.first[panels] == 0]
        if new.size:
            fills = [self.sub_panel_series(new[i:i + self.batch])
                     for i in range(0, new.size, self.batch)]
            self.first[new] = self.series.shape[1] + _SUB_PANELS * np.arange(new.size)
            self.series = np.concatenate([self.series, *fills], axis=1)
        first = np.zeros(count + 1, dtype=np.intp)
        first[panels] = self.first[panels]
        return count, (first[:, None] + np.arange(_SUB_PANELS)).ravel()

    def tabled(self, mag: np.ndarray, tables, alpha: float) -> np.ndarray:
        """delta at each |d|: every |d| is looked up in its sub-panel's series,
        and those whose panel has no table are then evaluated directly."""
        count, column_of = tables
        # _SUB_PANELS times the coordinate is exact, and so are its floor, the
        # sub-panel, and the position within it; coefficients beyond the last
        # panel read sub-panel 0 of panel count at s = -1
        c = np.fmin(self.coordinate(mag), count)
        c *= _SUB_PANELS
        sub = np.floor(c)
        c -= sub
        c *= 2.0
        c -= 1.0
        columns = column_of.take(sub.astype(np.intp))
        sums = _horner(self.series, columns, c)
        out = self.posterior_mean(mag, sums.real, sums.imag, alpha)
        miss = np.flatnonzero(columns < _SUB_PANELS)
        if miss.size:
            out[miss] = self.direct(mag[miss], alpha)
        return out


@functools.lru_cache(maxsize=1)
def _kernel(p: GshParams, sigma: float, quad: QuadratureSpec) -> _Kernel:
    """The kernel of the last (slab, sigma, quadrature) asked for: the levels
    of one denoise call, and the calls of one risk diagnosis, share it."""
    return _Kernel(p, sigma, quad)


def shrink_array(d, rule: ShrinkageRule) -> np.ndarray:
    """Vectorised posterior mean; the workhorse behind shrink.  Raises
    ValueError, naming the first one, on coefficients that are not finite."""
    d = np.asarray(d, dtype=float)
    require_finite(d, "coefficients")
    alpha = rule.prior.alpha
    if alpha == 1.0:
        return np.zeros_like(d)
    kernel = _kernel(rule.prior.gsh, rule.sigma, rule.quad)
    flat = d.ravel()
    out = np.empty_like(flat)
    # every overflow in the kernel saturates to the right limit (see the
    # module docstring); an invalid operation still warns
    with np.errstate(over="ignore"):
        tables = kernel.tables(flat)
        for start in range(0, flat.size, _CHUNK):
            dj = flat[start:start + _CHUNK]
            mag = np.abs(dj)
            delta = kernel.direct(mag, alpha) if tables is None \
                else kernel.tabled(mag, tables, alpha)
            # the rule is odd; the numerator integrand is odd at d = 0, so the
            # posterior mean is exactly zero there: pin it to avoid rounding residue
            part = np.multiply(delta, np.sign(dj), out=out[start:start + _CHUNK])
            part[dj == 0.0] = 0.0
    return out.reshape(d.shape)


def shrink(d: float, rule: ShrinkageRule) -> float:
    """Posterior mean E(theta | d) for a single coefficient."""
    return float(shrink_array(np.array([d]), rule)[0])

