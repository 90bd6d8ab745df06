import math

import numpy as np

from gsh_shrink.gsh_prior import GshParams, gsh_density

#: Cap on elements of the (coefficients x theta nodes) matrix per block.
_ORACLE_BLOCK_ELEMENTS = 1_000_000

#: Theta nodes per coefficient in the risk oracles: a 0.006 sigma step on
#: |theta - d| <= 12 sigma, where the trapezoid error exp(-2 pi rho / step)
#: is negligible for every slab shape exercised.
_RISK_ORACLE_POINTS = 4001


def _oracle_integrals(d, alpha, p, sigma, halfwidth, points):
    """Posterior numerator and marginal density of d by a dense theta trapezoid.

    For each d, integrates over |theta - d| <= halfwidth * sigma:
    num(d) = (1 - alpha) int theta g(theta) phi_sigma(d - theta) dtheta and
    m(d) = alpha phi_sigma(d) + (1 - alpha) int g(theta) phi_sigma(d - theta)
    dtheta, with the point mass entering analytically.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    u = np.linspace(-halfwidth, halfwidth, points)
    norm = sigma * np.sqrt(2 * np.pi)
    num = np.empty(d.shape)
    den = np.empty(d.shape)
    block = max(1, _ORACLE_BLOCK_ELEMENTS // points)
    for start in range(0, d.size, block):
        db = d[start:start + block]
        theta = db[:, None] + sigma * u[None, :]
        slab = (1.0 - alpha) * gsh_density(theta, p) \
            * np.exp(-0.5 * ((db[:, None] - theta) / sigma) ** 2) / norm
        num[start:start + block] = np.trapezoid(theta * slab, theta, axis=1)
        spike = alpha * np.exp(-0.5 * (db / sigma) ** 2) / norm
        den[start:start + block] = spike + np.trapezoid(slab, theta, axis=1)
    return num, den


def oracle_posterior_mean(d, alpha, tau, t, sigma,
                          halfwidth=12.0, points=40001):
    """Independent reference for the shrinkage rule.

    Integrates the posterior directly over theta on |theta - d| <=
    halfwidth * sigma with a dense trapezoid rule; the point mass enters
    analytically.  ``d`` may be a scalar or an array.
    """
    num, den = _oracle_integrals(d, alpha, GshParams.make(tau, t), sigma,
                                 halfwidth, points)
    out = num / den
    return out if np.ndim(d) else float(out[0])


def oracle_classical_risk(theta, alpha, tau, t, sigma):
    """R(theta) = E[(delta(d) - theta)^2], d ~ N(theta, sigma^2), from the oracle.

    The outer expectation is a trapezoid over |d - theta| <= 10 sigma (401
    points) of the oracle posterior mean; no code of the rule or of the risk
    module is involved.
    """
    d = np.linspace(theta - 10.0 * sigma, theta + 10.0 * sigma, 401)
    delta = oracle_posterior_mean(d, alpha, tau, t, sigma,
                                  points=_RISK_ORACLE_POINTS)
    weight = np.exp(-0.5 * ((d - theta) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    return float(np.trapezoid((delta - theta) ** 2 * weight, d))


def oracle_bayes_risk(alpha, tau, t, sigma):
    """Bayes risk of the exact posterior mean through the Bayes-rule identity.

    For the posterior mean, E[(delta - theta)^2] = E[theta^2] - E[delta^2],
    and E[theta^2] = (1 - alpha) tau^2 under the spike-and-slab prior, so

        r = (1 - alpha) tau^2 - int delta(d)^2 m(d) dd,

    with delta = num/m and the marginal m from the oracle integrals; the
    d-integral is a trapezoid with step 0.1 over |d| <= 60 tau + 10 sigma.
    """
    half = 60.0 * tau + 10.0 * sigma
    d = np.linspace(-half, half, int(round(20.0 * half)) + 1)
    num, den = _oracle_integrals(d, alpha, GshParams.make(tau, t), sigma,
                                 12.0, _RISK_ORACLE_POINTS)
    return (1.0 - alpha) * tau**2 - float(np.trapezoid(num**2 / den, d))


def gsh_pole_distance(p: GshParams) -> float:
    """Distance rho from the real theta axis to the nearest pole of g.

    g = (c1/tau) / (2 cosh(z) + 2a) with z = c2 theta / tau has poles where
    cosh(z) = -a: at Im z = pi - |t| for t < 0 (a = cos t) and at
    Im z = pi for t >= 0 (a = cosh t).  A Gauss-Hermite rule with n nodes
    applied to the posterior integrals errs like exp(-2 (rho/sigma) sqrt(n)).
    """
    return (math.pi - abs(min(p.t, 0.0))) * p.tau / p.c2


def oracle_gsh_integral(fn, tau, t, half_range=60.0, points=200001):
    """Dense trapezoid of fn(theta) * g(theta) over |theta| <= 60 tau."""
    p = GshParams.make(tau, t)
    theta = np.linspace(-half_range * tau, half_range * tau, points)
    return np.trapezoid(fn(theta) * gsh_density(theta, p), theta)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def oracle_gsh_cdf(theta, tau, t):
    """Independent reference for the GSH CDF by graded Gauss-Legendre panels.

    F(theta) = 1/2 + sign(theta) * int_0^|theta| g, with g written out here
    from the density formula (no code of gsh_shrink).  The 20-node panels are
    at most tau wide and at most half as wide as the distance from their inner
    end to the nearest complex pole of g: for t < 0 the poles sit
    rho = (pi - |t|) tau / c2 above theta = 0, so the panels narrow to ~rho/2
    there and widen geometrically away from it; for t >= 0 every point is at
    least pi tau / c2 from a pole.  The partial panel that ends at |theta|
    gets its own rule.
    """
    theta = np.asarray(theta, dtype=float)
    if t == 0.0:
        one_plus_a, c2 = 2.0, math.pi / math.sqrt(3.0)
        c1 = c2
    elif t < 0.0:
        # 1 + cos t = 2 cos^2(t/2) keeps its digits as t -> -pi
        one_plus_a = 2.0 * math.cos(t / 2.0) ** 2
        c2 = math.sqrt((math.pi - t) * (math.pi + t) / 3.0)
        c1 = math.sin(t) / t * c2
    else:
        one_plus_a = 1.0 + math.cosh(t)
        c2 = math.sqrt((math.pi**2 + t * t) / 3.0)
        c1 = math.sinh(t) / t * c2
    rho = (math.pi - abs(min(t, 0.0))) * tau / c2

    def density(x):
        # g = (c1/tau) e^{-|z|} / ((1 - e^{-|z|})^2 + 2 (1 + a) e^{-|z|})
        e = np.exp(-c2 * np.abs(x) / tau)
        return (c1 / tau) * e / (np.expm1(-c2 * np.abs(x) / tau) ** 2
                                 + 2.0 * one_plus_a * e)

    def panels(lo, hi):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return half * (density(mid[:, None] + half[:, None] * _GL_X) @ _GL_W)

    reach = float(np.max(np.abs(theta), initial=0.0))
    edges = [0.0]
    while edges[-1] < reach:
        dist = math.hypot(edges[-1], rho) if t < 0.0 else rho
        edges.append(edges[-1] + min(tau, 0.5 * dist))
    edges = np.asarray(edges)
    cum = np.concatenate([[0.0], np.cumsum(panels(edges[:-1], edges[1:]))])
    mag = np.abs(theta).ravel()
    k = np.searchsorted(edges, mag, side="right") - 1
    half_mass = (cum[k] + panels(edges[k], mag)).reshape(theta.shape)
    return 0.5 + np.sign(theta) * half_mass
