"""Spans around the program's public calls, and staged versions of the
pipeline that call each layer in turn under a span.

A span records a name, a start, an end and its parent; the name's prefix
before the first dot is the layer (``dwt.forward`` belongs to ``dwt``).
Spans stay in memory and are written out when the run ends.  The staged
functions call exactly the public functions the program's own composite
calls use, in the same order, so their results are bit-identical to
``denoise_detailed``, ``run_cell``, ``rule_moments`` and ``bayes_risk``.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from gsh_shrink import (AmseRecord, GshParams, ShrinkagePrior, ShrinkageRule,
                        daubechies_filter, elicit_all, estimate_sigma, forward,
                        gsh_density, gsh_sample, inverse, make_noisy_sample,
                        mse, shrink_array, sure_threshold, universal_threshold)
from gsh_shrink.experiments import cell_stream_id
from gsh_shrink.numerics import SeededRng, gaussian_quad_nodes
from gsh_shrink.risk_analysis import DEFAULT_MOMENT_QUAD

class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), math.nan, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def total_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def as_dict(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}


def node_count(rule: ShrinkageRule) -> int:
    return gaussian_quad_nodes(rule.quad)[0].size


def gsh_rules(hyper, quad, tr: Tracer) -> dict[int, ShrinkageRule]:
    with tr.span("gsh_prior.params"):
        return {j: ShrinkageRule(
                    prior=ShrinkagePrior(alpha=a, gsh=GshParams.make(hyper.tau, hyper.level_t(j))),
                    sigma=hyper.sigma_hat, quad=quad)
                for j, a in hyper.alpha_by_level.items()}


def shrink_level(d, rule: ShrinkageRule, tr: Tracer) -> np.ndarray:
    """shrink_array under a span; counts coefficients, node evaluations, sign
    flips and breaks of monotonicity (rows of a 2-d d ascend along the last axis)."""
    with tr.span("shrinkage.shrink"):
        out = shrink_array(d, rule)
    tr.count("shrinkage.coeffs", np.size(d))
    tr.count("shrinkage.node_evals", np.size(d) * node_count(rule))
    tr.count("shrinkage.sign_flips", np.count_nonzero(np.sign(out) * np.sign(d) < 0))
    ordered = out[np.argsort(d, kind="stable")] if out.ndim == 1 else out
    tr.count("shrinkage.order_violations", np.count_nonzero(np.diff(ordered, axis=-1) < 0))
    return out


def staged_denoise(y, method: str, cfg, tr: Tracer):
    """denoise_detailed, one public call per stage: (decomp, estimated, hyper, f_hat)."""
    y = np.asarray(y, dtype=float)
    with tr.span("dwt.forward"):
        decomp = forward(y, daubechies_filter(cfg.vanishing_moments),
                         cfg.elicitation.primary_level)
    tr.count("dwt.samples", y.size)
    with tr.span("elicitation.sigma"):
        sigma_hat = estimate_sigma(decomp.finest_detail)
    hyper = None
    if method == "gsh":
        with tr.span("elicitation.elicit"):
            hyper = elicit_all(decomp, cfg.elicitation)
        cfg_e = cfg.elicitation
        tr.count("elicitation.t_clamped", sum(
            hyper.level_t(j) in (cfg_e.t_min, cfg_e.t_max) for j in decomp.levels))
        rules = gsh_rules(hyper, cfg.quad, tr)
        est = {j: shrink_level(decomp.details[j], rules[j], tr) for j in decomp.levels}
    elif method in ("universal_hard", "universal_soft"):
        mode = "hard" if method == "universal_hard" else "soft"
        with tr.span("experiments.threshold"):
            est = {j: universal_threshold(decomp.details[j], sigma_hat, y.size, mode)
                   for j in decomp.levels}
    else:
        with tr.span("experiments.threshold"):
            est = {j: sure_threshold(decomp.details[j], sigma_hat) for j in decomp.levels}
    with tr.span("dwt.inverse"):
        f_hat = inverse(decomp.with_details(est))
    return decomp, est, hyper, f_hat


def staged_run_cell(cfg, function: str, n: int, snr: float, tr: Tracer) -> list[AmseRecord]:
    """run_cell with each replication's sampling and each method staged."""
    sigma = cfg.noise_sigma(snr)
    mses: dict[str, list[float]] = {m: [] for m in cfg.methods}
    for r in range(cfg.replications):
        tr.count("experiments.replications")
        with tr.span("signals.sample"):
            sample = make_noisy_sample(function, n, snr, sigma,
                                       SeededRng(cfg.base_seed, cell_stream_id(function, n, snr, r)))
        for m in cfg.methods:
            kind = "gsh" if m == "gsh" else "baseline"
            with tr.span(f"experiments.{kind}"):
                f_hat = staged_denoise(sample.y, m, cfg, tr)[3]
                mses[m].append(mse(f_hat, sample.f))
    records = []
    for m in cfg.methods:
        vals = np.array(mses[m])
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        records.append(AmseRecord(function=function, n=n, snr=snr, method=m,
                                  amse=float(np.mean(vals)), amse_std_error=se,
                                  replications=cfg.replications, base_seed=cfg.base_seed))
    return records


def staged_rule_moments(theta, rule: ShrinkageRule, tr: Tracer):
    """rule_moments: the shrink call under a shrinkage span, the sums under risk_analysis."""
    with tr.span("risk_analysis.rule_moments"):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        u, v = gaussian_quad_nodes(DEFAULT_MOMENT_QUAD)
        d = th[:, None] + rule.sigma * u[None, :]
        delta = shrink_level(d, rule, tr)
        m1 = delta @ v
        m2 = (delta * delta) @ v
        bias_sq = (m1 - th) ** 2
        variance = np.maximum(m2 - m1 * m1, 0.0)
    tr.count("risk_analysis.theta_points", th.size)
    return bias_sq, variance, bias_sq + variance


def staged_bayes_risk(rule: ShrinkageRule, tr: Tracer, mc_draws: int = 0,
                      rng: SeededRng | None = None, theta_points: int = 4801) -> tuple[float, float]:
    """bayes_risk by quadrature (mc_draws = 0) or Monte Carlo: (value, std error)."""
    alpha = rule.prior.alpha
    p = rule.prior.gsh
    risk0 = float(staged_rule_moments(0.0, rule, tr)[2][0])
    if mc_draws == 0:
        theta = np.linspace(-60.0 * p.tau, 60.0 * p.tau, theta_points)
        risk = staged_rule_moments(theta, rule, tr)[2]
        with tr.span("risk_analysis.integrate"):
            slab = float(np.trapezoid(risk * gsh_density(theta, p), theta))
        return alpha * risk0 + (1.0 - alpha) * slab, 0.0
    with tr.span("gsh_prior.sample"):
        theta = gsh_sample(rng, p, mc_draws)
    risk = staged_rule_moments(theta, rule, tr)[2]
    slab_mean = float(np.mean(risk))
    se = (1.0 - alpha) * float(np.std(risk, ddof=1)) / np.sqrt(mc_draws)
    return alpha * risk0 + (1.0 - alpha) * slab_mean, se
