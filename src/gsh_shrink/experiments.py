"""Simulation harness: GSH rule versus thresholding baselines on the
Donoho-Johnstone test functions, with averaged-MSE bookkeeping.

Each cell of the study fixes (function, n, SNR).  The test signal is
rescaled once so its 1/n-normalised standard deviation equals
``signal_sd`` (7 by convention, i.e. unit noise at SNR 7) and the noise
level is sigma = signal_sd / snr, so sd(f)/sigma = snr holds exactly while
the signal amplitude stays comparable across SNR levels.  Within one
replication every method sees the identical noisy vector (paired design);
replication streams are derived by hashing the cell coordinates, which
makes every cell independently reproducible.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .dwt import WaveletDecomposition, daubechies_filter, forward, inverse
from .elicitation import (ElicitationConfig, ElicitedHyperparams, elicit_all,
                          estimate_sigma)
from .gsh_prior import GshParams, ShrinkagePrior
from .numerics import (DegenerateInputError, PIPELINE_QUAD, QuadratureSpec, SeededRng,
                       require_finite)
from .shrinkage import ShrinkageRule, shrink_array
from .signals import FUNCTION_NAMES, make_noisy_sample

GSH = "gsh"
UNIVERSAL_HARD = "universal_hard"
UNIVERSAL_SOFT = "universal_soft"
SURE = "sure"
METHODS = (GSH, UNIVERSAL_HARD, UNIVERSAL_SOFT, SURE)

#: Fixed signal amplitude: sd(f) in units of the SNR-7 noise level.
SIGNAL_SD = 7.0


@dataclass(frozen=True)
class ExperimentConfig:
    functions: tuple[str, ...] = FUNCTION_NAMES
    sizes: tuple[int, ...] = (512, 1024, 2048)
    snrs: tuple[float, ...] = (3.0, 5.0, 7.0)
    replications: int = 20
    methods: tuple[str, ...] = (GSH, UNIVERSAL_SOFT)
    base_seed: int = 20260809
    elicitation: ElicitationConfig = field(default_factory=ElicitationConfig)
    vanishing_moments: int = 10
    signal_sd: float = SIGNAL_SD
    quad: ClassVar[QuadratureSpec] = PIPELINE_QUAD

    def __post_init__(self) -> None:
        if not self.functions or not self.sizes or not self.snrs or not self.methods:
            raise ValueError("functions, sizes, snrs and methods must be nonempty")
        for name in self.functions:
            if name not in FUNCTION_NAMES:
                raise ValueError(f"unknown test function {name!r}")
        for n in self.sizes:
            if n < 2 or n & (n - 1):
                raise ValueError(f"sizes must be powers of two, got {n}")
            if n < 2 ** (self.elicitation.primary_level + 1):
                raise ValueError(
                    f"size {n} is too short for primary level "
                    f"{self.elicitation.primary_level}: need at least "
                    f"{2 ** (self.elicitation.primary_level + 1)}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        for snr in self.snrs:
            if not (math.isfinite(snr) and snr > 0):
                raise ValueError(f"snrs must be finite and > 0, got {snr}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        daubechies_filter(self.vanishing_moments)  # raises for an unknown filter
        if not (math.isfinite(self.signal_sd) and self.signal_sd > 0):
            raise ValueError(f"signal_sd must be finite and > 0, got {self.signal_sd}")

    def noise_sigma(self, snr: float) -> float:
        return self.signal_sd / snr


@dataclass(frozen=True)
class AmseRecord:
    function: str
    n: int
    snr: float
    method: str
    amse: float
    amse_std_error: float
    replications: int
    base_seed: int


def mse(f_hat, f) -> float:
    """Mean squared componentwise difference."""
    f_hat = np.asarray(f_hat, dtype=float)
    f = np.asarray(f, dtype=float)
    if f_hat.shape != f.shape:
        raise ValueError(f"length mismatch: {f_hat.shape} vs {f.shape}")
    return float(np.mean((f_hat - f) ** 2))


def universal_threshold(coeffs, sigma: float, n: int, mode: str = "hard") -> np.ndarray:
    """Threshold at lambda = sigma * sqrt(2 log n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
    d = np.asarray(coeffs, dtype=float)
    lam = sigma * np.sqrt(2.0 * np.log(n))
    if mode == "hard":
        return np.where(np.abs(d) > lam, d, 0.0)
    return np.sign(d) * np.maximum(np.abs(d) - lam, 0.0)


def sure_threshold(level_coeffs, sigma: float) -> np.ndarray:
    """Per-level soft threshold minimising Stein's unbiased risk estimate.

    Candidates are the sigma-standardised magnitudes (plus zero), capped at
    sqrt(2 log n) for the level length n; for standardised data y the
    criterion is SURE(lam) = n - 2 #{|y| <= lam} + sum min(y^2, lam^2).
    """
    d = np.asarray(level_coeffs, dtype=float)
    if d.size == 0:
        raise ValueError("level must be nonempty")
    if sigma <= 0:
        return d.copy()
    x = np.abs(d) / sigma
    n = x.size
    cap = np.sqrt(2.0 * np.log(n))
    xs = np.sort(x)
    # zero, the distinct magnitudes up to the cap, and the cap, in order
    candidates = np.concatenate([[0.0], xs[:np.searchsorted(xs, cap, side="right")], [cap]])
    candidates = candidates[np.concatenate([[True], candidates[1:] != candidates[:-1]])]
    sq_prefix = np.concatenate([[0.0], np.cumsum(xs * xs)])
    counts = np.searchsorted(xs, candidates, side="right")
    risk = (n - 2.0 * counts + sq_prefix[counts]
            + (n - counts) * candidates**2)
    lam = candidates[int(np.argmin(risk))] * sigma
    return np.sign(d) * np.maximum(np.abs(d) - lam, 0.0)


@dataclass(frozen=True)
class DenoiseResult:
    f_hat: np.ndarray
    decomposition: WaveletDecomposition
    estimated: WaveletDecomposition
    sigma_hat: float
    method: str
    hyperparams: ElicitedHyperparams | None = None


def _gsh_rules(hyper: ElicitedHyperparams, quad: QuadratureSpec) -> dict[int, ShrinkageRule]:
    rules = {}
    for j, alpha in hyper.alpha_by_level.items():
        prior = ShrinkagePrior(alpha=alpha,
                               gsh=GshParams.make(hyper.tau, hyper.level_t(j)))
        rules[j] = ShrinkageRule(prior=prior, sigma=hyper.sigma_hat, quad=quad)
    return rules


def denoise_detailed(y, method: str, cfg: ExperimentConfig | None = None) -> DenoiseResult:
    """Forward transform, per-method coefficient estimation, reconstruction.

    Scaling coefficients always pass through untouched.  Degenerate inputs
    (no detail variation, or zero estimated noise) come back unshrunk; a
    sample that is not finite raises ValueError naming the first one.
    """
    cfg = cfg if cfg is not None else ExperimentConfig()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    y = np.asarray(y, dtype=float)
    require_finite(y, "samples")
    return _estimate(_transform(y, cfg), method, cfg)


def _transform(y: np.ndarray, cfg: ExperimentConfig) -> WaveletDecomposition:
    return forward(y, daubechies_filter(cfg.vanishing_moments), cfg.elicitation.primary_level)


def _estimate(decomp: WaveletDecomposition, method: str,
              cfg: ExperimentConfig) -> DenoiseResult:
    """One method's estimate and reconstruction from a forward transform,
    which it leaves unchanged, so the methods of a replication can share it."""
    levels = decomp.levels
    hyper = None
    if method == GSH:
        try:
            hyper = elicit_all(decomp, cfg.elicitation)
        except DegenerateInputError:
            pass
    # the elicitation has already taken the MAD scale of the finest level
    sigma_hat = estimate_sigma(decomp.finest_detail) if hyper is None else hyper.sigma_hat
    if sigma_hat == 0.0:
        hyper = None

    estimated: dict[int, np.ndarray]
    if method == GSH:
        if hyper is None:
            estimated = {j: decomp.details[j].copy() for j in levels}
        else:
            rules = _gsh_rules(hyper, cfg.quad)
            estimated = {j: shrink_array(decomp.details[j], rules[j])
                         for j in levels}
    elif method in (UNIVERSAL_HARD, UNIVERSAL_SOFT):
        mode = "hard" if method == UNIVERSAL_HARD else "soft"
        estimated = {
            j: universal_threshold(decomp.details[j], sigma_hat, decomp.n, mode)
            for j in levels
        }
    else:  # SURE
        estimated = {
            j: sure_threshold(decomp.details[j], sigma_hat) for j in levels
        }

    est = decomp.with_details(estimated)
    return DenoiseResult(f_hat=inverse(est), decomposition=decomp, estimated=est,
                         sigma_hat=sigma_hat, method=method, hyperparams=hyper)


def denoise(y, method: str, cfg: ExperimentConfig | None = None) -> np.ndarray:
    return denoise_detailed(y, method, cfg).f_hat


def cell_stream_id(function: str, n: int, snr: float, replication: int) -> int:
    """Stable 64-bit stream id for one replication of one cell."""
    msg = f"{function}|{n}|{snr!r}|{replication}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "big")


def run_cell(cfg: ExperimentConfig, function: str, n: int,
             snr: float) -> list[AmseRecord]:
    """All replications and methods of a single (function, n, snr) cell."""
    sigma = cfg.noise_sigma(snr)
    mses: dict[str, list[float]] = {m: [] for m in cfg.methods}
    for r in range(cfg.replications):
        rng = SeededRng(cfg.base_seed, cell_stream_id(function, n, snr, r))
        sample = make_noisy_sample(function, n, snr, sigma, rng)
        decomp = _transform(sample.y, cfg)
        for m in cfg.methods:
            mses[m].append(mse(_estimate(decomp, m, cfg).f_hat, sample.f))
    records = []
    for m in cfg.methods:
        vals = np.array(mses[m])
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        records.append(AmseRecord(
            function=function, n=n, snr=snr, method=m,
            amse=float(np.mean(vals)), amse_std_error=se,
            replications=cfg.replications, base_seed=cfg.base_seed,
        ))
    return records


def experiment_cells(cfg: ExperimentConfig) -> list[tuple[str, int, float]]:
    return [(fn, n, snr)
            for fn in cfg.functions for n in cfg.sizes for snr in cfg.snrs]


def _run_named_cell(cfg: ExperimentConfig,
                    cell: tuple[str, int, float]) -> list[AmseRecord]:
    """run_cell, with the cell named in the error if it fails."""
    function, n, snr = cell
    try:
        return run_cell(cfg, function, n, snr)
    except Exception as exc:
        raise RuntimeError(
            f"cell (function={function}, n={n}, snr={snr}) failed: {exc}"
        ) from exc


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[AmseRecord]:
    """Run the full grid; record order and contents are deterministic.

    With ``jobs`` > 1 the cells are shared out to at most ``jobs`` worker
    processes, never more than there are cells; the records are the same
    for every worker count.  A failure inside any cell aborts the run with
    the cell named.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = experiment_cells(cfg)
    workers = min(jobs, len(cells))
    if workers == 1:
        chunks = [_run_named_cell(cfg, cell) for cell in cells]
    else:
        # imported here, not at the top: only a pooled run needs it, and it
        # is the slowest import of the CLI's start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_named_cell, [cfg] * len(cells), cells))
    return [rec for chunk in chunks for rec in chunk]
