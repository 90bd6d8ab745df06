"""The four workloads, their operations and checks, and the layer tour.

A workload is built from ``--seed`` and yields rounds of operations; every
round holds the same operations, so the share of failed operations is the
same in every run.  An operation times one public call of the program and
checks its output; in a traced run it also runs the staged version of the
call under spans and asserts that both give the same result.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import refs
from spans import (Tracer, staged_bayes_risk, staged_denoise, staged_rule_moments,
                   staged_run_cell)

from gsh_shrink import (FUNCTION_NAMES, GshParams, ShrinkagePrior, ShrinkageRule,
                        bayes_risk, denoise_detailed, gsh_sample, inverse,
                        make_noisy_sample, risk_curve, shrink_array)
from gsh_shrink import cli
from gsh_shrink.elicitation import ElicitationConfig
from gsh_shrink.experiments import (METHODS, ExperimentConfig, cell_stream_id,
                                    experiment_cells, run_cell, run_experiment)
from gsh_shrink.numerics import PIPELINE_QUAD, SeededRng
from gsh_shrink.risk_analysis import MONTE_CARLO, default_risk_grid

#: The doppler input of denoise-long is drawn from this fixed seed, so its
#: known failure (sign flips at the clamped t) counts the same in every run.
FIXED_SEED = 20260809
J0 = ExperimentConfig().elicitation.primary_level
MOMENTS = ExperimentConfig().vanishing_moments


@dataclass
class Op:
    """One timed public call; ``staged`` repeats it under spans and ``same``
    compares the two results; ``profile`` adds per-layer calls that are not
    part of the operation and says whether they agree with it.  The label's
    part before "/" names the operation's kind."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    staged: Callable[[Tracer], Any]
    same: Callable[[Any, Any], bool]
    profile: Callable[[Tracer], bool] = lambda tr: True


def _same_arrays(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def check_denoise(y, result, rng, stats) -> list[str]:
    """All denoise-long checks on one DenoiseResult."""
    dec, est = result.decomposition, result.estimated.details
    ref_scaling, ref_details = refs.dwt_forward(y, refs.daubechies_lowpass(MOMENTS), J0)
    problems = checks.check_output(result.f_hat, y.size)
    problems += checks.check_reconstruction(y, inverse(dec))
    problems += checks.check_forward(y, ref_scaling, ref_details, dec.scaling, dec.details)
    problems += checks.check_shrunk(dec.details, est)
    sigma, alpha, t = refs.elicit(ref_details, J0, per_level=False)
    errs = checks.posterior_errors(dec.details, est, sigma, alpha, t, rng)
    problems += checks.check_posterior(errs, sigma)
    stats["max_abs_err"] = max(stats.get("max_abs_err", 0.0), float(errs.max()))
    return problems


def denoise_figures(samples: int, times: list[float]) -> dict[str, tuple[float, str]]:
    return {"denoise_samples_per_s": (samples * len(times) / sum(times), "samples/s"),
            "denoise_ms_p50": (statistics.median(times) * 1e3, "ms")}


class DenoiseLong:
    """denoise_detailed(y, "gsh") on the four test functions at n = 65536, SNR 7."""

    name = "denoise-long"
    n = 65536

    def __init__(self, seed: int, out: Path):
        self.rng = np.random.default_rng(seed)
        self.cfg = ExperimentConfig()
        sigma = self.cfg.noise_sigma(7.0)
        self.inputs = {
            f: make_noisy_sample(f, self.n, 7.0, sigma,
                                 SeededRng(FIXED_SEED if f == "doppler" else seed, i)).y
            for i, f in enumerate(FUNCTION_NAMES)}
        self.stats: dict[str, float] = {}

    @staticmethod
    def warm_up(out: Path) -> None:
        denoise_detailed(make_noisy_sample("doppler", 4096, 7.0, 1.0, SeededRng(0)).y, "gsh")

    def ops(self, round_index: int) -> list[Op]:
        def op(f, y):
            return Op(
                label=f"denoise/{f}",
                run=lambda: denoise_detailed(y, "gsh", self.cfg),
                check=lambda res: check_denoise(y, res, self.rng, self.stats),
                staged=lambda tr: staged_denoise(y, "gsh", self.cfg, tr),
                same=lambda res, st: _same_arrays(
                    [res.f_hat, *res.estimated.details.values()],
                    [st[3], *st[1].values()]))
        return [op(f, y) for f, y in self.inputs.items()]

    def figures(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        return denoise_figures(self.n, [t for ts in times.values() for t in ts])


class SimulateGrid:
    """run_experiment on 4 functions x n in {512, 2048} x SNR in {3, 7}, all
    four methods, M = 5.  One operation is run_experiment on one function
    and one SNR at both sizes, so a round of 8 operations of ~0.2 s covers
    the grid and the median op time rests on dozens of operations a run."""

    name = "simulate-grid"
    replications = 5

    def __init__(self, seed: int, out: Path):
        self.rng = np.random.default_rng(seed)
        self.cfg = ExperimentConfig(functions=FUNCTION_NAMES, sizes=(512, 2048),
                                    snrs=(3.0, 7.0), replications=self.replications,
                                    methods=METHODS, base_seed=seed)
        self.parts = [replace(self.cfg, functions=(f,), snrs=(snr,))
                      for f in self.cfg.functions for snr in self.cfg.snrs]
        self.gsh_amse: dict[tuple, float] = {}
        self.stats: dict[str, float] = {}

    @staticmethod
    def warm_up(out: Path) -> None:
        run_cell(ExperimentConfig(replications=1, methods=METHODS), "blocks", 512, 3.0)

    def check_cell(self, cell, records) -> list[str]:
        function, n, snr = cell
        problems = checks.check_records(records, function, n, snr, self.cfg.methods)
        r = int(self.rng.integers(self.cfg.replications))
        sigma = self.cfg.noise_sigma(snr)
        sample = make_noisy_sample(function, n, snr, sigma, SeededRng(
            self.cfg.base_seed, cell_stream_id(function, n, snr, r)))
        problems += checks.check_snr(sample.f, sigma, snr)
        for m in self.cfg.methods[1:]:
            res = denoise_detailed(sample.y, m, self.cfg)
            problems += checks.check_thresholds(res.decomposition.details,
                                                res.estimated.details, n, m)
        return problems

    def check_part(self, part, records, rerun_cell) -> list[str]:
        cells = experiment_cells(part)
        k = len(self.cfg.methods)
        if len(records) != len(cells) * k:
            return [f"{len(records)} records for {len(cells)} cells x {k} methods"]
        problems = []
        for i, cell in enumerate(cells):
            problems += self.check_cell(cell, records[i * k:(i + 1) * k])
            self.gsh_amse[cell] = records[i * k].amse
        self.stats["gsh_amse"] = float(np.mean(list(self.gsh_amse.values())))
        if rerun_cell is not None:
            i = cells.index(rerun_cell)
            if repr(run_cell(self.cfg, *rerun_cell)) != repr(records[i * k:(i + 1) * k]):
                problems.append(f"rerunning cell {rerun_cell} changed its records")
        return problems

    def ops(self, round_index: int) -> list[Op]:
        """Once per round one cell, taken in turn over the grid, is rerun."""
        cells = experiment_cells(self.cfg)
        rerun_cell = cells[round_index % len(cells)]

        def op(part):
            rerun = rerun_cell if rerun_cell in experiment_cells(part) else None
            return Op(f"grid/{part.functions[0]}-{part.snrs[0]:g}",
                      lambda: run_experiment(part),
                      lambda recs: self.check_part(part, recs, rerun),
                      lambda tr: [r for cell in experiment_cells(part)
                                  for r in staged_run_cell(part, *cell, tr)],
                      lambda recs, st: recs == st)
        return [op(part) for part in self.parts]

    def figures(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        parts = times["grid"]
        cells = len(self.cfg.sizes)
        return {"replications_per_s": (cells * self.replications * len(parts) / sum(parts),
                                       "1/s"),
                "gsh_amse": (self.stats.get("gsh_amse", math.nan), "units2")}


class RiskDiagnostics:
    """What `gsh-shrink risk` computes, for the slab shapes t = -3 and t = 3
    at alpha = 0.9, tau = sigma = 1.

    The quadrature takes 1201 theta rather than the command's 4801, and
    Monte Carlo 2000 draws rather than 10^4: both reach the identity value as
    closely (gap 7e-9 at t = -3, 6e-13 at t = 3), and a round of ~5 s lets a
    run hold three rounds, so each kind's median rests on six calls."""

    name = "risk-diagnostics"
    shapes = (-3.0, 3.0)
    alpha = 0.9
    mc_draws = 2000
    theta_points = 1201

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.rules = {t: self.rule(t) for t in self.shapes}
        self.identity = {t: refs.bayes_risk_identity(self.alpha, 1.0, 1.0, t) for t in self.shapes}
        self.grid = default_risk_grid()
        self.quad: dict[float, float] = {}
        self.stats: dict[str, float] = {}

    @classmethod
    def rule(cls, t: float) -> ShrinkageRule:
        return ShrinkageRule(ShrinkagePrior(cls.alpha, GshParams.make(1.0, t)), 1.0, PIPELINE_QUAD)

    @classmethod
    def warm_up(cls, out: Path) -> None:
        for t in cls.shapes:
            rule = cls.rule(t)
            risk_curve(np.linspace(-1.0, 1.0, 5), rule)
            gsh_sample(SeededRng(0), rule.prior.gsh, 10)

    def check_curve(self, t, curve) -> list[str]:
        problems = checks.check_risk_curve(curve.squared_bias, curve.variance, curve.classical_risk)
        d = np.linspace(-8.0, 8.0, 41)
        errs = np.abs(shrink_array(d, self.rules[t])
                      - refs.posterior_mean(d, self.alpha, 1.0, 1.0, t))
        self.stats["max_abs_err"] = max(self.stats.get("max_abs_err", 0.0), float(errs.max()))
        return problems + checks.check_posterior(errs, 1.0)

    def check_quad(self, t, est) -> list[str]:
        self.quad[t] = est.value
        gap = abs(est.value - self.identity[t])
        self.stats["bayes_risk_gap"] = max(self.stats.get("bayes_risk_gap", 0.0), gap)
        return checks.check_bayes_risk(est.value, self.identity[t], self.alpha, 1.0, 1.0)

    def check_mc(self, t, rng, est) -> list[str]:
        if t not in self.quad:
            return ["no quadrature result to compare with"]
        draws = gsh_sample(rng, self.rules[t].prior.gsh, self.mc_draws)
        return (checks.check_monte_carlo(est.value, est.std_error, self.quad[t])
                + checks.check_draws(draws, 1.0, t))

    def figures(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        return {"bayes_risk_s": (statistics.median(times["quadrature"]), "s"),
                "mc_draws_per_s": (self.mc_draws * len(times["monte_carlo"])
                                   / sum(times["monte_carlo"]), "draws/s"),
                "risk_curve_ms": (statistics.median(times["curve"]) * 1e3, "ms")}

    def ops(self, round_index: int) -> list[Op]:
        out = []
        for i, t in enumerate(self.shapes):
            rule = self.rules[t]
            rng = SeededRng(self.seed, 1000 * round_index + i)
            out += [
                Op(f"curve/{t:g}", lambda rule=rule: risk_curve(self.grid, rule),
                   lambda c, t=t: self.check_curve(t, c),
                   lambda tr, rule=rule: staged_rule_moments(self.grid, rule, tr),
                   lambda c, st: _same_arrays([c.squared_bias, c.variance, c.classical_risk], st)),
                Op(f"quadrature/{t:g}",
                   lambda rule=rule: bayes_risk(rule, theta_points=self.theta_points),
                   lambda e, t=t: self.check_quad(t, e),
                   lambda tr, rule=rule: staged_bayes_risk(rule, tr,
                                                           theta_points=self.theta_points),
                   lambda e, st: (e.value, e.std_error) == st),
                Op(f"monte_carlo/{t:g}",
                   lambda rule=rule, rng=rng: bayes_risk(rule, MONTE_CARLO,
                                                         mc_draws=self.mc_draws, rng=rng),
                   lambda e, t=t, rng=rng: self.check_mc(t, rng, e),
                   lambda tr, rule=rule, rng=rng: staged_bayes_risk(rule, tr, self.mc_draws, rng),
                   lambda e, st: (e.value, e.std_error) == st),
            ]
        return out


#: Median close of the seeded share series; sigma_hat is then 0.1-0.35.
SHARE_CLOSE = 30.0
#: A fixed series at a higher price level: sigma_hat = 2.52 and t = 4.88 at
#: level 5, where all 29 coefficients above 10 sigma_hat miss the posterior
#: mean by more than the tolerance, by up to 0.32 (the window blind spot),
#: so it fails in every run.
HIGH_PRICE_SEED = 2
HIGH_PRICE_CLOSE = 250.0


def stock_prices(rng: np.random.Generator, days: int, median_close: float) -> np.ndarray:
    """Daily closes of a share: Student-t(4) log returns with 2% daily sd and
    3e-4 drift, scaled to the given median close (currency units)."""
    r = 3e-4 + 0.02 / math.sqrt(2.0) * rng.standard_t(4, days - 1)
    p = np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    return p * (median_close / np.median(p))


def write_series(path: Path, values) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("day,close\n")
        fh.writelines(f"{i},{float(v)!r}\n" for i, v in enumerate(values))


def run_cli(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def stock_config() -> ExperimentConfig:
    """The configuration `gsh-shrink denoise --per-level-t` builds."""
    return ExperimentConfig(elicitation=ElicitationConfig(pool_levels=False))


def pad_pow2(values) -> np.ndarray:
    """Symmetric padding to the next power of two, as `--pad symmetric` does."""
    return np.pad(values, (0, (1 << math.ceil(math.log2(values.size))) - values.size),
                  mode="symmetric")


def traced_cli(path: Path, prefix: Path, tr: Tracer) -> int:
    with tr.span("cli.main"):
        rc = run_cli(StockCli.args(path, prefix))
    tr.count("cli.calls")
    tr.count("cli.bytes_written", sum(Path(f"{prefix}_{kind}").stat().st_size for kind in
                                      ("denoised.csv", "coefficients.csv", "manifest.json")))
    return rc


def profile_cli(values, prefix: Path, tr: Tracer) -> bool:
    """denoise_detailed, then its stages, on the padded input that main
    denoises, with the configuration main builds; cli.io_ms is main's time
    minus denoise_detailed's.  True if both give exactly the estimates in
    the coefficients CSV that main last wrote under ``prefix``."""
    cfg = stock_config()
    x = pad_pow2(values)
    with tr.span("cli.denoise_detailed"):
        result = denoise_detailed(x, "gsh", cfg)
    est = staged_denoise(x, "gsh", cfg, tr)[1]
    levels = result.decomposition.levels
    written = np.array([float(r[3]) for r in read_csv(Path(f"{prefix}_coefficients.csv"))])
    return (_same_arrays([est[j] for j in levels], [result.estimated.details[j] for j in levels])
            and np.array_equal(np.concatenate([est[j] for j in levels]), written))


class StockCli:
    """gsh-shrink denoise --pad symmetric --per-level-t on 20-year daily share
    prices: five series from the seed and the fixed high-price series."""

    name = "stock-cli"
    days = 5040
    series = 5

    def __init__(self, seed: int, out: Path):
        out = out / "stock"
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.rng = np.random.default_rng([seed, 1])
        prices = {f"series-{k}": stock_prices(rng, self.days, SHARE_CLOSE)
                  for k in range(self.series)}
        prices["high-price"] = stock_prices(np.random.default_rng(HIGH_PRICE_SEED), self.days,
                                            HIGH_PRICE_CLOSE)
        self.inputs = {}
        for name, values in prices.items():
            write_series(out / f"{name}.csv", values)
            self.inputs[name] = (out / f"{name}.csv", out / name, values)
        self.first: dict[str, bytes] = {}
        self.stats: dict[str, float] = {}

    @staticmethod
    def args(path: Path, prefix: Path) -> list[str]:
        return ["denoise", str(path), "--pad", "symmetric", "--per-level-t",
                "--out-prefix", str(prefix)]

    @classmethod
    def warm_up(cls, out: Path) -> None:
        out = out / "stock"
        out.mkdir(parents=True, exist_ok=True)
        write_series(out / "warm-up.csv", stock_prices(np.random.default_rng(0), 600, SHARE_CLOSE))
        run_cli(cls.args(out / "warm-up.csv", out / "warm-up"))

    @staticmethod
    def outputs(prefix: Path) -> bytes:
        return b"".join(Path(f"{prefix}_{kind}.csv").read_bytes()
                        for kind in ("denoised", "coefficients"))

    def check_run(self, k: str, rc: int) -> list[str]:
        path, prefix, values = self.inputs[k]
        if rc != 0:
            return [f"exit code {rc}"]
        rows = read_csv(Path(f"{prefix}_denoised.csv"))
        problems = []
        y = np.array([float(r[1]) for r in rows])
        f_hat = np.array([float(r[2]) for r in rows])
        if len(rows) != values.size or not np.array_equal(y, values):
            problems.append("denoised CSV does not carry the input series")
        problems += checks.check_output(f_hat, values.size)
        coeffs = read_csv(Path(f"{prefix}_coefficients.csv"))
        level = np.array([int(r[0]) for r in coeffs])
        emp = np.array([float(r[2]) for r in coeffs])
        est = np.array([float(r[3]) for r in coeffs])
        details = {j: emp[level == j] for j in np.unique(level).tolist()}
        estimated = {j: est[level == j] for j in details}
        problems += checks.check_shrunk(details, estimated)
        sigma, alpha, t = refs.elicit(details, J0, per_level=True)
        errs = checks.posterior_errors(details, estimated, sigma, alpha, t, self.rng)
        problems += checks.check_posterior(errs, sigma)
        self.stats["max_abs_err"] = max(self.stats.get("max_abs_err", 0.0), float(errs.max()))
        produced = self.outputs(prefix)
        if k not in self.first:
            run_cli(self.args(path, prefix))
            self.first[k] = self.outputs(prefix)
        if produced != self.first[k]:
            problems.append("a rerun changed the output CSVs")
        return problems

    def ops(self, round_index: int) -> list[Op]:
        return [Op(f"cli/{k}",
                   lambda k=k: run_cli(self.args(*self.inputs[k][:2])),
                   lambda rc, k=k: self.check_run(k, rc),
                   lambda tr, k=k: traced_cli(*self.inputs[k][:2], tr),
                   lambda rc, st: rc == st,
                   lambda tr, k=k: profile_cli(self.inputs[k][2], self.inputs[k][1], tr))
                for k in self.inputs]

    def figures(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        return denoise_figures(self.days, [t for ts in times.values() for t in ts])


WORKLOADS = {w.name: w for w in (DenoiseLong, SimulateGrid, RiskDiagnostics, StockCli)}


def layer_tour(out: Path, tr: Tracer, stats: dict) -> bool:
    """One small, fixed call into every layer, for the per-layer figures of
    layers that a workload's own operations do not reach.  True if the CLI's
    estimates equal those of its staged computation."""
    cfg = ExperimentConfig()
    with tr.span("signals.sample"):
        y = make_noisy_sample("doppler", 2048, 7.0, 1.0, SeededRng(FIXED_SEED)).y
    dec, est, hyper, _ = staged_denoise(y, "gsh", cfg, tr)
    errs = checks.posterior_errors(dec.details, est, hyper.sigma_hat, hyper.alpha_by_level,
                                   {j: hyper.level_t(j) for j in dec.levels},
                                   np.random.default_rng(0))
    stats["max_abs_err"] = float(errs.max())
    records = staged_run_cell(replace(cfg, replications=2, methods=METHODS), "bumps", 512, 3.0, tr)
    stats["gsh_amse"] = records[0].amse
    rule = RiskDiagnostics.rule(3.0)
    staged_rule_moments(np.linspace(-8.0, 8.0, 33), rule, tr)
    value, _ = staged_bayes_risk(rule, tr, theta_points=241)
    stats["bayes_risk_gap"] = abs(value - refs.bayes_risk_identity(0.9, 1.0, 1.0, 3.0))
    fresh = GshParams.make(1.0, 1.234567)
    with tr.span("gsh_prior.sample_cold"):
        gsh_sample(SeededRng(FIXED_SEED), fresh, 2000)
    with tr.span("gsh_prior.sample"):
        gsh_sample(SeededRng(FIXED_SEED, 1), fresh, 2000)
    tour_dir = out / "tour"
    tour_dir.mkdir(parents=True, exist_ok=True)
    values = stock_prices(np.random.default_rng(FIXED_SEED), 1000, SHARE_CLOSE)
    write_series(tour_dir / "input.csv", values)
    traced_cli(tour_dir / "input.csv", tour_dir / "series", tr)
    return profile_cli(values, tour_dir / "series", tr)
