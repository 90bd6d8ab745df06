"""Command-line surface: denoise a CSV series, run the simulation grid, or
emit prior/risk diagnostics as plot-ready CSV files.

Exit codes: 0 on success, 2 for usage or configuration errors, 3 for
numerical failures.  Every command writes a JSON run manifest next to its
outputs; rerunning a command with identical inputs reproduces the data
files byte for byte (the manifest itself carries wall-clock timestamps).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .elicitation import ElicitationConfig
from .experiments import (ExperimentConfig, METHODS, AmseRecord, denoise_detailed,
                          experiment_cells, run_cell, run_experiment)
from .gsh_prior import GshParams, ShrinkagePrior, gsh_density, gsh_kurtosis
from .numerics import NumericalDomainError, PIPELINE_QUAD, SeededRng
from .risk_analysis import (MONTE_CARLO, QUADRATURE, bayes_risk, default_risk_grid,
                            risk_curve)
from .shrinkage import ShrinkageRule, shrink_array
from .signals import FUNCTION_NAMES, sample_function, scale_to_snr

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

#: Noise-to-slab scale ratios sigma/tau over which the posterior-mean rule
#: is checked; outside it the quadrature can miss the posterior entirely.
ADMISSIBLE_NOISE_RATIO = (0.1, 10.0)


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


def _fmt(value) -> str:
    """Full round-trip decimal formatting for numeric output."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows, each cell as ``_fmt`` gives it.

    Arrays go through ``.tolist()``: ``str`` of the Python float it yields is
    the round-trip repr, so they skip ``_fmt`` per cell.  No cell holds a
    comma, quote or newline, so none needs quoting.
    """
    cells = [col.tolist() if isinstance(col, np.ndarray) else [_fmt(v) for v in col]
             for col in columns]
    line = ",".join(["{}"] * len(cells)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.format, *cells))


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seed: int | None
    version: str
    started_at: str
    finished_at: str
    outputs: dict[str, str]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


class _ManifestTimer:
    def __init__(self, command: str, config: dict, seed: int | None):
        self.command = command
        self.config = config
        self.seed = seed
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.outputs: dict[str, str] = {}

    def add(self, kind: str, path: Path) -> Path:
        self.outputs[kind] = str(path)
        return path

    def finish(self, path: Path) -> None:
        manifest = RunManifest(
            command=self.command,
            argv=sys.argv[1:],
            config=self.config,
            seed=self.seed,
            version=__version__,
            started_at=self.started,
            finished_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            outputs=self.outputs,
        )
        manifest.write(path)
        print(f"manifest: {path}")


def _json_ready(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _json_ready(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

def _read_series(path: str, column: str | None) -> np.ndarray:
    """One numeric column from a headed CSV; extra index/date columns are ignored."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise CliError(f"{path}: need a header row and at least one data row")
    header, data = rows[0], rows[1:]
    if column is not None:
        if column not in header:
            raise CliError(f"{path}: no column named {column!r} in {header}")
        idx = header.index(column)
    else:
        idx = len(header) - 1
    try:
        values = np.array([float(r[idx]) for r in data])
    except (ValueError, IndexError) as exc:
        raise CliError(
            f"{path}: column {header[idx]!r} does not parse as numbers: {exc}"
        ) from exc
    if not np.all(np.isfinite(values)):
        raise CliError(f"{path}: column {header[idx]!r} contains non-finite values")
    return values


def _pad_symmetric(values: np.ndarray) -> tuple[np.ndarray, int]:
    n = values.size
    target = 1 << math.ceil(math.log2(n))
    return np.pad(values, (0, target - n), mode="symmetric"), n


def cmd_denoise(args) -> int:
    values = _read_series(args.input, args.column)
    n = values.size
    padded = False
    if n < 2 or n & (n - 1):
        if args.pad == "symmetric":
            values, n = _pad_symmetric(values)
            padded = True
        else:
            lo = 1 << max(0, math.floor(math.log2(max(n, 1))))
            hi = 1 << math.ceil(math.log2(max(n, 2)))
            raise CliError(
                f"series length {n} is not a power of two; nearest valid "
                f"lengths are {lo} and {hi} (or rerun with --pad=symmetric)"
            )

    cfg = _experiment_config(args, functions=FUNCTION_NAMES, sizes=(values.size,),
                             snrs=(3.0,), methods=(args.method,), replications=1)
    result = denoise_detailed(values, args.method, cfg)
    f_hat = result.f_hat[:n] if padded else result.f_hat
    series = values[:n] if padded else values

    timer = _ManifestTimer("denoise", _json_ready({
        "input": args.input, "column": args.column, "method": args.method,
        "pad": args.pad, "length": int(n),
        "elicitation": cfg.elicitation, "vanishing_moments": cfg.vanishing_moments,
    }), seed=None)

    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    denoised = timer.add("denoised", Path(f"{prefix}_denoised.csv"))
    _write_csv(denoised, ["index", "y", "f_hat"], (np.arange(n), series, f_hat))

    coeff_path = timer.add("coefficients", Path(f"{prefix}_coefficients.csv"))
    levels = result.decomposition.levels
    sizes = [result.decomposition.details[j].size for j in levels]
    _write_csv(coeff_path, ["level", "position", "empirical", "estimated"], (
        np.repeat(levels, sizes),
        np.concatenate([np.arange(size) for size in sizes]),
        np.concatenate([result.decomposition.details[j] for j in levels]),
        np.concatenate([result.estimated.details[j] for j in levels]),
    ))

    print(f"sigma_hat: {_fmt(result.sigma_hat)}")
    if result.hyperparams is not None:
        hyper = result.hyperparams
        print(f"t: {_fmt(hyper.t_value)}")
        print(f"tau: {_fmt(hyper.tau)}")
        for j in sorted(hyper.alpha_by_level):
            print(f"alpha[level {j}]: {_fmt(hyper.alpha_by_level[j])}")
        ratio = result.sigma_hat / hyper.tau
        lo, hi = ADMISSIBLE_NOISE_RATIO
        if not lo <= ratio <= hi:
            print(f"warning: sigma_hat/tau = {_fmt(ratio)} lies outside the "
                  f"admissible range [{_fmt(lo)}, {_fmt(hi)}]; the estimated "
                  "coefficients may be wrong, even in sign (rescale the series)",
                  file=sys.stderr)
    timer.finish(Path(f"{prefix}_manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _experiment_config(args, functions, sizes, snrs, methods,
                       replications) -> ExperimentConfig:
    elic = ElicitationConfig(
        gamma=args.gamma,
        primary_level=args.primary_level,
        pool_levels=not args.per_level_t,
    )
    try:
        return ExperimentConfig(
            functions=tuple(functions), sizes=tuple(sizes), snrs=tuple(snrs),
            replications=replications, methods=tuple(methods),
            base_seed=args.seed if hasattr(args, "seed") else 0,
            elicitation=elic, vanishing_moments=args.wavelet,
            signal_sd=getattr(args, "signal_sd", 7.0),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _split_list(text: str, conv):
    try:
        return tuple(conv(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise CliError(f"cannot parse list {text!r}: {exc}") from exc


def _run_cell_task(payload):
    cfg_kwargs, cell = payload
    cfg = ExperimentConfig(**cfg_kwargs)
    try:
        return run_cell(cfg, *cell)
    except Exception as exc:
        raise RuntimeError(
            f"cell (function={cell[0]}, n={cell[1]}, snr={cell[2]}) "
            f"failed: {exc}") from exc


def cmd_simulate(args) -> int:
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
            elic = ElicitationConfig(**raw.pop("elicitation", {}))
            for key in ("functions", "sizes", "snrs", "methods"):
                if key in raw:
                    raw[key] = tuple(raw[key])
            cfg = ExperimentConfig(elicitation=elic, **raw)
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
            raise CliError(f"invalid experiment config: {exc}") from exc
    else:
        cfg = _experiment_config(
            args,
            functions=_split_list(args.functions, str),
            sizes=_split_list(args.n, int),
            snrs=_split_list(args.snr, float),
            methods=_split_list(args.methods, str),
            replications=args.M,
        )

    jobs = args.jobs or int(os.environ.get("GSH_SHRINK_JOBS", "0")) or os.cpu_count() or 1
    cells = experiment_cells(cfg)
    if jobs > 1 and len(cells) > 1:
        cfg_kwargs = {f.name: getattr(cfg, f.name)
                      for f in dataclasses.fields(ExperimentConfig)}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_cell_task,
                                   [(cfg_kwargs, cell) for cell in cells]))
        records = [rec for chunk in chunks for rec in chunk]
    else:
        records = run_experiment(cfg)

    timer = _ManifestTimer("simulate", _json_ready(cfg), seed=cfg.base_seed)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    amse_path = timer.add("amse", Path(f"{prefix}_amse.csv"))
    _write_csv(
        amse_path,
        ["function", "n", "snr", "method", "amse", "std_error", "M", "seed"],
        ([getattr(r, field) for r in records]
         for field in ("function", "n", "snr", "method", "amse", "amse_std_error",
                       "replications", "base_seed")),
    )
    table_path = timer.add("table", Path(f"{prefix}_table.txt"))
    table_path.write_text(format_amse_table(records, cfg))
    print(format_amse_table(records, cfg))
    timer.finish(Path(f"{prefix}_manifest.json"))
    return 0


def format_amse_table(records: list[AmseRecord], cfg: ExperimentConfig) -> str:
    """Plain-text AMSE table: one block per function, methods by SNR columns."""
    by_key = {(r.function, r.n, r.snr, r.method): r for r in records}
    lines = [f"AMSE over M={cfg.replications} replications "
             f"(seed {cfg.base_seed}, Daub{cfg.vanishing_moments}, "
             f"signal sd {cfg.signal_sd:g})"]
    snrs = list(cfg.snrs)
    header = f"{'signal':>10} {'n':>5} {'method':>15}" + "".join(
        f"  SNR={s:<6g}" for s in snrs)
    lines.append(header)
    for fn in cfg.functions:
        for n in cfg.sizes:
            for m in cfg.methods:
                cells = []
                for s in snrs:
                    rec = by_key.get((fn, n, s, m))
                    cells.append(f"{rec.amse:10.3f}" if rec else f"{'-':>10}")
                lines.append(f"{fn:>10} {n:>5} {m:>15}" + "".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

def _rule_from_args(args) -> ShrinkageRule:
    try:
        prior = ShrinkagePrior(alpha=args.alpha, gsh=GshParams.make(args.tau, args.t))
        return ShrinkageRule(prior=prior, sigma=args.sigma, quad=PIPELINE_QUAD)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_risk(args) -> int:
    rule = _rule_from_args(args)
    grid = default_risk_grid(args.grid_lo, args.grid_hi, args.grid_points)
    curve = risk_curve(grid, rule)

    timer = _ManifestTimer("risk", _json_ready({
        "t": args.t, "alpha": args.alpha, "tau": args.tau, "sigma": args.sigma,
        "grid_lo": args.grid_lo, "grid_hi": args.grid_hi,
        "grid_points": args.grid_points, "mc_draws": args.mc_draws,
    }), seed=args.seed)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    curve_path = timer.add("risk_curve", Path(f"{prefix}_risk.csv"))
    _write_csv(curve_path, ["theta", "bias_sq", "variance", "risk"],
               (curve.theta_grid, curve.squared_bias, curve.variance,
                curve.classical_risk))
    rule_path = timer.add("rule", Path(f"{prefix}_rule.csv"))
    _write_csv(rule_path, ["d", "delta"], (grid, shrink_array(grid, rule)))

    quad = bayes_risk(rule, QUADRATURE)
    print(f"bayes_risk_quadrature: {_fmt(quad.value)}")
    if args.mc_draws > 0 and rule.prior.alpha < 1.0:
        mc = bayes_risk(rule, MONTE_CARLO, mc_draws=args.mc_draws,
                        rng=SeededRng(args.seed))
        print(f"bayes_risk_monte_carlo: {_fmt(mc.value)} "
              f"(std error {_fmt(mc.std_error)}, draws {args.mc_draws})")
    timer.finish(Path(f"{prefix}_manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# prior
# ---------------------------------------------------------------------------

def cmd_prior(args) -> int:
    try:
        params = GshParams.make(args.tau, args.t)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    # grid wide enough that the exponential tails carry < 1e-9 mass, dense
    # enough that the emitted trapezoid mass is 1 to ~1e-6
    half = params.tau * max(8.0, 25.0 / params.c2)
    theta = np.linspace(-half, half, args.points)
    dens = gsh_density(theta, params)

    timer = _ManifestTimer("prior", _json_ready({
        "t": args.t, "tau": args.tau, "points": args.points}), seed=None)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    dens_path = timer.add("density", Path(f"{prefix}_density.csv"))
    _write_csv(dens_path, ["theta", "density"], (theta, dens))
    print(f"kurtosis: {_fmt(gsh_kurtosis(args.t))}")
    timer.finish(Path(f"{prefix}_manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# signal
# ---------------------------------------------------------------------------

def cmd_signal(args) -> int:
    try:
        x, f = sample_function(args.function, args.n)
        if args.snr is not None:
            f = scale_to_snr(f, args.snr, args.sigma)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    timer = _ManifestTimer("signal", _json_ready({
        "function": args.function, "n": args.n, "snr": args.snr,
        "sigma": args.sigma}), seed=None)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    sig_path = timer.add("signal", Path(f"{prefix}_signal.csv"))
    _write_csv(sig_path, ["x", "f"], (x, f))
    timer.finish(Path(f"{prefix}_manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_pipeline_flags(sp) -> None:
    sp.add_argument("--wavelet", type=int, default=10, metavar="N",
                    help="Daubechies vanishing moments (1..10, default 10)")
    sp.add_argument("--primary-level", type=int, default=4, metavar="J0",
                    help="coarsest shrunk resolution level (default 4)")
    sp.add_argument("--gamma", type=float, default=2.0,
                    help="spike-weight exponent (default 2)")
    sp.add_argument("--per-level-t", action="store_true",
                    help="elicit the slab shape per level instead of pooled")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsh-shrink",
        description="Bayesian wavelet shrinkage with a generalized secant "
                    "hyperbolic slab prior",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("denoise", help="denoise a CSV series")
    d.add_argument("input", help="CSV file with a header and one value column")
    d.add_argument("--column", default=None,
                   help="value column name (default: last column)")
    d.add_argument("--method", default="gsh", choices=METHODS)
    d.add_argument("--pad", default=None, choices=["symmetric"],
                   help="pad non-power-of-two series by symmetric reflection")
    d.add_argument("--out-prefix", default="denoise", metavar="PREFIX")
    _add_pipeline_flags(d)
    d.set_defaults(func=cmd_denoise)

    s = sub.add_parser("simulate", help="run the simulation grid")
    s.add_argument("--config", default=None,
                   help="JSON file with ExperimentConfig fields (overrides flags)")
    s.add_argument("--functions", default=",".join(FUNCTION_NAMES),
                   help="comma-separated test functions")
    s.add_argument("--n", default="512,1024,2048",
                   help="comma-separated sample sizes (powers of two)")
    s.add_argument("--snr", default="3,5,7", help="comma-separated SNR levels")
    s.add_argument("--methods", default="gsh,universal_soft",
                   help=f"comma-separated methods from {METHODS}")
    s.add_argument("--M", type=int, default=20, help="replications per cell")
    s.add_argument("--seed", type=int, default=20260809)
    s.add_argument("--signal-sd", type=float, default=7.0,
                   help="fixed signal sd; noise sigma = signal_sd/snr")
    s.add_argument("--jobs", type=int, default=0,
                   help="worker processes (default: GSH_SHRINK_JOBS or all cores)")
    s.add_argument("--out-prefix", default="simulate", metavar="PREFIX")
    _add_pipeline_flags(s)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("risk", help="risk curve and Bayes risk of one rule")
    r.add_argument("--t", type=float, required=True)
    r.add_argument("--alpha", type=float, default=0.9)
    r.add_argument("--tau", type=float, default=1.0)
    r.add_argument("--sigma", type=float, default=1.0)
    r.add_argument("--grid-lo", type=float, default=-8.0)
    r.add_argument("--grid-hi", type=float, default=8.0)
    r.add_argument("--grid-points", type=int, default=321)
    r.add_argument("--mc-draws", type=int, default=10000,
                   help="Monte Carlo cross-check draws (0 disables)")
    r.add_argument("--seed", type=int, default=20260809)
    r.add_argument("--out-prefix", default="risk", metavar="PREFIX")
    r.set_defaults(func=cmd_risk)

    p = sub.add_parser("prior", help="slab density and kurtosis")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--points", type=int, default=20001)
    p.add_argument("--out-prefix", default="prior", metavar="PREFIX")
    p.set_defaults(func=cmd_prior)

    g = sub.add_parser("signal", help="export a test signal as CSV")
    g.add_argument("--function", required=True, choices=FUNCTION_NAMES)
    g.add_argument("--n", type=int, default=512)
    g.add_argument("--snr", type=float, default=None,
                   help="rescale so sd(f)/sigma equals this ratio")
    g.add_argument("--sigma", type=float, default=1.0)
    g.add_argument("--out-prefix", default="signal", metavar="PREFIX")
    g.set_defaults(func=cmd_signal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalDomainError, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
