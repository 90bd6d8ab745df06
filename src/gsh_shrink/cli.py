"""Command-line surface: denoise a CSV series, run the simulation grid, or
emit prior/risk diagnostics as plot-ready CSV files.

Exit codes: 0 on success, 2 for usage or configuration errors, 3 for
numerical failures.  ``main`` times every command and, once it has
succeeded, writes a JSON run manifest next to its outputs; a command that
fails writes nothing.  Rerunning a command with identical inputs reproduces
the data files byte for byte (the manifest itself carries wall-clock
timestamps), and its ``argv`` replays the run.  Flags are the one way to
configure a run; the pipeline flags default to ``ExperimentConfig()``.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .elicitation import ElicitationConfig
from .experiments import (ExperimentConfig, METHODS, AmseRecord, denoise_detailed,
                          run_experiment)
from .gsh_prior import GshParams, ShrinkagePrior, gsh_density, gsh_kurtosis
from .numerics import PIPELINE_QUAD, SeededRng
from .risk_analysis import (MONTE_CARLO, QUADRATURE, bayes_risk, default_risk_grid,
                            risk_curve)
from .shrinkage import ShrinkageRule, shrink_array
from .signals import FUNCTION_NAMES, sample_function, scale_to_snr

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

#: The config whose fields the pipeline flags default to.
_DEFAULTS = ExperimentConfig()

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


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


#: Parsed arguments that are not part of a command's recorded config.
_NOT_CONFIG = ("command", "func", "out_prefix", "seed")


class _RunRecord:
    """The run manifest of one command and the out-prefix its files share.

    ``main`` opens the record before the command runs and finishes it once
    the command has succeeded, so ``started_at`` and ``finished_at`` bracket
    the whole command.  The config defaults to the parsed arguments and the
    seed to ``--seed``; a command that resolves either sets it.  ``add``
    creates the prefix's directory and names each output as it is
    registered; ``finish`` writes ``<prefix>_manifest.json``.
    """

    def __init__(self, args, argv: list[str]):
        self.prefix = Path(args.out_prefix)
        self.config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        self.seed = getattr(args, "seed", None)
        self.outputs: dict[str, str] = {}
        self.manifest = {"command": args.command, "argv": argv,
                         "version": __version__, "started_at": _now()}

    def add(self, kind: str, suffix: str) -> Path:
        """Register output ``kind`` at ``<prefix>_<suffix>`` and return its path."""
        self.prefix.parent.mkdir(parents=True, exist_ok=True)
        path = Path(f"{self.prefix}_{suffix}")
        self.outputs[kind] = str(path)
        return path

    def finish(self) -> None:
        path = Path(f"{self.prefix}_manifest.json")
        with open(path, "w") as fh:
            # a config holds flag values and config dataclasses, nothing else
            json.dump(dict(self.manifest, config=self.config, seed=self.seed,
                           outputs=self.outputs, finished_at=_now()),
                      fh, indent=2, sort_keys=True, default=dataclasses.asdict)
            fh.write("\n")
        print(f"manifest: {path}")


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

def _read_series(path: str, column: str | None) -> np.ndarray:
    """One numeric column from a headed CSV; extra index/date columns are ignored."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            # (1-based line of the file, row); blank lines are skipped
            rows = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise CliError(f"{path}: need a header row and at least one data row")
    header, data = rows[0][1], rows[1:]
    if column is not None:
        if column not in header:
            raise CliError(f"{path}: no column named {column!r} in {header}")
        idx = header.index(column)
    else:
        idx = len(header) - 1
    cells = []
    for line, row in data:
        cell = row[idx] if idx < len(row) else None
        try:
            cells.append(float(cell))
        except (TypeError, ValueError):
            what = ("is missing" if cell is None else "is empty" if not cell.strip()
                    else f"does not parse as a number: {cell!r}")
            raise CliError(f"{path}: line {line}: column {header[idx]!r} {what}") from None
    values = np.array(cells)
    if not np.all(np.isfinite(values)):
        raise CliError(f"{path}: column {header[idx]!r} contains non-finite values")
    return values


def cmd_denoise(args, run: _RunRecord) -> None:
    values = _read_series(args.input, args.column)
    pipeline = _pipeline_config(args)
    # primary level J0 needs 2^(J0 + 1) samples; padding reaches the next
    # power of two
    level = pipeline["elicitation"].primary_level
    shortest = 2 ** (level + 1)
    n = values.size
    target = 1 << (n - 1).bit_length()
    if target < shortest:
        raise CliError(f"series length {n} is too short for primary level {level}: "
                       f"need at least {shortest}")
    padded = target != n
    if padded:
        if args.pad != "symmetric":
            near = (f"nearest valid lengths are {target // 2} and {target}"
                    if target // 2 >= shortest else f"the shortest valid length is {target}")
            raise CliError(f"series length {n} is not a power of two; {near} "
                           "(or rerun with --pad=symmetric)")
        values = np.pad(values, (0, target - n), mode="symmetric")

    # sizes holds the one length the config checks the primary level against
    cfg = ExperimentConfig(sizes=(values.size,), **pipeline)
    result = denoise_detailed(values, args.method, cfg)
    f_hat = result.f_hat[:n] if padded else result.f_hat
    series = values[:n] if padded else values

    run.config = {"input": args.input, "column": args.column,
                  "method": args.method, "pad": args.pad, "length": int(n), **pipeline}
    _write_csv(run.add("denoised", "denoised.csv"), ["index", "y", "f_hat"],
               (np.arange(n), series, f_hat))

    levels = result.decomposition.levels
    sizes = [result.decomposition.details[j].size for j in levels]
    _write_csv(run.add("coefficients", "coefficients.csv"),
               ["level", "position", "empirical", "estimated"], (
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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args, run: _RunRecord) -> None:
    try:
        cfg = ExperimentConfig(
            functions=args.functions, sizes=args.n, snrs=args.snr,
            methods=args.methods, replications=args.M, base_seed=args.seed,
            signal_sd=args.signal_sd, **_pipeline_config(args))
    except ValueError as exc:
        raise CliError(f"invalid experiment config: {exc}") from exc

    records = run_experiment(cfg, args.jobs or os.cpu_count() or 1)

    run.config, run.seed = cfg, cfg.base_seed
    _write_csv(
        run.add("amse", "amse.csv"),
        ["function", "n", "snr", "method", "amse", "std_error", "M", "seed"],
        ([getattr(r, field) for r in records]
         for field in ("function", "n", "snr", "method", "amse", "amse_std_error",
                       "replications", "base_seed")),
    )
    table = format_amse_table(records, cfg)
    run.add("table", "table.txt").write_text(table)
    print(table)


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

def cmd_risk(args, run: _RunRecord) -> None:
    if args.mc_draws < 0:
        raise CliError(f"--mc-draws must be >= 0, got {args.mc_draws}")
    prior = ShrinkagePrior(alpha=args.alpha, gsh=GshParams.make(args.tau, args.t))
    rule = ShrinkageRule(prior=prior, sigma=args.sigma, quad=PIPELINE_QUAD)
    grid = default_risk_grid(args.grid_lo, args.grid_hi, args.grid_points)
    curve = risk_curve(grid, rule)
    print(f"bayes_risk_quadrature: {_fmt(bayes_risk(rule, QUADRATURE).value)}")
    if args.mc_draws > 0 and rule.prior.alpha < 1.0:
        mc = bayes_risk(rule, MONTE_CARLO, mc_draws=args.mc_draws,
                        rng=SeededRng(args.seed))
        print(f"bayes_risk_monte_carlo: {_fmt(mc.value)} "
              f"(std error {_fmt(mc.std_error)}, draws {args.mc_draws})")

    _write_csv(run.add("risk_curve", "risk.csv"),
               ["theta", "bias_sq", "variance", "risk"],
               (curve.theta_grid, curve.squared_bias, curve.variance,
                curve.classical_risk))
    _write_csv(run.add("rule", "rule.csv"), ["d", "delta"],
               (grid, shrink_array(grid, rule)))


# ---------------------------------------------------------------------------
# prior
# ---------------------------------------------------------------------------

def cmd_prior(args, run: _RunRecord) -> None:
    if args.points < 2:
        raise CliError(f"--points must be >= 2, got {args.points}")
    params = GshParams.make(args.tau, args.t)
    # grid wide enough that the exponential tails carry < 1e-9 mass, dense
    # enough that the emitted trapezoid mass is 1 to ~1e-6
    half = params.tau * max(8.0, 25.0 / params.c2)
    theta = np.linspace(-half, half, args.points)
    dens = gsh_density(theta, params)

    _write_csv(run.add("density", "density.csv"), ["theta", "density"],
               (theta, dens))
    print(f"kurtosis: {_fmt(gsh_kurtosis(args.t))}")


# ---------------------------------------------------------------------------
# signal
# ---------------------------------------------------------------------------

def cmd_signal(args, run: _RunRecord) -> None:
    x, f = sample_function(args.function, args.n)
    if args.snr is not None:
        f = scale_to_snr(f, args.snr, args.sigma)

    _write_csv(run.add("signal", "signal.csv"), ["x", "f"], (x, f))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _comma_list(conv):
    """An argparse ``type``: a comma-separated list as a tuple of ``conv``."""
    def parse(text: str) -> tuple:
        return tuple(conv(tok) for tok in text.split(",") if tok)
    parse.__name__ = f"comma-separated {conv.__name__}"
    return parse


def _add_pipeline_flags(sp) -> None:
    el = _DEFAULTS.elicitation
    sp.add_argument("--wavelet", type=int, default=_DEFAULTS.vanishing_moments, metavar="N",
                    help="Daubechies vanishing moments, 1..10 (default %(default)s)")
    sp.add_argument("--primary-level", type=int, default=el.primary_level, metavar="J0",
                    help="coarsest shrunk resolution level (default %(default)s)")
    sp.add_argument("--gamma", type=float, default=el.gamma,
                    help="spike-weight exponent (default %(default)s)")
    sp.add_argument("--per-level-t", action="store_false", dest="pool_levels",
                    default=el.pool_levels,
                    help="elicit the slab shape per level instead of pooled")


def _pipeline_config(args) -> dict:
    """The ``ExperimentConfig`` fields the four pipeline flags set."""
    el = ElicitationConfig(gamma=args.gamma, primary_level=args.primary_level,
                           pool_levels=args.pool_levels)
    return {"vanishing_moments": args.wavelet, "elicitation": el}


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
    s.add_argument("--functions", type=_comma_list(str),
                   default=_DEFAULTS.functions,
                   help="comma-separated test functions")
    s.add_argument("--n", type=_comma_list(int), default=_DEFAULTS.sizes,
                   help="comma-separated sample sizes (powers of two)")
    s.add_argument("--snr", type=_comma_list(float), default=_DEFAULTS.snrs,
                   help="comma-separated SNR levels")
    s.add_argument("--methods", type=_comma_list(str), default=_DEFAULTS.methods,
                   help=f"comma-separated methods from {METHODS}")
    s.add_argument("--M", type=int, default=_DEFAULTS.replications,
                   help="replications per cell")
    s.add_argument("--seed", type=int, default=_DEFAULTS.base_seed)
    s.add_argument("--signal-sd", type=float, default=_DEFAULTS.signal_sd,
                   help="fixed signal sd; noise sigma = signal_sd/snr")
    s.add_argument("--jobs", type=int, default=0,
                   help="worker processes, at most one per cell "
                        "(default 0: one per core)")
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
    r.add_argument("--seed", type=int, default=_DEFAULTS.base_seed)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    run = _RunRecord(args, argv)
    try:
        args.func(args, run)
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    run.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
