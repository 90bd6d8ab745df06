"""Benchmark of gsh-shrink: end-to-end figures untraced, per-layer figures traced.

Run from the repository root:

    python3 perfbench/run.py --workload denoise-long --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics; span traces go to
``.bench_out/``.  BLAS and OpenMP threads are pinned to 1 before numpy loads.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Whether numpy's large arrays get transparent huge pages depends on how
# fragmented the machine's memory is; that made operation times of the same
# inputs differ by 12% from run to run, so the hint is switched off.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("denoise-long", "simulate-grid", "risk-diagnostics", "stock-cli")
#: Set-up is measured this many times per run, each in a fresh process, half
#: before and half after the measuring loop: it is mostly imports, which slow
#: down with the machine's load for several seconds at a time.
SETUP_PROBES = 8

PER_LAYER = (
    "shrinkage.shrink_ms", "shrinkage.coeffs", "shrinkage.node_evals",
    "shrinkage.ns_per_node_eval", "shrinkage.max_abs_err", "shrinkage.sign_flips",
    "shrinkage.order_violations", "dwt.forward_ms", "dwt.inverse_ms", "dwt.samples",
    "elicitation.elicit_ms", "elicitation.t_clamped", "signals.sample_ms",
    "experiments.gsh_ms", "experiments.baseline_ms", "experiments.gsh_amse",
    "risk_analysis.rule_moments_us_per_theta", "risk_analysis.theta_points",
    "risk_analysis.bayes_risk_gap", "gsh_prior.sample_cold_ms", "gsh_prior.sample_warm_ms",
    "cli.io_ms", "cli.bytes_written", "trace.overhead_ms",
)


def machine_facts() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} {threads}")


def probe(workload: str, seed: int, kind: str) -> tuple[float, str]:
    """Start a fresh process for one probe: (seconds to its first line, the line)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--probe", kind],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or not line:
            raise RuntimeError(f"{kind} probe for {workload} failed")
    return seconds, line


def run_probe(args) -> int:
    """setup: import and warm up, then report.  memory: also build the inputs
    and run the first operation of each kind in a round, then report the peak
    of memory allocated through Python and numpy, in MB.

    Peak RSS of the same operation in a fresh process read 207 or 237 MB at
    random, one 30 MB work block apart; the traced allocation peak repeats."""
    if args.probe == "memory":
        tracemalloc.start()
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    cls.warm_up(OUT)
    if args.probe == "setup":
        print("ready", flush=True)
        return 0
    first_of_kind = {}
    for op in cls(args.seed, OUT).ops(0):
        first_of_kind.setdefault(op.label.split("/")[0], op)
    for op in first_of_kind.values():
        op.run()
    print(tracemalloc.get_traced_memory()[1] / 2 ** 20, flush=True)
    return 0


def ops_per_s(by_kind: dict[str, list[float]], rounds: int) -> float:
    """Operations per second of a round whose operations each take the
    median time of their kind: every kind counts by its share of the round,
    and a slow spell of a few seconds moves it less than a mean would."""
    per_round = {kind: len(ts) / rounds for kind, ts in by_kind.items()}
    seconds = sum(per_round[kind] * statistics.median(ts) for kind, ts in by_kind.items())
    return sum(per_round.values()) / seconds


def layer_metrics(tr, rounds: int, stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures from spans and counts, per round; only those whose
    spans were recorded."""
    own = tr.self_seconds()
    tot = tr.total_seconds()
    calls = tr.calls()
    c = tr.counts
    m: dict[str, tuple[float, str]] = {}
    if "shrinkage.shrink" in own:
        m["shrinkage.shrink_ms"] = (own["shrinkage.shrink"] / rounds * 1e3, "ms")
        m["shrinkage.coeffs"] = (c["shrinkage.coeffs"] / rounds, "count")
        m["shrinkage.node_evals"] = (c["shrinkage.node_evals"] / rounds, "count")
        m["shrinkage.ns_per_node_eval"] = (own["shrinkage.shrink"] / c["shrinkage.node_evals"] * 1e9, "ns")
        m["shrinkage.sign_flips"] = (c["shrinkage.sign_flips"] / rounds, "count")
        m["shrinkage.order_violations"] = (c["shrinkage.order_violations"] / rounds, "count")
    if "max_abs_err" in stats:
        m["shrinkage.max_abs_err"] = (stats["max_abs_err"], "units")
    if "dwt.forward" in own:
        m["dwt.forward_ms"] = (own["dwt.forward"] / rounds * 1e3, "ms")
        m["dwt.inverse_ms"] = (own["dwt.inverse"] / rounds * 1e3, "ms")
        m["dwt.samples"] = (c["dwt.samples"] / rounds, "count")
    if "elicitation.elicit" in own:
        m["elicitation.elicit_ms"] = (
            (own["elicitation.elicit"] + own["elicitation.sigma"]) / rounds * 1e3, "ms")
        m["elicitation.t_clamped"] = (c["elicitation.t_clamped"] / rounds, "count")
    if "signals.sample" in own:
        m["signals.sample_ms"] = (own["signals.sample"] / rounds * 1e3, "ms")
    if "experiments.gsh" in tot:
        reps = c["experiments.replications"]
        m["experiments.gsh_ms"] = (tot["experiments.gsh"] / reps * 1e3, "ms")
        m["experiments.baseline_ms"] = (tot["experiments.baseline"] / reps * 1e3, "ms")
    if "gsh_amse" in stats:
        m["experiments.gsh_amse"] = (stats["gsh_amse"], "units2")
    if "risk_analysis.rule_moments" in tot:
        m["risk_analysis.rule_moments_us_per_theta"] = (
            tot["risk_analysis.rule_moments"] / c["risk_analysis.theta_points"] * 1e6, "us")
        m["risk_analysis.theta_points"] = (c["risk_analysis.theta_points"] / rounds, "count")
    if "bayes_risk_gap" in stats:
        m["risk_analysis.bayes_risk_gap"] = (stats["bayes_risk_gap"], "units2")
    if "gsh_prior.sample_cold" in tot:
        m["gsh_prior.sample_cold_ms"] = (
            tot["gsh_prior.sample_cold"] / calls["gsh_prior.sample_cold"] * 1e3, "ms")
    if "gsh_prior.sample" in tot:
        m["gsh_prior.sample_warm_ms"] = (tot["gsh_prior.sample"] / calls["gsh_prior.sample"] * 1e3, "ms")
    if "cli.main" in tot:
        m["cli.io_ms"] = ((tot["cli.main"] - tot["cli.denoise_detailed"]) / c["cli.calls"] * 1e3, "ms")
        m["cli.bytes_written"] = (c["cli.bytes_written"] / c["cli.calls"], "bytes")
    return m


def run_workload(args) -> int:
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    if not args.trace:
        setup = [probe(args.workload, args.seed, "setup")[0] for _ in range(SETUP_PROBES // 2)]
        peak_mb = float(probe(args.workload, args.seed, "memory")[1])
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, OUT)
    cls.warm_up(OUT)
    print(machine_facts())

    tr = Tracer()
    times, overheads, failures = [], [], {}
    by_kind: dict[str, list[float]] = {}
    attempted = failed = rounds = 0
    consistent = True
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in wl.ops(rounds):
            t0 = time.perf_counter()
            try:
                out = op.run()
                problems = None
            except Exception as exc:  # a raising operation counts as failed
                problems = [f"raised {exc!r}"]
            dt = time.perf_counter() - t0
            if problems is None:
                if args.trace:
                    s0 = time.perf_counter()
                    staged = op.staged(tr)
                    overheads.append(time.perf_counter() - s0 - dt)
                    profiled = op.profile(tr)
                    if not (op.same(out, staged) and profiled):
                        consistent = False
                        print(f"staged result of {op.label} differs from the untraced call")
                problems = op.check(out)
            attempted += 1
            times.append(dt)
            by_kind.setdefault(op.label.split("/")[0], []).append(dt)
            if problems:
                failed += 1
                failures.setdefault(op.label, problems)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - r0) > args.seconds:
            break
    for label, problems in failures.items():
        print(f"failed {label}: {'; '.join(problems)}")
    print(f"rounds: {rounds}, operations: {attempted}, failed: {failed}")
    if not args.trace:
        setup += [probe(args.workload, args.seed, "setup")[0] for _ in range(SETUP_PROBES // 2)]
        for name, (value, unit) in wl.figures(by_kind).items():
            print(f"figure {name}: {value:.6g} {unit}")

    if args.trace:
        tour, tour_stats = Tracer(), {}
        if not workloads.layer_tour(OUT, tour, tour_stats):
            consistent = False
            print("staged result of the layer tour's CLI call differs from the CLI's")
        own = layer_metrics(tr, rounds, wl.stats)
        own["trace.overhead_ms"] = (statistics.median(overheads) * 1e3, "ms")
        fill = layer_metrics(tour, 1, tour_stats)
        metrics = {name: own.get(name) or fill[name] for name in PER_LAYER}
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"operations": tr.as_dict(), "tour": tour.as_dict()}, fh)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
            "ops_per_s": (ops_per_s(by_kind, rounds), "1/s"),
            "peak_mem_mb": (peak_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({"correct": consistent, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a summary JSON line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "gsh_shrink" / "__init__.py").is_file():
        print(f"error: no gsh_shrink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        return run_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
