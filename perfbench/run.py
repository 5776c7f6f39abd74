"""The repository's end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-estimate --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``cold-estimate``, ``pool-runs``, ``service-jobs`` (see
``METHODOLOGY.md``).  ``--trace 0`` measures the end-to-end metrics
with no instrumentation installed; ``--trace 1`` installs the layer
wrappers and reports the per-layer metrics instead.  The program runs
from ``src/`` of the checkout; the native-kernel build cache, temporary
files and service state go to ``.bench_build/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
the ones ``BENCHMARK.json`` lists for the chosen mode.  Every metric
computed, listed or not, is printed above it by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# Units of every metric the benchmark computes.
UNITS = {
    "setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
    "ops_per_s": "1/s", "fail_frac": "ratio", "units_per_op": "units",
    "converged_frac": "ratio", "rel_err_p50": "ratio",
    "miss_eps_frac": "ratio", "peak_rss_mb": "MiB",
}


def prepare_environment() -> None:
    """Keep every file the run writes inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run the benchmark "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    for sub in ("cache", "tmp"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    sys.path.insert(0, str(SRC))


def listed_metrics(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def layer_metrics(agg: dict, local_op: dict, ops: int, jobs: dict) -> dict:
    """Per-layer metrics from the merged span aggregate, per operation."""
    from tracing import empty_row

    per = max(ops, 1)

    def row(name):
        return agg.get(name, empty_row())

    kernel, batch = row("sim.kernel"), row("sim.batch")
    weibull, gpd = row("evt.weibull_fit"), row("evt.gpd_fit")
    wait = row("service.wait")
    pairs = kernel["pairs"] + batch["pairs"]
    invocations = batch["batched_kernel_calls"]
    m = {
        "netlist.load_s": row("netlist.load")["total_s"] / per,
        "sim.analyzer_setup_s": row("sim.analyzer_setup")["total_s"] / per,
        "sim.net_caps_s": row("sim.net_caps")["total_s"] / per,
        "sim.plan_compile_s": row("sim.plan_compile")["total_s"] / per,
        "sim.kernel_s": kernel["total_s"] / per,
        "sim.kernel_calls": kernel["calls"] / per,
        "sim.kernel_pairs": pairs / per,
        "sim.kernel_pairs_per_s": (
            pairs / kernel["total_s"] if kernel["total_s"] > 0 else 0.0
        ),
        "sim.batch_requests": batch["calls"] / per,
        "sim.batch_invocations": invocations / per,
        "sim.batch_fuse_ratio": (
            1.0 - invocations / batch["calls"] if batch["calls"] else 0.0
        ),
        "sim.batch_wait_s": (
            batch["total_s"] - batch["batched_kernel_s"]
        ) / per,
        "vectors.generate_s": row("vectors.generate")["total_s"] / per,
        "vectors.pairs": row("vectors.generate")["pairs"] / per,
        "vectors.build_s": row("vectors.build")["self_s"] / per,
        "vectors.sample_s": row("vectors.sample")["self_s"] / per,
        "vectors.sample_calls": row("vectors.sample")["calls"] / per,
        "evt.weibull_fit_s": weibull["total_s"] / per,
        "evt.weibull_fit_calls": weibull["calls"] / per,
        "evt.fit_fallback_frac": (
            weibull["errors"].get("FitError", 0) / weibull["calls"]
            if weibull["calls"] else 0.0
        ),
        "evt.gpd_fit_s": gpd["total_s"] / per,
        "evt.gpd_fit_calls": gpd["calls"] / per,
        "estimation.run_self_s": sum(
            row(n)["self_s"] for n in (
                "estimation.run", "estimation.hyper_sample",
                "estimation.run_many",
            )
        ) / per,
        "estimation.hyper_samples": row("estimation.hyper_sample")["calls"] / per,
        "estimation.adaptive_pilot_s": row("estimation.adaptive_pilot")["total_s"] / per,
        "service.submit_s": row("service.submit")["total_s"] / per,
        "service.wait_s": wait["total_s"] / per,
        "service.result_s": row("service.result")["total_s"] / per,
        "service.status_polls_per_job": (
            row("service.status")["calls"] / wait["calls"] if wait["calls"] else 0.0
        ),
        "service.queue_wait_s": 0.0,
        "service.run_s": 0.0,
        "service.notify_lag_s": 0.0,
        "service.memo_hit_frac": 0.0,
        "service.rejected_frac": 0.0,
        "trace.unattributed_frac": (
            local_op["self_s"] / local_op["total_s"] if local_op["total_s"] else 0.0
        ),
    }
    m.update(jobs)
    return m


def make_workload(name: str, seed: int, trace: bool):
    import workloads

    if name == "cold-estimate":
        return workloads.ColdEstimate(seed)
    if name == "pool-runs":
        return workloads.PoolRuns(seed)
    return workloads.ServiceJobs(seed, BUILD, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-estimate", "pool-runs", "service-jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    prepare_environment()
    wanted = listed_metrics("per_layer" if args.trace else "end_to_end")

    import repro.api  # noqa: F401 - first import also builds the C kernel
    from repro.sim.compiled import resolve_kernel
    from repro.sim.native import backend_name

    import stats
    import tracing
    import workloads

    kernel_tier = resolve_kernel(None, probe=True)
    native_backend = backend_name() or "none"
    workload = make_workload(args.workload, args.seed, bool(args.trace))
    tracer = tracing.Tracer() if args.trace else None
    uninstall, missing = (
        tracing.install(tracer) if tracer is not None else (lambda: None, [])
    )
    service = isinstance(workload, workloads.ServiceJobs)
    traced_start = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("setup"):
                setup_times = workload.setup(1)
        else:
            setup_times = workload.setup(workloads.SETUP_REPS)
        peak_reset = (
            workload.server_peak_reset if service
            else workloads.peak_rss_reset()
        )
        records, cycles = workload.run(args.seconds, tracer)
        traced_wall = time.perf_counter() - traced_start
        peak = (
            workload.server_peak_rss_mb() if service
            else workloads.peak_rss_mb()
        )
        uninstall()  # the bit-identity checks below run untraced
        if service:
            workload.check()
    finally:
        uninstall()
        workload.close()

    summary = stats.summarize(records, cycles)
    summary["setup_s"] = statistics.median(setup_times)
    summary["peak_rss_mb"] = peak
    print(f"workload {args.workload}  seed {args.seed}  "
          f"window {sum(cycles):.2f} s  cycles {len(cycles)}  "
          f"ops {summary['attempted']}  "
          f"kernel tier {kernel_tier}  native backend {native_backend}")
    print(f"setup samples (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    if not peak_reset:
        print("note: peak RSS could not be reset after set-up; "
              "peak_rss_mb includes set-up")
    for rec in records:
        if rec.failed:
            print(f"FAILED {rec.label}: {rec.error or ''} "
                  f"{'; '.join(rec.check_failures)}", file=sys.stderr)

    if not args.trace:
        for name, unit in UNITS.items():
            value = summary[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<16} {shown:>12} {unit}")
        print(f"  latency_tail_s is p{summary['latency_tail_percentile']:.1f} "
              f"of {summary['attempted']} ops "
              f"({summary['latency_tail_beyond']} beyond it)")
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in wanted.items()}
    else:
        agg_local = tracing.aggregate(list(tracer.spans), "other")
        cost = tracing.span_cost_s()
        overhead_s = tracer.calls * cost
        server = workload.server_spans() if service else None
        aggs = [agg_local]
        if server is not None:
            aggs.append(server["aggregate"])
            overhead_s += server["wrapper_calls"] * server["span_cost_s"]
        agg = tracing.merge(*aggs)
        op_row = tracing.merge(
            {p: {"op": r["op"]} for p, r in agg_local.items() if "op" in r}
        ).get("op", tracing.empty_row())
        values = layer_metrics(
            agg, op_row, len(records),
            workload.job_timings() if service else {},
        )
        exp, probe_times = workloads.setup_scaling_exp()
        values["sim.setup_scaling_exp"] = exp
        values["trace.overhead_frac"] = overhead_s / traced_wall
        table_aggs = dict(agg_local)
        if server is not None:
            table_aggs.update(server["aggregate"])
        print(tracing.layer_table(table_aggs, len(records)))
        print(f"set-up scaling probe: PowerAnalyzer construction "
              + ", ".join(f"{g} gates {t:.3f} s" for g, t in probe_times.items()))
        if missing:
            print("not instrumented (absent from the program): "
                  + ", ".join(missing))
        for name in sorted(values):
            print(f"  {name:<30} {values[name]:>14.6g}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in wanted.items()}

    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
