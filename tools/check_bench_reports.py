#!/usr/bin/env python3
"""Validate the JSON reports the benches emit.

Usage: check_bench_reports.py [--overhead-baseline BASELINE.json] REPORT.json [...]

These schemas are understood:

* ExecutionReport payloads from the fig7/8/9 benches
  (docs/observability.md): the overlap/halo/critical-path aggregates plus
  per-device, per-stream and per-container breakdowns.
* The runtime-overhead report from bench_overhead
  (docs/performance.md, "bench": "overhead"): enqueue cost,
  compile-vs-cached sequence() timings, and CPU-device kernel dispatch
  (ns per cell through the devirtualized trampoline path at one host
  thread), plus the CG abstraction ratio (one-thread 32^3 cgSolve over
  the hand-written NativeCg, medians of interleaved solves). The
  machine-independent gates are speedup >= 10 (a cached sequence() must
  replay, not recompile) and CG ratio <= 2.5 (both sides are timed in one
  process, so host load cancels out). With --overhead-baseline, the
  enqueue ns_per_op (run wall time over the ops an enqueue hook counted
  in one cached run), the cached-path wall cost and the dispatch
  ns_per_cell are additionally gated at 2x the committed baseline, so a
  hot-path regression fails CI even when the compile path regresses by
  the same factor. The trace section times the Fig. 8 dry-run CG (320^3
  on 8 simulated A100s, standard OCC, 200 fixed iterations) with the
  trace off and on, medians of interleaved solves in one process; its
  on/off ratio is gated at MAX_TRACE_RATIO, so a trace row that grows
  expensive (a lock, an allocation per row) fails CI.
* The multi-tenant traffic replay from bench_service
  (docs/service.md, "bench": "service"): >= 1000 mixed jobs replayed
  both serialized (maxInFlight=1, no batching) and concurrent
  (fair-share + batching) on the same trace. The gates are
  machine-independent because latencies are virtual-time: the
  concurrent mode must complete every job, beat the serialized p99
  latency strictly, and beat the serialized device utilization
  strictly — otherwise the service layer has stopped buying anything
  over a FIFO-of-one.
* The Table I single-device Karman comparison from bench_table1_karman
  (EXPERIMENTS.md, "bench": "table1"): per domain size, MLUPS of Neon on
  one host thread, of the hand-written D2Q9 solver and of Neon on the
  default pool (reported only), with Neon and native timed in interleaved
  reps. The gate is machine-independent because both sides of each ratio
  run in one process: Neon must run on one host thread, and its
  one-thread time may be at most MAX_TABLE1_RATIO times the native
  solver's at every size.
* The Table II single-device LBM comparison from bench_table2_lbm_single
  (EXPERIMENTS.md, "bench": "table2"): MLUPS of the three hand-written
  D3Q19 variants and of Neon on one host thread (plus Neon on the default
  pool, reported only), each timed against the native fused kernel in
  interleaved reps. The gate is machine-independent because both sides
  of the ratio run in one process: Neon must run on one host thread, and
  its one-thread time may be at most 2x the native fused kernel's.
* The adaptive-repartitioning sweep from bench_repartition
  (docs/robustness.md, "bench": "repartition"): a heterogeneous
  dry-run pool (speed factors with a real spread) runs a stencil+map
  pipeline on the static equal slabs and again after a
  measured-rate repartition. The gate is machine-independent because
  utilization is virtual-time: the rebalanced plan must strictly beat
  the static one, fields must actually migrate (migration bytes > 0),
  and the rebalanced plan must differ from the static plan — otherwise
  the repartitioner has degenerated into a no-op.

Exit status is nonzero on the first missing or malformed report, so CI
fails when a bench stops writing its payload.
"""

import argparse
import json
import sys

TOP_LEVEL_KEYS = [
    "window",
    "events",
    "overlapPercent",
    "haloBytes",
    "deviceUtilization",
    "criticalPath",
    "waitTime",
    "devices",
    "streams",
    "containers",
]

DEVICE_KEYS = ["device", "computeBusy", "transferBusy", "overlap", "haloBytes"]

SERVICE_MODE_KEYS = ["p50", "p99", "mean", "utilization", "makespan", "batches", "completed"]
# The bench replays a real multi-tenant trace, not a toy one.
SERVICE_MIN_JOBS = 1000

OVERHEAD_ENQUEUE_KEYS = ["ops_per_run", "runs_measured", "ns_per_op"]
OVERHEAD_SEQUENCE_KEYS = ["repeats", "compile_ns", "cached_ns", "speedup", "cache_hits"]
OVERHEAD_DISPATCH_KEYS = ["cells", "runs_measured", "ns_per_cell"]
OVERHEAD_CG_KEYS = ["cells", "reps", "converged", "neon_ms", "native_ms", "ratio"]
OVERHEAD_TRACE_KEYS = ["devices", "iterations", "reps", "rows", "off_ms", "on_ms", "ratio"]

# A cached sequence() is a recipe replay; anything under this factor means
# it is recompiling (or the cache stopped hitting).
MIN_CACHED_SPEEDUP = 10.0
# Regression headroom against the committed baseline's cached_ns.
BASELINE_SLACK = 2.0
# One-thread Neon CG over the hand-written CG on the same problem, whose dot
# sums in Neon's four-lane order (docs/performance.md, "Flat planes and lane
# reductions"): 0.89-0.94 over 12 runs of a 4-core shared host; the previous
# library's single-chain reductions and row-split maps measured 1.22-1.28
# against the same baseline.
MAX_CG_RATIO = 1.1
# Traced over untraced wall time of the dry-run Fig. 8 CG (docs/performance.md,
# "CI gates"): 1.40-1.76 over 40 runs of the single-writer trace on a 4-core
# shared host; a heap string per row measured 2.05-2.25.
MAX_TRACE_RATIO = 2.0

TABLE1_MLUPS_KEYS = ["neon_1t", "native", "neon_pool"]
# One-thread Neon D2Q9 step over the hand-written solver on the same domain
# (docs/performance.md, "CI gates"): 0.83-1.12 in ten runs over three
# sizes (256x64, 512x128, 1024x256).
MAX_TABLE1_RATIO = 1.5

TABLE2_MLUPS_KEYS = ["native_fused", "native_aa", "native_twopop_indexed", "neon_1t", "neon_pool"]
# One-thread Neon D3Q19 step over the hand-written fused kernel on the same
# 40^3 domain (docs/performance.md, "Lattice kernels"): 1.20-1.52x in ten
# runs with the compile-time lattice directions, 2.91-3.51x in five runs
# with the rolled direction loops they replaced.
MAX_TABLE2_RATIO = 2.0


def load(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), []
    except OSError as exc:
        return None, [f"{path}: cannot read: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"{path}: not valid JSON: {exc}"]


def check_execution_report(path: str, report: dict) -> list[str]:
    errors = []
    for key in TOP_LEVEL_KEYS:
        if key not in report:
            errors.append(f"{path}: missing key '{key}'")
    if errors:
        return errors

    if not 0.0 <= report["overlapPercent"] <= 100.0:
        errors.append(f"{path}: overlapPercent {report['overlapPercent']} out of [0, 100]")
    if report["haloBytes"] < 0:
        errors.append(f"{path}: negative haloBytes")
    if report["criticalPath"] < 0.0:
        errors.append(f"{path}: negative criticalPath")
    if report["events"] <= 0:
        errors.append(f"{path}: no recorded events — was the profiler enabled?")
    if not report["devices"]:
        errors.append(f"{path}: empty device breakdown")
    for dev in report["devices"]:
        for key in DEVICE_KEYS:
            if key not in dev:
                errors.append(f"{path}: device entry missing '{key}'")
                break
    if not report["containers"]:
        errors.append(f"{path}: empty container breakdown")
    return errors


def check_overhead_report(path: str, report: dict, baseline_path: str | None) -> list[str]:
    errors = []
    enqueue = report.get("enqueue")
    sequence = report.get("sequence")
    dispatch = report.get("dispatch")
    cg = report.get("cg")
    trace = report.get("trace")
    if not isinstance(enqueue, dict):
        errors.append(f"{path}: missing 'enqueue' section")
    else:
        for key in OVERHEAD_ENQUEUE_KEYS:
            if key not in enqueue:
                errors.append(f"{path}: enqueue section missing '{key}'")
    if not isinstance(sequence, dict):
        errors.append(f"{path}: missing 'sequence' section")
    else:
        for key in OVERHEAD_SEQUENCE_KEYS:
            if key not in sequence:
                errors.append(f"{path}: sequence section missing '{key}'")
    if not isinstance(dispatch, dict):
        errors.append(f"{path}: missing 'dispatch' section")
    else:
        for key in OVERHEAD_DISPATCH_KEYS:
            if key not in dispatch:
                errors.append(f"{path}: dispatch section missing '{key}'")
    if not isinstance(cg, dict):
        errors.append(f"{path}: missing 'cg' section")
    else:
        for key in OVERHEAD_CG_KEYS:
            if key not in cg:
                errors.append(f"{path}: cg section missing '{key}'")
    if not isinstance(trace, dict):
        errors.append(f"{path}: missing 'trace' section")
    else:
        for key in OVERHEAD_TRACE_KEYS:
            if key not in trace:
                errors.append(f"{path}: trace section missing '{key}'")
    if errors:
        return errors

    if enqueue["ns_per_op"] <= 0:
        errors.append(f"{path}: non-positive ns_per_op")
    if dispatch["ns_per_cell"] <= 0 or dispatch["cells"] <= 0:
        errors.append(f"{path}: non-positive dispatch metrics")
    if sequence["cached_ns"] <= 0 or sequence["compile_ns"] <= 0:
        errors.append(f"{path}: non-positive sequence timings")
    if sequence["cache_hits"] != sequence["repeats"]:
        errors.append(
            f"{path}: only {sequence['cache_hits']}/{sequence['repeats']} cached "
            "sequence() calls hit the schedule cache"
        )
    if sequence["speedup"] < MIN_CACHED_SPEEDUP:
        errors.append(
            f"{path}: cached sequence() only {sequence['speedup']:.1f}x cheaper than "
            f"compile (gate: >= {MIN_CACHED_SPEEDUP:.0f}x) — the cache is not replaying"
        )
    if not cg["converged"] or cg["neon_ms"] <= 0 or cg["native_ms"] <= 0:
        errors.append(f"{path}: cg section malformed or a solve did not converge")
    elif cg["ratio"] > MAX_CG_RATIO:
        errors.append(
            f"{path}: one-thread CG takes {cg['ratio']:.2f}x the hand-written CG "
            f"(gate: <= {MAX_CG_RATIO}x; {cg['neon_ms']:.1f} ms vs {cg['native_ms']:.1f} ms)"
        )
    if trace["rows"] <= 0 or trace["off_ms"] <= 0 or trace["on_ms"] <= 0:
        errors.append(f"{path}: trace section malformed (no rows or non-positive timings)")
    elif trace["ratio"] > MAX_TRACE_RATIO:
        errors.append(
            f"{path}: the traced dry-run CG takes {trace['ratio']:.2f}x the untraced one "
            f"(gate: <= {MAX_TRACE_RATIO}x; {trace['on_ms']:.2f} ms vs {trace['off_ms']:.2f} ms "
            f"over {trace['rows']} rows)"
        )

    if baseline_path is not None:
        baseline, load_errors = load(baseline_path)
        if load_errors:
            return errors + load_errors
        base_enqueue = baseline.get("enqueue", {}).get("ns_per_op")
        if base_enqueue is None:
            errors.append(f"{baseline_path}: baseline missing enqueue.ns_per_op")
        elif enqueue["ns_per_op"] > BASELINE_SLACK * base_enqueue:
            errors.append(
                f"{path}: enqueue cost {enqueue['ns_per_op']:.0f} ns/op exceeds "
                f"{BASELINE_SLACK:.0f}x baseline ({base_enqueue:.0f} ns/op from {baseline_path})"
            )
        base_cached = baseline.get("sequence", {}).get("cached_ns")
        if base_cached is None:
            errors.append(f"{baseline_path}: baseline missing sequence.cached_ns")
        elif sequence["cached_ns"] > BASELINE_SLACK * base_cached:
            errors.append(
                f"{path}: cached sequence() cost {sequence['cached_ns']:.0f} ns exceeds "
                f"{BASELINE_SLACK:.0f}x baseline ({base_cached:.0f} ns from {baseline_path})"
            )
        base_dispatch = baseline.get("dispatch", {}).get("ns_per_cell")
        if base_dispatch is None:
            errors.append(f"{baseline_path}: baseline missing dispatch.ns_per_cell")
        elif dispatch["ns_per_cell"] > BASELINE_SLACK * base_dispatch:
            errors.append(
                f"{path}: dispatch cost {dispatch['ns_per_cell']:.2f} ns/cell exceeds "
                f"{BASELINE_SLACK:.0f}x baseline ({base_dispatch:.2f} ns/cell from "
                f"{baseline_path})"
            )
    return errors


def check_service_report(path: str, report: dict) -> list[str]:
    errors = []
    jobs = report.get("jobs")
    if not isinstance(jobs, int) or jobs < SERVICE_MIN_JOBS:
        errors.append(f"{path}: jobs {jobs!r} below the {SERVICE_MIN_JOBS}-job floor")
    modes = report.get("modes")
    if not isinstance(modes, dict):
        return errors + [f"{path}: missing 'modes' section"]
    for name in ("serialized", "concurrent"):
        mode = modes.get(name)
        if not isinstance(mode, dict):
            errors.append(f"{path}: missing mode '{name}'")
            continue
        for key in SERVICE_MODE_KEYS:
            if key not in mode:
                errors.append(f"{path}: mode '{name}' missing '{key}'")
    if errors:
        return errors

    serialized = modes["serialized"]
    concurrent = modes["concurrent"]
    for name, mode in (("serialized", serialized), ("concurrent", concurrent)):
        if isinstance(jobs, int) and mode["completed"] != jobs:
            errors.append(
                f"{path}: mode '{name}' completed {mode['completed']}/{jobs} jobs"
            )
        if not 0.0 <= mode["utilization"] <= 1.0:
            errors.append(
                f"{path}: mode '{name}' utilization {mode['utilization']} out of [0, 1]"
            )
        if mode["p50"] <= 0.0 or mode["p99"] < mode["p50"]:
            errors.append(
                f"{path}: mode '{name}' latency percentiles malformed "
                f"(p50={mode['p50']}, p99={mode['p99']})"
            )
    if serialized["batches"] != 0:
        errors.append(f"{path}: serialized mode must not batch (got {serialized['batches']})")
    if errors:
        return errors

    # The acceptance gates: concurrent scheduling must strictly beat the
    # FIFO-of-one baseline on BOTH tail latency and device utilization.
    if concurrent["p99"] >= serialized["p99"]:
        errors.append(
            f"{path}: concurrent p99 {concurrent['p99']:.3g}s not below "
            f"serialized p99 {serialized['p99']:.3g}s"
        )
    if concurrent["utilization"] <= serialized["utilization"]:
        errors.append(
            f"{path}: concurrent utilization {concurrent['utilization']:.3f} not above "
            f"serialized {serialized['utilization']:.3f}"
        )
    return errors


def check_table1_report(path: str, report: dict) -> list[str]:
    errors = []
    sizes = report.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        errors.append(f"{path}: missing or empty 'sizes' list")
    else:
        for i, entry in enumerate(sizes):
            mlups = entry.get("mlups") if isinstance(entry, dict) else None
            if not isinstance(mlups, dict):
                errors.append(f"{path}: sizes[{i}] missing 'mlups'")
                continue
            for key in TABLE1_MLUPS_KEYS:
                value = mlups.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    errors.append(
                        f"{path}: sizes[{i}] mlups '{key}' {value!r} is not a positive number"
                    )
            for key in ("nx", "ny", "ratio_1t"):
                if key not in entry:
                    errors.append(f"{path}: sizes[{i}] missing '{key}'")
    if "neon_threads" not in report:
        errors.append(f"{path}: missing 'neon_threads'")
    if errors:
        return errors

    if report["neon_threads"] != 1:
        return [
            f"{path}: Neon ran on {report['neon_threads']} host threads against the "
            "one-thread native solver (is NEON_THREADS set?)"
        ]
    for entry in sizes:
        if entry["ratio_1t"] > MAX_TABLE1_RATIO:
            errors.append(
                f"{path}: one-thread Neon D2Q9 step at {entry['nx']}x{entry['ny']} takes "
                f"{entry['ratio_1t']:.2f}x the native solver (gate: <= {MAX_TABLE1_RATIO}x; "
                f"{entry['mlups']['neon_1t']:.2f} vs {entry['mlups']['native']:.2f} MLUPS)"
            )
    return errors


def check_table2_report(path: str, report: dict) -> list[str]:
    errors = []
    mlups = report.get("mlups")
    if not isinstance(mlups, dict):
        errors.append(f"{path}: missing 'mlups' section")
    else:
        for key in TABLE2_MLUPS_KEYS:
            value = mlups.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"{path}: mlups '{key}' {value!r} is not a positive number")
    for key in ("neon_threads", "ratio_1t"):
        if key not in report:
            errors.append(f"{path}: missing '{key}'")
    if errors:
        return errors

    if report["neon_threads"] != 1:
        errors.append(
            f"{path}: Neon ran on {report['neon_threads']} host threads against "
            "one-thread native kernels (is NEON_THREADS set?)"
        )
    elif report["ratio_1t"] > MAX_TABLE2_RATIO:
        errors.append(
            f"{path}: one-thread Neon D3Q19 step takes {report['ratio_1t']:.2f}x the native "
            f"fused kernel (gate: <= {MAX_TABLE2_RATIO}x; {mlups['neon_1t']:.2f} vs "
            f"{mlups['native_fused']:.2f} MLUPS)"
        )
    return errors


def check_repartition_report(path: str, report: dict) -> list[str]:
    errors = []
    devices = report.get("devices")
    if not isinstance(devices, int) or devices < 2:
        errors.append(f"{path}: devices {devices!r} — need a multi-device pool")
    factors = report.get("speedFactors")
    if not isinstance(factors, list) or len(factors) != devices:
        errors.append(f"{path}: speedFactors {factors!r} must list one factor per device")
    elif min(factors) <= 0.0 or max(factors) == min(factors):
        errors.append(
            f"{path}: speedFactors {factors!r} must be positive and heterogeneous"
        )
    plans = report.get("plans")
    if not isinstance(plans, dict) or "static" not in plans or "rebalanced" not in plans:
        errors.append(f"{path}: missing 'plans' {{static, rebalanced}} section")
    migration = report.get("migration")
    if not isinstance(migration, dict) or "bytes" not in migration:
        errors.append(f"{path}: missing 'migration' section with 'bytes'")
    rebalance = report.get("rebalance")
    if not isinstance(rebalance, dict) or "latency_ms" not in rebalance:
        errors.append(f"{path}: missing 'rebalance' section with 'latency_ms'")
    util = report.get("utilization")
    if not isinstance(util, dict) or any(
        k not in util for k in ("static", "rebalanced", "delta")
    ):
        errors.append(f"{path}: missing 'utilization' {{static, rebalanced, delta}}")
    if errors:
        return errors

    for name in ("static", "rebalanced"):
        if not 0.0 <= util[name] <= 1.0:
            errors.append(f"{path}: utilization '{name}' {util[name]} out of [0, 1]")
    if migration["bytes"] <= 0:
        errors.append(
            f"{path}: migration bytes {migration['bytes']} — the rebalance moved no data"
        )
    if rebalance["latency_ms"] < 0.0:
        errors.append(f"{path}: negative rebalance latency {rebalance['latency_ms']}")
    if plans["rebalanced"] == plans["static"]:
        errors.append(f"{path}: rebalanced plan identical to static plan {plans['static']}")
    if errors:
        return errors

    # The acceptance gate: measured-rate rebalancing must strictly improve
    # utilization over static equal slabs on a heterogeneous mix.
    if util["rebalanced"] <= util["static"]:
        errors.append(
            f"{path}: rebalanced utilization {util['rebalanced']:.3f} not above "
            f"static {util['static']:.3f}"
        )
    return errors


def check(path: str, overhead_baseline: str | None) -> list[str]:
    report, errors = load(path)
    if errors:
        return errors
    if report.get("bench") == "overhead":
        return check_overhead_report(path, report, overhead_baseline)
    if report.get("bench") == "service":
        return check_service_report(path, report)
    if report.get("bench") == "repartition":
        return check_repartition_report(path, report)
    if report.get("bench") == "table1":
        return check_table1_report(path, report)
    if report.get("bench") == "table2":
        return check_table2_report(path, report)
    return check_execution_report(path, report)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--overhead-baseline",
        metavar="BASELINE.json",
        help="committed overhead baseline; gates ns_per_op, cached_ns and ns_per_cell at "
        f"{BASELINE_SLACK:.0f}x the baseline values",
    )
    parser.add_argument("reports", nargs="+", metavar="REPORT.json")
    args = parser.parse_args()

    failed = False
    for path in args.reports:
        errors = check(path, args.overhead_baseline)
        if errors:
            failed = True
            for error in errors:
                print(f"FAIL {error}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
