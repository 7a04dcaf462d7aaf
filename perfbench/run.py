#!/usr/bin/env python3
"""Build and run the Neon benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload cg-solve --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10

The first call configures and builds perfbench/ (the library from src/ plus
the benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only rebuild what changed. One workload prints the
program's '#' report lines and then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, the per_layer metrics with --trace 1.
--workload all runs every workload in both modes, prints one table of every
metric, and exits non-zero unless every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXPECTED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "neon_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")
    return out / "neon_perfbench"


def child_env():
    # The program fixes engine, pool width and checking modes itself.
    return {k: v for k, v in os.environ.items() if not k.startswith("NEON_")}


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; returns (stdout lines, result dict of the last)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", str(ROOT / ".bench_out")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py: {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    expected = EXPECTED[trace]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise SystemExit(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"unexpected {extra}, unit mismatch {wrong}")
    return lines, result


def run_all(binary, seed, seconds):
    """Every workload, untraced then traced; one table of every metric."""
    rows = []
    ok = True
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            lines, result = run_one(binary, workload, seed, seconds, trace)
            log(f"{workload} trace {trace}: {time.monotonic() - t0:.1f} s, "
                f"correct={result['correct']}")
            for line in lines[:-1]:
                if "check" in line:
                    print(f"{workload:12s} {line}")
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                rows.append((workload, "end_to_end" if trace == 0 else "per_layer", name,
                             m["value"], m["unit"]))
    print(f"{'workload':12s} {'kind':10s} {'metric':32s} {'value':>16s} unit")
    for workload, kind, name, value, unit in rows:
        print(f"{workload:12s} {kind:10s} {name:32s} {value:16.6g} {unit}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "seed": seed}))
    return 0 if ok and failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    lines, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
