#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload bulk_xdr --seed 1 --seconds 10 --trace 0

builds the perfbench driver (CMake, Release) under .bench_build/ in the
checkout, runs the workload and passes its output through; the last line of
stdout is the JSON result. Extra flags (--small, --corrupt-one) go to the
driver unchanged.

Every workload:

    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

runs each workload untraced and traced, prints every end-to-end metric by
name with its unit, and writes the traced per-layer tables to
.bench_build/perfbench/report.txt. It exits non-zero if any run fails its
self-check.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("bulk_xdr", "small_rpc", "many_flows")


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the repository sources (src/) are missing")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")


def parse_result(stdout):
    """The JSON object on the last non-empty line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    return result


def render_metrics(workload, result):
    """One aligned line per metric: workload, name, value, unit."""
    rows = []
    for name, m in result["metrics"].items():
        rows.append("%-11s %-34s %16.6g %s" % (workload, name, m["value"], m["unit"]))
    attempted = result["attempted"]
    rows.append("%-11s %-34s %16.6g %s" % (
        workload, "adu_fail_frac", result["failed"] / attempted if attempted else 0,
        "frac"))
    rows.append("%-11s %-34s %16s" % (
        workload, "self_check", "pass" if result["correct"] else "FAIL"))
    return "\n".join(rows)


def layer_table(stdout):
    """The traced run's per-layer table: the lines before the metric list."""
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("layer ")), None)
    if start is None:
        return ""
    end = next((i for i in range(start, len(lines))
                if lines[i].startswith("  of which")), len(lines) - 1)
    return "\n".join(lines[start:end + 1])


def run_all(seed, seconds):
    ok = True
    report = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [str(BINARY), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE, text=True)
            try:
                result = parse_result(proc.stdout)
            except ValueError as e:
                print("%s trace %s: no result (%s)" % (workload, trace, e))
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            if trace == "0":
                print(render_metrics(workload, result))
            else:
                report.append("== %s (traced, seed %s)\n%s\n%s\n" % (
                    workload, seed, layer_table(proc.stdout),
                    render_metrics(workload, result)))
    (BUILD / "report.txt").write_text("\n".join(report))
    print("per-layer tables: %s" % (BUILD / "report.txt"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args, extra = ap.parse_known_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    build()
    if args.all:
        return run_all(args.seed, args.seconds)
    sys.stdout.flush()
    return subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace] + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
