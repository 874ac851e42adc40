#!/usr/bin/env python3
"""The repository benchmark: builds nfbench, runs the workloads, checks their
outputs and prints every metric by name with its unit.

Run from the repository root:

  python3 bench/e2e/run.py             # --repeats timed runs per workload
  python3 bench/e2e/run.py --sets=2    # two sets; fails if a median moves
                                       # by more than its bound
  python3 bench/e2e/run.py --trace=1   # adds a traced run per workload and
                                       # prints the per-layer table
  python3 bench/e2e/run.py --smoke     # parity gate plus a smoke-size run
                                       # of each workload
  python3 bench/e2e/run.py --workload=W --seed=N --seconds=S --trace=0|1
                                       # one timed run; the last line of
                                       # stdout is its JSON result

A timed run starts instances of one workload, each a fresh nfbench process
whose seed is derived from --seed, until --seconds have passed (at least
three instances).  wall_s is the mean host seconds per instance, setup_s the
fastest instance's set-up and peak_rss_mb the median over instances.  A
traced run runs every instance's inputs twice, untraced and traced, and
reports the traced per-layer metrics averaged over instances.  Metric names,
units and bounds come from BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "e2e"
NFBENCH = BUILD / "nfbench"
MIN_INSTANCES = 3
INSTANCE_TIMEOUT_S = 170
MASK64 = (1 << 64) - 1

# The report modes add two throughput views and the failure ratio to
# BENCHMARK.json's end-to-end metrics.  At fixed inputs each throughput is a
# reciprocal of wall_s, so it shares wall_s's bound.
REPORT_METRICS = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("flows_per_s", "flows/s"),
    ("sim_ms_per_s", "ms/s"),
    ("incomplete_frac", "ratio"),
]
PERMUTATION = "packet-permutation"


def applies(metric, workload):
    """flows_per_s is for the FCT workloads, sim_ms_per_s for permutation."""
    if metric == "flows_per_s":
        return workload != PERMUTATION
    if metric == "sim_ms_per_s":
        return workload == PERMUTATION
    return True


def fail(message):
    sys.exit(f"run.py: {message}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no repository sources to build nfbench from")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            *generator], stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "nfbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"building nfbench failed: {err}")


def instance_seed(seed, k):
    """splitmix64 of (seed, k): the k-th instance's inputs of a run."""
    z = (seed * 0x9E3779B97F4A7C15 + (k + 1) * 0xD1B54A32D192ED03) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def nfbench(workload, seed, smoke=False, trace_file=None):
    """One instance.  Returns nfbench's JSON result plus "passed"."""
    cmd = [str(NFBENCH), f"--workload={workload}", f"--seed={seed}"]
    if smoke:
        cmd.append("--smoke")
    if trace_file is not None:
        cmd.append(f"--trace={trace_file}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} took over {INSTANCE_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    # Exit 1 still prints a result: a correctness check failed.
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["passed"] = proc.returncode == 0
    for violation in result["violations"]:
        print(f"{workload} seed {seed}: {violation}", file=sys.stderr)
    return result


def timed_run(workload, seed, seconds, traced=False):
    """Instances until `seconds` pass; returns (untraced, traced) results."""
    untraced, traced_results = [], []
    trace_file = BUILD / f"trace-{workload}.json"
    start = time.monotonic()
    k = 0
    while k < MIN_INSTANCES or time.monotonic() - start < seconds:
        inputs = instance_seed(seed, k)
        passes = [False, True] if traced else [False]
        if k % 2:
            # Alternate which pass goes first: the second run of the same
            # inputs tends to be faster, which would bias trace.overhead.
            passes.reverse()
        for with_trace in passes:
            result = nfbench(workload, inputs,
                             trace_file=trace_file if with_trace else None)
            (traced_results if with_trace else untraced).append(result)
        k += 1
    return untraced, traced_results


def end_to_end(instances):
    wall = sum(i["wall_s"] for i in instances)
    return {
        "wall_s": wall / len(instances),
        # Set-up is the first 1-25 ms of a process, and on a shared VM the
        # same page faults cost either x or ~1.6x from one process to the
        # next; the median flips between the two modes, the minimum does not.
        "setup_s": min(i["setup_s"] for i in instances),
        "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in instances),
        "flows_per_s": sum(i["served"] for i in instances) / wall,
        "sim_ms_per_s": sum(i["sim_s"] for i in instances) * 1e3 / wall,
        "incomplete_frac": sum(i["failed"] for i in instances) /
                           sum(i["attempted"] for i in instances),
    }


def per_layer(untraced, traced):
    """Traced metrics averaged over instances, plus the tracing overhead
    measured on the same inputs."""
    metrics = {name: statistics.fmean(t["layers"][name] for t in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead"] = (sum(t["wall_s"] for t in traced) /
                                 sum(u["wall_s"] for u in untraced) - 1)
    return metrics


def timed_result(args, spec):
    build()
    untraced, traced = timed_run(args.workload, args.seed, args.seconds,
                                 traced=args.trace == 1)
    if args.trace:
        measured, wanted = per_layer(untraced, traced), spec["per_layer"]
    else:
        measured, wanted = end_to_end(untraced), spec["end_to_end"]
    runs = untraced + traced
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["passed"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def quartiles(values):
    """(p25, median, p75)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def print_set(title, runs, workloads):
    print(f"\n{title}: median [p25, p75] over n timed runs")
    print(f"{'workload':20s} {'metric':16s} {'unit':8s} {'median':>12s} "
          f"{'p25':>12s} {'p75':>12s} {'n':>3s}")
    for workload in workloads:
        for metric, unit in REPORT_METRICS:
            if not applies(metric, workload):
                continue
            values = [r[metric] for r in runs[workload]]
            q1, median, q3 = quartiles(values)
            print(f"{workload:20s} {metric:16s} {unit:8s} {median:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {len(values):3d}")


def compare_sets(first, second, workloads, bounds):
    """True when every median of the second set is within its bound of the
    first's, and no flow failed in either."""
    ok = True
    print("\nset 2 vs set 1: relative change of the median")
    for workload in workloads:
        for metric, _ in REPORT_METRICS:
            if not applies(metric, workload):
                continue
            a = statistics.median(r[metric] for r in first[workload])
            b = statistics.median(r[metric] for r in second[workload])
            if metric == "incomplete_frac":
                agrees, change, bound = a == 0 and b == 0, b - a, 0.0
            else:
                change, bound = (b - a) / a, bounds[metric]
                agrees = abs(change) <= bound
            ok &= agrees
            print(f"{workload:20s} {metric:16s} {change:+9.4f} "
                  f"(bound {bound:.2f}) {'ok' if agrees else 'DISAGREES'}")
    return ok


def traced_table(args, spec, workloads):
    """One traced run per workload; returns whether every instance passed."""
    ok = True
    columns = {}
    for workload in workloads:
        untraced, traced = timed_run(workload, args.seed, args.seconds,
                                     traced=True)
        ok &= all(r["passed"] for r in untraced + traced)
        columns[workload] = per_layer(untraced, traced)
    print("\nper-layer metrics, traced run (mean over instances)")
    print(f"{'metric':28s} {'unit':6s} " +
          " ".join(f"{w:>18s}" for w in workloads))
    for m in spec["per_layer"]:
        print(f"{m['name']:28s} {m['unit']:6s} " + " ".join(
            f"{columns[w][m['name']]:18.6g}" for w in workloads))
    return ok


def report(args, spec, workloads):
    build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["flows_per_s"] = bounds["sim_ms_per_s"] = bounds["wall_s"]
    sets = []
    ok = True
    for set_index in range(args.sets):
        # Interleaved: repeat r of every workload runs before repeat r + 1.
        # Repeat r uses seed + r in every set, so sets differ only by noise.
        runs = {w: [] for w in workloads}
        for r in range(args.repeats):
            for workload in workloads:
                untraced, _ = timed_run(workload, args.seed + r, args.seconds)
                ok &= all(i["passed"] for i in untraced)
                runs[workload].append(end_to_end(untraced))
        sets.append(runs)
        print_set(f"set {set_index + 1}", runs, workloads)
    if len(sets) == 2:
        ok &= compare_sets(sets[0], sets[1], workloads, bounds)
    if args.trace:
        ok &= traced_table(args, spec, workloads)
    print(f"\n{'all checks passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def smoke(args, workloads):
    build()
    try:
        ok = subprocess.run([str(NFBENCH), "--check", f"--seed={args.seed}"],
                            timeout=INSTANCE_TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        fail(f"the parity gate took over {INSTANCE_TIMEOUT_S} s")
    for workload in workloads:
        plain = nfbench(workload, args.seed, smoke=True)
        traced = nfbench(workload, args.seed, smoke=True,
                         trace_file=BUILD / f"trace-{workload}-smoke.json")
        passed = plain["passed"] and traced["passed"]
        ok &= passed
        print(f"smoke {workload:20s} wall {plain['wall_s']:.3f} s, "
              f"{plain['served']}/{plain['attempted']} flows served, "
              f"trace coverage {traced['layers']['trace.coverage']:.4f}: "
              f"{'ok' if passed else 'FAILED'}")
    print("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one timed run of this workload (JSON result)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of one timed run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs per workload and set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.repeats < 1:
        parser.error("--seed must be >= 0 and --repeats >= 1")
    if args.workload is not None:
        return timed_result(args, spec)
    if args.smoke:
        return smoke(args, names)
    return report(args, spec, names)


if __name__ == "__main__":
    sys.exit(main())
