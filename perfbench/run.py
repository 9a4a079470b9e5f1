#!/usr/bin/env python3
"""End-to-end benchmark of the dragonfly simulator.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload paper-advc --seed 1 --seconds 10 --trace 0

builds the harness (perfbench/CMakeLists.txt, Release, into
$CARGO_TARGET_DIR or .bench_build) from the sources in the checkout, runs
the workload for --seconds, and prints a provenance line followed by the
result line {"correct", "attempted", "failed", "metrics"}.

Steadiness mode runs the workloads alternately N times on seeds
1..N and prints each metric's median, quartiles and spread:

    python3 perfbench/run.py --steady 10 --seconds 10

Self-tests of the output checks:

    python3 perfbench/run.py --self-test
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-advc", "paper-scale-advc", "service-explore", "jobs-churn"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(targets):
    """Configure (Release) and build; exits non-zero when that fails."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(out, "CMakeCache.txt")
        release = os.path.exists(cache) and "CMAKE_BUILD_TYPE:STRING=Release" in open(cache).read()
        steps = []
        if not release:
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(min(cpus(), 4)), "--target"] + targets)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                log("perfbench: build step failed:", " ".join(cmd))
                sys.exit(2)
    return out


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def run_once(out, workload, seed, seconds, trace, provenance):
    """Run the harness; returns (stdout lines, return code)."""
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--source-digest", provenance[0], "--git-commit", provenance[1]]
    if trace:
        cmd += ["--trace-out", os.path.join(out, "trace-%s-%s.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return [], 124
    return proc.stdout.splitlines(), proc.returncode


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return {m["name"]: m.get("bound") for m in json.load(f).get("end_to_end", [])}


def steady(args, out, provenance):
    values = {w: {} for w in WORKLOADS}
    failed_share = {w: set() for w in WORKLOADS}
    first = {}
    for rep in range(args.steady):
        # Alternate the order so no workload always runs after the same one.
        order = WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            lines, code = run_once(out, w, rep + 1, args.seconds, 0, provenance)
            if code != 0 or not lines:
                log("perfbench: %s seed %d exited %d" % (w, rep + 1, code))
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                log("perfbench: %s seed %d reported incorrect output" % (w, rep + 1))
                return 1
            if rep == 0:
                first[w] = json.loads(lines[0])
            failed_share[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log("%s seed %d: %s" % (w, rep + 1, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})))
    # Same seed again: every count, digest and hash must repeat exactly.
    repeat_ok = True
    for w in WORKLOADS:
        lines, code = run_once(out, w, 1, args.seconds, 0, provenance)
        again = json.loads(lines[0]) if code == 0 and lines else {}
        for key in ("counts", "sessions", "results_digest"):
            if again.get(key) != first[w].get(key):
                log("perfbench: %s seed 1 repeat differs in %s" % (w, key))
                repeat_ok = False
    limits = bounds()
    report = {}
    for w in WORKLOADS:
        report[w] = {"failed_share": sorted(failed_share[w])}
        for name, vals in values[w].items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = limits.get(name)
            report[w][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound,
                "within_third_of_bound": None if bound is None else spread < bound / 3,
            }
    report["repeat_counts_identical"] = repeat_ok
    print(json.dumps(report, indent=1))
    return 0 if repeat_ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        out = build(["perfbench_checks_test"])
        return subprocess.run([os.path.join(out, "perfbench_checks_test")]).returncode
    if args.steady is None and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required (or --steady N / --self-test)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    out = build(["perfbench"])
    provenance = (source_digest(), git_commit())
    if args.steady is not None:
        return steady(args, out, provenance)
    lines, code = run_once(out, args.workload, args.seed, args.seconds, args.trace,
                           provenance)
    if code != 0:
        return code
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
