#!/usr/bin/env python3
"""Builds and runs the serving benchmark for one workload.

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark binary is built from the
checkout's own sources into $CARGO_TARGET_DIR (default .bench_build), in a
directory named after the checkout, and the metric names and units come from
BENCHMARK.json. With --trace 0 the last stdout
line reports every end-to-end metric, with --trace 1 every per-layer metric.
`--workload all` runs every workload in turn and reports their metrics
prefixed with the workload name; with --trace 1 it reports the end-to-end
metrics too, which a traced run measures before its replay.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # The binary's share of one run's time limit.


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    # One build tree per checkout: CMake records the source path it was
    # configured with, so a tree shared between checkouts would build the
    # first one's sources.
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tag = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, build_root, "perfbench-" + tag)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "serve_bench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "serve_bench")


def source_rev():
    """The git revision when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
            return "git:" + rev
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, deadline):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    args = [binary, f"workload={workload}", f"seed={seed}", f"seconds={seconds}",
            f"trace={trace}", f"out_dir={out_dir}"]
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        raise RuntimeError(f"{workload}: benchmark exited {proc.returncode} without a result")
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace and len(workloads) > 1:
        wanted = bench["end_to_end"] + wanted
    if any(w not in names for w in workloads):
        parser.error(f"--workload must be one of {names} or all")

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    rev = source_rev()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, args.seconds, args.trace,
                              deadline)
        metrics = {}
        for metric in wanted:
            if metric["name"] not in result["metrics"]:
                raise RuntimeError(f"{workload}: metric {metric['name']} was not measured")
            metrics[metric["name"]] = {"value": result["metrics"][metric["name"]],
                                       "unit": metric["unit"]}
        host = dict(result["host"], rev=rev, workload=workload, seed=args.seed,
                    lag_p99_ms=result["metrics"]["loadgen.lag_p99_ms"])
        print("host " + json.dumps(host, sort_keys=True))
        if len(workloads) == 1:
            total = {k: result[k] for k in ("correct", "attempted", "failed")}
            total["metrics"] = metrics
        else:
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, value in metrics.items():
                total["metrics"][f"{workload}.{name}"] = value
    log(f"run.py: {time.monotonic() - start:.1f} s")
    print(json.dumps(total))
    # A wrong answer fails the run, after its result is printed.
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
