#!/usr/bin/env python3
"""Repository benchmark: host time of core::Simulator runs on batch workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/perfbench.cpp
and the simulator sources into .bench_build/perfbench (Release), runs the
named workload from perfbench/workloads.json in a process of its own, checks
every simulation run, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from untraced runs (profiler,
metrics registry and observers off):
  tasks_per_s   submitted tasks / wall time of RunWithWorkload, median of
                the runs made in S seconds (at least three)
  setup_s       Simulator constructor + workload generation, median of at
                least 25 set-ups; not part of tasks_per_s
  peak_rss_mb   peak RSS of the process, which runs only this workload,
                read after its first run
--trace 1 makes one traced run between two plain runs and reports the
per-layer split (see perfbench.cpp for the segment definitions).

A run fails if RunWithWorkload throws, if the end-of-run AuditStructures()
reports a violation, or if the digest of its CsvReportRow differs from the
reference digest in perfbench/reference.json for that (workload, seed). A
seed without a reference must give the same digest on all of its runs.

Maintenance options:
  --make-reference   run the literal scan kernels once and record the digest
                     for (workload, seed) in perfbench/reference.json
  --wrong-reference  self-check: compare against a corrupted reference, so
                     every run fails and "failed" equals "attempted"
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = os.path.join(HERE, "workloads.json")
REFERENCE = os.path.join(HERE, "reference.json")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 900


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and (re)builds perfbench; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def drive(config, seed, seconds, trace, scan=False):
    """Runs the perfbench binary once and returns its parsed JSON output."""
    cmd = [BINARY,
           "--nodes", str(config["nodes"]),
           "--tasks", str(config["tasks"]),
           "--mode", config["mode"],
           "--monitoring", "1" if config["monitoring"] else "0",
           "--seed", str(seed),
           "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--scan", "1" if scan else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_failed(run, expected):
    return bool(run["error"]) or run["violations"] != 0 or \
        run["digest"] != expected


def make_reference(name, config, seed):
    out = drive(config, seed, 0, trace=False, scan=True)
    run = out["runs"][0]
    if run["error"] or run["violations"] != 0:
        fail(f"reference run failed: {run['error'] or 'audit violations'}")
    with open(REFERENCE, "r+") as f:
        fcntl.flock(f, fcntl.LOCK_EX)  # references may be made in parallel
        refs = json.load(f)
        refs.setdefault(name, {})[str(seed)] = run["digest"]
        f.seek(0)
        f.truncate()
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{name} seed {seed}: {run['digest']} "
          f"(scan kernels, {run['run_s']:.1f} s)")


def check_contract(trace, metrics):
    """The printed metric names must be the ones BENCHMARK.json lists."""
    if not os.path.exists(CONTRACT):
        return
    with open(CONTRACT) as f:
        contract = json.load(f)
    listed = {m["name"] for m in contract["per_layer" if trace else
                                          "end_to_end"]}
    if listed != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ listed)} differ between "
             f"BENCHMARK.json and the benchmark output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args()

    with open(WORKLOADS) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(workloads)}")
    config = workloads[args.workload]["config"]
    build()
    if args.make_reference:
        make_reference(args.workload, config, args.seed)
        return

    out = drive(config, args.seed, args.seconds, args.trace == 1)
    runs = out["runs"]
    with open(REFERENCE) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))
    if expected is None:
        expected = runs[0]["digest"]  # self-consistency across the runs
    if args.wrong_reference:
        expected = "wrong-" + expected
    failed = sum(run_failed(run, expected) for run in runs)

    if args.trace:
        metrics = dict(out["layers"])
        metrics["failed_frac"] = {"value": failed / len(runs),
                                  "unit": "ratio"}
    else:
        rates = [run["tasks"] / run["run_s"] for run in runs]
        metrics = {
            "tasks_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(out["setup_samples_s"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    check_contract(args.trace == 1, metrics)

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} runs={len(runs)} failed={failed} "
          f"hardware_threads={out['hardware_threads']} "
          f"build_type={out['build_type']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
