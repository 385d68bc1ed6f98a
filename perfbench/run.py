#!/usr/bin/env python3
"""perfbench: the repository's benchmark (see perfbench/NOTES.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_workloads from source (Release) under .bench_build/ (or
$CARGO_TARGET_DIR), runs the workload in a fresh process, checks its
outputs, and prints one JSON result line last on stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; an operation is one training epoch. The full report, with
its run manifest, is written next to the build as
perfbench-results/<workload>-s<seed>-t<trace>.json. Exits non-zero when the
program cannot be built or run, or when any check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-drl", "fleet-cohort", "durable-chaos")
CHILD_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return args


def build(build_root):
    """Configures (once) and builds the program; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no FedMigr sources next to %s; run from a full checkout"
             % BENCH_DIR.name)
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_root / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file() or (BENCH_DIR / "CMakeLists.txt").stat().st_mtime \
            > cache.stat().st_mtime:
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_workloads", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed_log:
                    sys.stderr.write(failed_log.read()[-4000:])
                fail("build failed (%s)" % " ".join(step[:2]))
    return build_dir / "perfbench_workloads"


def cpu_ticks():
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def load_average():
    try:
        with open("/proc/loadavg") as loadavg:
            return [float(x) for x in loadavg.read().split()[:3]]
    except (OSError, ValueError):
        return []


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """Git sha when the checkout is a repository, and always a digest of
    the simulator sources, so a result can be traced to the code it ran."""
    sha = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)

    run_name = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    out_dir = build_root / "perfbench-out" / run_name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    git_sha, src_sha256 = source_identity()
    steal0, total0 = cpu_ticks()
    load0 = load_average()
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--out-dir", str(out_dir)]
    try:
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (run_name, CHILD_TIMEOUT_S))
    steal1, total1 = cpu_ticks()
    sys.stderr.write(child.stderr)
    if child.returncode != 0 or not child.stdout.strip():
        fail("perfbench_workloads exited with code %d" % child.returncode)
    report = json.loads(child.stdout.strip().splitlines()[-1])

    problems = list(report["failures"])
    metrics = {}
    for entry in wanted:
        got = report["metrics"].get(entry["name"])
        if got is None or not math.isfinite(got["value"]):
            problems.append("metric %s missing or not finite" % entry["name"])
            continue
        if got["unit"] != entry["unit"]:
            problems.append("metric %s has unit %s, want %s"
                            % (entry["name"], got["unit"], entry["unit"]))
        if not args.trace and got["value"] <= 0:
            problems.append("end-to-end metric %s is not positive"
                            % entry["name"])
        metrics[entry["name"]] = got
    if args.trace:
        checker = ROOT / "tools" / "check_trace.py"
        trace_file = out_dir / "trace.json"
        checked = subprocess.run([sys.executable, str(checker),
                                  str(trace_file)], capture_output=True,
                                 text=True, timeout=60)
        if checked.returncode != 0:
            problems.append("trace failed tools/check_trace.py: "
                            + (checked.stdout + checked.stderr).strip())

    manifest = dict(report["manifest"])
    manifest.update({
        "git_sha": git_sha,
        "src_sha256": src_sha256,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "load_avg_start": load0,
        "load_avg_end": load_average(),
        "steal_ticks_start": steal0,
        "steal_ticks_end": steal1,
        "steal_frac": ((steal1 - steal0) / (total1 - total0)
                       if total1 > total0 else 0.0),
    })
    correct = not problems
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    if problems and failed == 0:
        failed = attempted  # a run-level check failed: no epoch is trusted
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    results_dir = build_root / "perfbench-results"
    results_dir.mkdir(parents=True, exist_ok=True)
    full = dict(report, manifest=manifest, problems=problems, result=result)
    (results_dir / (run_name + ".json")).write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n")

    print("manifest: " + json.dumps(manifest, sort_keys=True))
    print("outputs: " + json.dumps(report["outputs"], sort_keys=True))
    print("samples: %d passes (%d traced), %d epochs, %d set-ups"
          % (report["passes"], report["traced_passes"],
             report["epoch_samples"], report["setup_samples"]))
    for problem in problems:
        print("check failed: " + problem)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
