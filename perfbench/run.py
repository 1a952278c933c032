#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload exact-stream --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own helper tests

The first call configures and builds perfbench/ (the mochy library from
src/ plus the runner) as a Release build under .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the result object.

A run is SLICES runner processes of seconds / SLICES each, one after the
other on the same inputs, and each metric is the mean over the slices
(peak RSS: the largest). A process keeps the physical placement of its
long-lived memory, and on the host this was tuned on that placement alone
moves a process's MoCHy-E and replay timings by up to 15%, so one process
per run would make the run-to-run spread that placement.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SLICES = 2
RUNNER_TIMEOUT_S = 80


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout", 2)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 1)
    return os.path.join(build_dir, target)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the helper tests instead")
    args = parser.parse_args()

    if args.test:
        sys.exit(subprocess.run([build("perfbench_helpers_test")]).returncode)
    if not args.workload:
        fail("--workload is required", 2)

    runner = build("perfbench_runner")
    rev = source_revision()
    results = []
    for k in range(SLICES):
        command = [runner, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds / SLICES),
                   "--trace", args.trace, "--slice", str(k), "--rev", rev]
        # The runner writes its scratch files under .bench_out in the
        # checkout.
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail(f"runner exceeded {RUNNER_TIMEOUT_S} s", 1)
        if proc.returncode != 0:
            fail(f"runner exited with {proc.returncode}", proc.returncode)
        lines = out.strip().splitlines()
        print(lines[0])  # the slice's host and configuration stamp
        results.append(json.loads(lines[-1]))

    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = max(values) if name == "peak_rss_mb" else sum(values) / len(values)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
