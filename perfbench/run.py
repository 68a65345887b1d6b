#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <churn-ae|softstate-100k>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later calls only re-check the build. The workload
program's last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json lists. The exit status is 0 only when the
build succeeded, every output check passed and the metrics match
BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "topo_perfbench")
WORKLOADS = ("churn-ae", "softstate-100k")
PARALLEL_WORKLOADS = ("softstate-100k",)
# softstate-100k's worker threads: two leave the shared machine's other
# cores to everything else, so the rates measure the program rather than
# the scheduler. The build uses up to four jobs.
WORKLOAD_THREADS = 2
BUILD_JOBS = 4


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def threads():
    return max(1, min(WORKLOAD_THREADS, available_cpus()))


def build():
    """Configures and builds topo_perfbench; build output goes to stderr.
    Holds a lock so runs started side by side do not build over each other.
    """
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no program sources (src/) in this checkout",
              file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(BUILD_DIR + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return build_locked()


def build_locked():
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(max(1, min(BUILD_JOBS, available_cpus())))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def catalogue(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    # churn-ae is single-threaded like the facade. THREADS sizes
    # softstate-100k's worker pool and the program's global pool (RTT
    # engine and world builds).
    workers = threads() if args.workload in PARALLEL_WORKLOADS else 1
    env = dict(os.environ, THREADS=str(workers))
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        print("run.py: workload exited with status %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = catalogue(args.trace == 1)
    if got != expected:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(expected) - set(got)),
                 sorted(set(got) - set(expected))), file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
