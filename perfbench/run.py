#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
ppq libraries and the benchmark from the checkout's sources into
.bench_build/; later runs rebuild only what changed. Before each run the
benchmark's self-test checks its own percentile and registry helpers.
Everything the run writes stays under .bench_build/ and its working
directory is removed when the run ends.

The last line of standard output is the run's JSON result (see
perfbench/README.md); it must carry every metric BENCHMARK.json lists for
the run (end_to_end with --trace 0, per_layer with --trace 1). Build logs
go to standard error. The exit code is not 0 when the build, the
self-test, an exact-mode check or that metric check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve-sparse", "serve-sharded", "ingest-live")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no ppq sources next to perfbench/ (expected src/CMakeLists.txt)")
        return False
    if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(CMAKE_BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", CMAKE_BUILD, "--target", "ppq_perfbench",
                   "perfbench_selftest", "--", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def missing_metrics(stdout, trace):
    """Metrics BENCHMARK.json lists for the run that its result line lacks
    or carries in another unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    lines = stdout.strip().splitlines()
    try:
        got = json.loads(lines[-1])["metrics"] if lines else {}
    except (ValueError, KeyError, TypeError):
        got = {}
    return [m["name"] for m in wanted
            if got.get(m["name"], {}).get("unit") != m["unit"]]


def source_id():
    """The commit when the checkout is a git repository, else a hash of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    selftest = subprocess.run([os.path.join(CMAKE_BUILD, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        log("self-test failed")
        return 2

    work = os.path.join(BUILD, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    command = [os.path.join(CMAKE_BUILD, "ppq_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--commit", source_id()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE, text=True)
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
        code = result.returncode
        missing = missing_metrics(result.stdout, args.trace)
        if code == 0 and missing:
            log("the result line lacks " + ", ".join(missing))
            code = 5
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        code = 124
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
