#!/usr/bin/env python3
"""Builds and runs the GeoLic benchmark for one workload.

    python3 geobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program from source (Release, into .bench_build/geobench
of the checkout), runs the benchmark's arithmetic self-test, then runs the
program.
Journals and spills go to .bench_build/geobench-data, a directory of the
checkout's own filesystem, never $TMPDIR; with --trace 1 the spans are
written to .bench_build/geobench-spans. The last line of standard output is
the program's JSON result. Exits nonzero, without a result, if the build,
the self-test or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "geobench")
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "geobench")
# The benchmark program is stopped if it runs longer than this.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"# run.py: {message}", file=sys.stderr, flush=True)


def call(args, timeout):
    """Runs a build step with its output on stderr; True when it succeeds."""
    try:
        return subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"{args[0]} failed: {error}")
        return False


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not call(["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not call(["cmake", "--build", BUILD, "-j", jobs], timeout=840):
        return False
    return call([os.path.join(BUILD, "geobench_selftest")], timeout=60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        log("build or self-test failed")
        return 1

    data_dir = os.path.join(OUT, "geobench-data",
                            f"{args.workload}-{os.getpid()}")
    command = [os.path.join(BUILD, "geobench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    if args.trace:
        spans_dir = os.path.join(OUT, "geobench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
