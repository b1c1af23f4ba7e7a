#!/usr/bin/env python3
"""End-to-end benchmark of inflog.

Run from the root of a checkout:

    python3 inflog_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 inflog_bench/run.py --self-test

Builds inflog_cli and the benchmark driver from source into .bench_build/
(the first run configures and compiles; later runs only check that the
build is current), generates the workload's inputs from the seed, runs it
and prints the result as the last line of stdout. Workloads, metrics and
checks are described in inflog_bench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("relational_batch", "grounded_batch", "serve_stream")


def build():
    """Configures (once) and builds the two targets; exits on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("error: the inflog sources (CMakeLists.txt, src/) are not "
                 "next to inflog_bench/; run from a full checkout")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], **quiet):
            sys.exit("error: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "inflog_cli", "inflog_bench_driver"], **quiet):
        sys.exit("error: build failed")
    return (os.path.join(BUILD, "inflog", "inflog_cli"),
            os.path.join(BUILD, "inflog_bench_driver"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="check that every output check catches a "
                        "corrupted answer")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    cli, driver = build()
    name = "self-test" if args.self_test else f"{args.workload}-{args.seed}"
    work = os.path.join(BUILD, "work", f"{name}-{os.getpid()}")
    os.makedirs(work)
    command = [driver, "--cli", cli, "--work", work]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-file",
                        os.path.join(traces, f"{name}.json")]
    try:
        code = subprocess.call(command)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
