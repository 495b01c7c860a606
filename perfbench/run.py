#!/usr/bin/env python3
"""Build the nmdt benchmark program from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1 \
        [--threads T] [--serve-rate R] [--ledger-only]

Every call configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus the benchmark program) into
<build dir>/perfbench, where <build dir> is $CARGO_TARGET_DIR or, when
that is unset, .bench_build; the first call compiles everything, later
calls only check.  Every argument is passed through to the program,
whose last line of standard output is the result object.  Build output
goes to <build dir>/perfbench/build.log; a failed build exits with
status 3 and prints no result.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    with open(os.path.join(out_dir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)} (see {log_path})\n")
                sys.exit(3)
    return os.path.join(out_dir, "nmdt_perfbench")


def main() -> None:
    out_dir = build_dir()
    binary = build(out_dir)
    args = [binary, *sys.argv[1:]]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(out_dir, "traces")]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
