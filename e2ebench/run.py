#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

Usage (from the repository root):
  python3 e2ebench/run.py --workload query|ingest|campaign \
      --seed N --seconds S --trace 0|1

The library and the benchmark binary are compiled (Release) into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; the build log
stays there and only the benchmark's own output reaches stdout. The
process exit code is the benchmark binary's: 0 when every output check passed,
1 when one failed, 2 on bad arguments or a failed build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(os.path.join(build_dir, "build.log"), "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    if not build(build_dir):
        sys.stderr.write("e2ebench: build failed, see %s/build.log\n" % build_dir)
        return 2
    binary = os.path.join(build_dir, "e2ebench")
    return subprocess.call([binary] + sys.argv[1:] + ["--data", HERE])


if __name__ == "__main__":
    sys.exit(main())
