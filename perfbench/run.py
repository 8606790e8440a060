#!/usr/bin/env python3
"""Build the benchmark runner from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload vit_batch --seed 1 \
        --seconds 55 --trace 0

The first call configures and builds `perfbench/` (which builds the
repository's library) into `.bench_build/`; later calls rebuild only
what changed. All options are handed to the runner, whose last stdout
line is the result JSON. Build output goes to stderr, so stdout
carries the runner's lines only. Exits non-zero, without a result,
when the build fails (for example when the repository sources are
not next to this directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target",
                  "perfbench_runner", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout is the result channel.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [RUNNER] + sys.argv[1:] + [
        "--digest-file", os.path.join(HERE, "frontier.digest")]
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
