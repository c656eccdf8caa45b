#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pop3-churn --seed 1 --seconds 40 --trace 0

Arguments pass through to perfbench/main.exe (see NOTES.md).  Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result.  Exits non-zero without a result when the
repository sources are not there to build.
"""

import os
import subprocess
import sys

# One run must end within 180 s; the measuring program gets the rest
# after the (usually cached) build.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project or lib/)\n")
        return 2
    # No shared dune cache: the build reads and writes only this tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
