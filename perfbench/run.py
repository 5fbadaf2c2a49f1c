#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the `perfbench` package (a cargo package of its own, with path
dependencies on ../crates) in release mode, offline, into
$CARGO_TARGET_DIR (default perfbench/target), then runs it with the same
arguments. Traced runs write their spans under <target dir>/perfbench-traces/.
The last line of standard output is the result object; build output goes to
standard error. Exits non-zero when the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    )
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(target, "perfbench-traces")]
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
