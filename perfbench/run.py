#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig2_poll --seed 1 --seconds 20 --trace 0

Every argument is passed to the `perfbench` binary (see
perfbench/README.md). The binary is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen(
        [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
    )
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
