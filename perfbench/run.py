#!/usr/bin/env python3
"""Builds the benchmark and the `ecl-cc` server from source, then runs one
workload. Run from the repository root:

    python3 perfbench/run.py --workload social --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. Build output goes to
standard error; a failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "ecl-cc-cli", "--bin", "ecl-cc"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(target, "release", "perfbench")
    argv = [
        binary,
        *sys.argv[1:],
        "--ecl-cc", os.path.join(target, "release", "ecl-cc"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
