#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload fig7_sweep --seed 1 --seconds 20 --trace 0

The script builds this directory's Cargo package (a workspace of its own,
with path dependencies on the repository's crates) in release mode into
$CARGO_TARGET_DIR, or `.bench_build` under the repository root when that
is unset, then runs its `perfbench` binary from the repository root with
the same arguments. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON record. A failed build exits non-zero
without printing a record.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
