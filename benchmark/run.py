#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload <emu-10k|delta-100k|serve-ingest>
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package and the
`lpvs-serve` binary in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the benchmark binary, whose last stdout line
is the JSON result. Build output goes to stderr. Exits non-zero, without
a result line, when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "lpvs-serve", "--bin", "lpvs-serve"],
    ]
    for cmd in builds:
        if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
            print("benchmark build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "lpvs-benchmark"), *sys.argv[1:],
           "--scratch", os.path.join(target, "scratch"),
           "--serve-bin", os.path.join(release, "lpvs-serve")]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
