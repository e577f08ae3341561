#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py              # every workload, untraced then traced

With one workload, the binary's standard output passes through unchanged:
its last line is the JSON result. With none, every workload runs untraced and
then traced, and each result line is printed.

The untraced build is the plain release build. The traced build turns on the
`alloc-count` feature (tensor arena counters) and lives in its own target
directory, so switching between the two never rebuilds either. Both go under
`$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cv_width_sync", "nlp_depth_async", "cv_topology_server"]


def target_dir(counted):
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return os.path.join(base, "alloc-count") if counted else base


def build(counted):
    """Builds one variant and returns its executable, or None on failure."""
    target = target_dir(counted)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"),
           "--target-dir", target]
    if counted:
        cmd += ["--features", "alloc-count"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256():
    """Hash of every source file the binary is built from."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "Cargo.toml")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def provenance():
    env = dict(os.environ)
    env["PERFBENCH_GIT_REV"] = (output_of(["git", "rev-parse", "HEAD"])
                                or "none (not a git checkout)")
    env["PERFBENCH_RUSTC"] = output_of(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="42")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", choices=["0", "1"])
    args = parser.parse_args()

    # Fail before anything runs when the repository's crates are missing.
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates/ directory is missing",
              file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else WORKLOADS
    traces = [args.trace] if args.trace else ["0", "1"]
    binaries = {}
    for trace in traces:
        binary = build(counted=trace == "1")
        if binary is None:
            print("perfbench: build failed", file=sys.stderr)
            return 2
        binaries[trace] = binary

    env = provenance()
    out_dir = os.path.join(HERE, "out")
    status = 0
    for workload in workloads:
        for trace in traces:
            cmd = [binaries[trace], "--workload", workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--trace", trace, "--out", out_dir]
            status = max(status, subprocess.run(cmd, env=env).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
