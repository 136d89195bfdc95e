#!/usr/bin/env python3
"""Builds the benchmark binary from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <route-250k|churn-2k|inflight-10k> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Build output goes to
stderr. The binary's standard output is passed through; its last line
is the JSON result. The exit code is the binary's, or 1 if the build
failed (no result is printed then).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def command_output(args):
    """First line of a command's stdout, or None if it cannot run."""
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    return out.stdout.strip().splitlines()[0]


def source_revision():
    """The git revision, or (outside a git checkout) a digest of the
    sources the binary is built from."""
    rev = command_output(["git", "rev-parse", "HEAD"])
    if rev:
        return "git:" + rev
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".rs"))
    for path in files:
        try:
            with open(path, "rb") as f:
                digest.update(os.path.relpath(path, ROOT).encode())
                digest.update(f.read())
        except OSError:
            pass
    return "tree:" + digest.hexdigest()[:16]


def run_to_end(args, env, stdout=None):
    """Runs a child process and waits for it, killing it if this script
    is interrupted, so no process outlives the benchmark."""
    child = subprocess.Popen(args, env=env, stdout=stdout)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        status = run_to_end(build, env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_REV"] = source_revision()
    sys.stdout.flush()
    return run_to_end([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
