#!/usr/bin/env python3
"""Build the osdiv server and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cached_read --seed 1 --seconds 12 --trace 0

Both builds go to $CARGO_TARGET_DIR (default .bench_build). Build output goes
to stderr; the benchmark's report goes to stdout, its last line being one JSON
object. Exits non-zero, without a result, if either build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

# A run takes well under this; past it the whole process group is killed so
# no server outlives the benchmark.
RUN_TIMEOUT_S = 170

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    commands = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "-p", "osdiv-bench", "--bin", "osdiv"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in commands:
        try:
            done = subprocess.run(command, env=env, stdout=sys.stderr)
        except OSError as error:
            print(f"perfbench: {command[0]}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return False
    return True


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ["crates", "vendor"]:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(root, name) for name in sorted(files))
    for path in paths:
        try:
            with open(path, "rb") as handle:
                digest.update(path.encode() + b"\0" + handle.read())
        except OSError:
            continue
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    if not os.path.isfile("Cargo.toml"):
        print("perfbench: run from the repository root (no Cargo.toml here)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 2
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = source_id()
    os.makedirs(".perfbench", exist_ok=True)
    command = [
        os.path.join(target, "release", "perfbench"),
        "--osdiv", os.path.join(target, "release", "osdiv"),
    ] + sys.argv[1:]
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 2
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 2


if __name__ == "__main__":
    sys.exit(main())
