#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-light|scan-heavy|live-update \
        --seed N --seconds S --trace 0|1

Builds the `skq-perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build` at the repository root),
prints a machine tag line, then runs the benchmark. Its last stdout
line is the JSON result; its exit code is the benchmark's. Working
files go to `.bench_data` at the repository root.
"""

import argparse
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_text(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fs_type(path):
    """Filesystem of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "skq-perfbench")

    data = os.path.join(ROOT, ".bench_data")
    os.makedirs(data, exist_ok=True)
    tag = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "kernel": platform.release(),
        "rustc": run_text(["rustc", "--version"]),
        "data_fs": fs_type(data),
        "wal_sync": "SyncPolicy::Always",
        "checkpoint": "every 1024 ops or 1 MiB of WAL (CheckpointPolicy::default)",
    }
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in tag.items()), flush=True)

    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--data-dir", data,
    ]
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
