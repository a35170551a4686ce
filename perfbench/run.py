#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload md-mdrc --seed 1 --seconds 20 --trace 0

Builds the benchmark driver and rrr_serverd from the checkout (offline,
Release, into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when
that is set), unsets the environment variables that change what the
program does, then runs the driver. The driver's standard output passes
through unchanged: its last line is the result object. Build output goes to
standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("md-mdrc", "2d-ksets", "service-mixed")
# Variables that select a kernel tier, switch block skipping, arm fault
# injection, change logging or resize the fig* drivers.
NEUTRALIZED_ENV = ("RRR_SCORE_KERNEL", "RRR_BLOCK_SKIP", "RRR_FAILPOINTS",
                   "RRR_LOG_LEVEL", "RRR_BENCH_FULL")
# The driver stops itself at 170 s; this is the last line of defence.
RUN_TIMEOUT_S = 178

_current = None  # the child process running now, for signal forwarding


def _forward(signum, _frame):
    if _current is not None and _current.poll() is None:
        _current.send_signal(signum)
        try:
            _current.wait(timeout=20)
        except subprocess.TimeoutExpired:
            _current.kill()
            _current.wait()
    sys.exit(128 + signum)


def _run(cmd, env, stdout, timeout=None):
    global _current
    _current = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return _current.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _current.send_signal(signal.SIGTERM)
        try:
            _current.wait(timeout=20)
        except subprocess.TimeoutExpired:
            _current.kill()
            _current.wait()
        return None
    finally:
        _current = None


def source_identity():
    """The git commit when the checkout is a git work tree, otherwise a
    digest of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(REPO, ".git")):
        try:
            sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    roots = [os.path.join(REPO, "CMakeLists.txt"), os.path.join(REPO, "src"),
             HERE]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            rel = os.path.relpath(path, REPO)
            if rel.endswith(".pyc") or "__pycache__" in rel:
                continue
            digest.update(rel.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(REPO, needed)):
            print("perfbench: %s is missing; run from a full checkout" %
                  needed, file=sys.stderr)
            return 2

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _forward)

    env = dict(os.environ)
    was_set = [name for name in NEUTRALIZED_ENV if name in env]
    for name in NEUTRALIZED_ENV:
        env.pop(name, None)
    env_note = "unset %s; %s" % (
        ",".join(NEUTRALIZED_ENV),
        "had been set: " + ",".join(was_set) if was_set else "none was set")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(REPO, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = _run(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], env, sys.stderr)
        if code != 0:
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    code = _run(["cmake", "--build", build_dir, "-j", jobs], env, sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "rrr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serverd", os.path.join(build_dir, "rrr", "src", "service",
                                     "rrr_serverd"),
           "--work-dir", work_dir, "--git-sha", source_identity(),
           "--env-note", env_note]
    sys.stdout.flush()
    code = _run(cmd, env, None, timeout=RUN_TIMEOUT_S)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
