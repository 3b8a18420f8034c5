#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first call configures and builds
(Release) into .bench_build/; later calls rebuild incrementally. Build
output goes to stderr, so the benchmark's result line stays the last
line of stdout. Traced runs write their Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<n>.json.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path)
            for f in names
            if not f.endswith(".pyc"))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"], capture_output=True,
                               text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{head}-dirty" if dirty else head


def build():
    def run(cmd):
        # Build chatter goes to stderr; stdout carries only results.
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True)

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        log("configuring (Release)")
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD, "-j", jobs])
    return os.path.join(BUILD, "perfbench")


def arg_value(argv, key, default):
    return argv[argv.index(key) + 1] if key in argv[:-1] else default


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no fedclust sources under {ROOT}; run from a full checkout")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    tree = git_commit() or f"src-{source_digest()}"
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(
        traces, f"{arg_value(argv, '--workload', 'none')}-seed"
        f"{arg_value(argv, '--seed', '0')}.json")
    cmd = [binary, *argv, "--tree", tree, "--trace-out", trace_out]
    # The child inherits stdout/stderr; run() waits for it to exit.
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
