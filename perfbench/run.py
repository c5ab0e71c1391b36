#!/usr/bin/env python3
"""Benchmark entry point.

Builds `repro` and `twodprofd` from the repository's workspace and the
`perfbench` binary from this directory, then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to stderr. The report goes to stdout, ending in one JSON
result line. Build artifacts, per-run working files (removed after the
run) and the span traces of traced runs (kept, in `perfbench-traces/`)
live under $CARGO_TARGET_DIR (default `.bench_build` at the repository root).
"""

import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a run must end within 180 s; a stuck one is stopped a little before
RUN_TIMEOUT_S = 170


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest):
        sys.exit(f"run.py: no workspace manifest at {manifest}")
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest,
         "-p", "experiments", "--bin", "repro", "-p", "twodprof-serve", "--bin", "twodprofd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "none"
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work", f"{workload}-{os.getpid()}")
    cmd = [os.path.join(release, "perfbench"), *args, "--bin-dir", release, "--work-dir", work,
           "--trace-dir", os.path.join(target, "perfbench-traces")]
    # its own process group, so a timed-out run's daemons can be stopped too
    bench = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        stop_group(bench)
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


def stop_group(bench):
    """Kills whatever is left of the benchmark's process group and waits for it."""
    try:
        os.killpg(bench.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    bench.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(bench.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
