#!/usr/bin/env python3
"""Builds the ptldb benchmark from source and runs one workload.

    python3 perfbench/run.py --workload rule-family --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/, and is reused by later runs. Build output goes
to stderr; the last line of stdout is ptlbench's JSON result. The exit code
is ptlbench's, or 1 when the build fails or the run overruns its limit.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rule-family", "server-ingest", "time-travel")
RUN_LIMIT_S = 170


def build(build_dir):
    """Configures, then brings ptlbench and ptldb-server up to date."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    work_dir = os.path.join(base, "work")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(work_dir, exist_ok=True)

    server_bin = os.path.join(build_dir, "ptldb_tools", "ptldb-server")
    cmd = [os.path.join(build_dir, "ptlbench"),
           "--server-bin", server_bin, "--work-dir", work_dir]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so an overrun also stops the server it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
