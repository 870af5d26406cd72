#!/usr/bin/env python3
"""Builds the benchmark from source and runs its workloads (perfbench/README.md).

    python3 perfbench/run.py                      # all four, seed 1, 15 s each
    python3 perfbench/run.py --workload tier-sssp --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
and its log to stderr, so the last line of stdout stays the result JSON
printed by the measuring program.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rmat-pagerank", "grid-sssp", "spec-coloring", "tier-sssp")
# One run must end within 180 s; keep a margin for stopping it.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit("perfbench: repository sources not found (%s missing)" % needed)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        # Ninja overlaps the repository's chain of static libraries better
        # than Make: a cold build takes about a minute less on 4 cores.
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out] + generator, check=True,
                       stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def stop_group(proc):
    """Kills the process group `proc` leads, reaps `proc`, and waits until
    none of the group's other members is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    # Sockets live here, so keep the path relative (unix socket paths are
    # limited to 108 bytes).
    workdir = os.path.relpath(os.path.join(build_dir(), "run"), ROOT)
    os.makedirs(workdir, exist_ok=True)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
        if run_one(cmd, workload) != 0:
            status = 1
    return status


def run_one(cmd, workload):
    """Runs the measuring program once, forwarding its stdout."""
    # Its own process group, so a timeout stops the tier processes too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    finally:
        stop_group(proc)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
