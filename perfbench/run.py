#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the runtime libraries, the
shipped kv_gateway and elastic_worker binaries and the perfbench binary) into
$CARGO_TARGET_DIR (default .bench_build), then runs one workload and passes
its output through. The last stdout line is the JSON result; build and
progress chatter goes to stderr. Exits non-zero, without a result line, when
the build or the run fails.
"""
import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("kv_write_peak", "dataflow_ckpt_recover")
RUN_TIMEOUT_S = 170
PR_SET_PDEATHSIG = 1


def die_with_parent():
    # Runs in the child before exec: if this script is killed, so is the
    # benchmark binary (and, through their own death signal, its fleet).
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench", "kv_gateway", "elastic_worker"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "sdg_tools"),
           "--work-dir", os.path.join(build_dir, "work")]
    # Own process group: a timeout kills the binary and, through their
    # parent-death signal, the fleet processes it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
