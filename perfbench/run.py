#!/usr/bin/env python3
"""Repository benchmark: four registry workloads, timed end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring_sparse --seed 7 --seconds 10 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, which builds the
library from the repository's own CMakeLists.txt) into .bench_build, or
into $CARGO_TARGET_DIR when that is set, then:

  --trace 0  runs pb_e2e: end-to-end metrics, tracing off
  --trace 1  runs pb_trace: the per-layer breakdown from one traced pass,
             with every span written under the build directory

Every run is checked against the serial reference: pinned in
src/workloads.hpp for seed 7, computed once per invocation by an untimed
serial run for any other seed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Each program runs in
a process of its own, so peak_rss_mb is the peak of that workload alone.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring_sparse", "hypercube_flood", "churn_load_async", "ring_ranks4")
# Each program must end well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_child(cmd, capture):
    """Runs cmd in its own process group; kills the whole group (rank
    processes included) if it outlives the timeout, and always reaps it."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), CHILD_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ at %s)" % ROOT, 2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        code, _ = run_child(["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=Release"], capture=False)
        if code != 0:
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run_child(["cmake", "--build", bdir, "-j", jobs, "--target"]
                        + targets, capture=False)
    if code != 0:
        fail("building the benchmark failed")
    return bdir


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not 1 <= args.seconds <= 3600:
        fail("--seconds must be in [1, 3600]", 2)

    program = "pb_trace" if args.trace else "pb_e2e"
    targets = ["pb_e2e"] + (["pb_trace"] if args.trace else [])
    bdir = build(targets)
    cmd = [os.path.join(bdir, program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--commit", commit()]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.tsv" % (args.workload, args.seed))]

    code, out = run_child(cmd, capture=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail("%s exited with code %d" % (program, code))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("%s printed no result line" % program)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed a malformed result line" % program)
    print(json.dumps(result))
    sys.exit(0)


if __name__ == "__main__":
    main()
