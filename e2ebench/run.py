#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload suite-exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds the
library and e2e_bench (Release) from this checkout's sources into
.bench_build/e2ebench; later runs only let the build tool confirm it is
current.  Build output goes to stderr; the benchmark's report goes to
stdout and its last line is the JSON result.  Any failure -- no
sources, a failed build, an invalid run -- exits non-zero without a
result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("suite-exact", "mixed-warm", "scale-flp")
# One run must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to e2ebench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--trace-out", help="Perfetto trace path (--trace 1)")
    ap.add_argument("--dump", action="store_true",
                    help="print the workload's inputs and exit")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    if args.dump:
        sys.exit(subprocess.run(cmd + ["--dump"], cwd=ROOT).returncode)

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills and reaps the child before raising.
        sys.stdout.write((e.stdout or b"").decode(errors="replace")
                         if isinstance(e.stdout, bytes) else (e.stdout or ""))
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # Keep the diagnostics, drop anything that could read as a score.
        sys.stdout.write("\n".join(l for l in lines
                                   if not l.startswith("{")) + "\n")
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] \
            or result["correct"] is not True:
        fail("malformed result object")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
