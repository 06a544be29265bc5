#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hdr_heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --regenerate          # rewrite reference digests

The first call configures and builds perfbench/ (which compiles the
simulator from ../src) in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. Build output goes
to stderr. The driver's stdout is passed through once its last line has
been checked against BENCHMARK.json: the metric names must be exactly
the end_to_end (--trace 0) or per_layer (--trace 1) list.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    out = build_dir()
    # Compiler and CMake scratch files stay inside the build tree.
    tmp = os.path.abspath(os.path.join(out, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, [m["name"] for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite perfbench/ref/<workload>.txt for "
                             "--workload, or for every workload")
    args = parser.parse_args()

    binary = build()
    common = ["--refs", os.path.join(HERE, "ref"),
              "--out", os.path.join(build_dir(), "out")]
    spec, names = expected_metrics(args.trace)

    if args.regenerate:
        workloads = ([args.workload] if args.workload
                     else [w["name"] for w in spec["workloads"]])
        for workload in workloads:
            code = subprocess.run([binary, "--regenerate", "--workload",
                                   workload] + common).returncode
            if code:
                sys.exit(code)
        return

    if not args.workload:
        parser.error("--workload is required")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)] + common,
        stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(names):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: reported metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(names) - set(result['metrics']))}, "
                 f"extra {sorted(set(result['metrics']) - set(names))}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
