#!/usr/bin/env python3
"""End-to-end benchmark for sagesim's four course workloads.

Run from the repository root:

    python3 perfbench/run.py --workload alg1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Builds the perfbench package (perfbench/CMakeLists.txt, which compiles the
libraries under src/) into .bench_build, or into $CARGO_TARGET_DIR when set,
runs the benchmark's self-tests, checks that the binary's metric catalogue
matches BENCHMARK.json, then runs the workload.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1.  Exits non-zero, without that line, when the build, a self-test
or the result's shape fails, and non-zero when an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no sagesim sources (src/) next to perfbench/; run from the "
             "repository root")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench"]

    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode == 0

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run(configure):
            fail("cmake configure failed")
    if not run(compile_):
        # A cache left by another checkout path cannot be reused: start over.
        shutil.rmtree(build_dir, ignore_errors=True)
        if not (run(configure) and run(compile_)):
            fail("build failed")
    return os.path.join(build_dir, "perfbench")


def check_catalogue(binary, bench):
    out = subprocess.run([binary, "--list-metrics"], capture_output=True,
                         text=True, timeout=60)
    if out.returncode != 0:
        fail("perfbench --list-metrics failed")
    catalogue = json.loads(out.stdout)
    for key in ("end_to_end", "per_layer"):
        have = {(m["name"], m["unit"], m["better"]) for m in catalogue[key]}
        want = {(m["name"], m["unit"], m["better"]) for m in bench[key]}
        if have != want:
            fail(f"{key} metrics differ between the binary and BENCHMARK.json:"
                 f" {sorted(have ^ want)}")


def validate(result, bench, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    specs = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            fail(f"metric {name} is malformed: {m}")


def run_workload(binary, bench, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out.stdout)
        fail(f"{workload} exited {out.returncode} without a result")
    validate(result, bench, args.trace == 1)
    print("\n".join(lines[:-1]))
    return result, out.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    root = os.getcwd()
    bench = load_benchmark(root)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; choose from {names} or all")

    binary = build(root)
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr,
                      timeout=60).returncode != 0:
        fail("self-tests failed")
    check_catalogue(binary, bench)

    if args.workload != "all":
        result, code = run_workload(binary, bench, args.workload, args)
        print(json.dumps(result))
        sys.exit(code)

    failed = []
    for name in names:
        result, code = run_workload(binary, bench, name, args)
        print(f"{name}: {json.dumps(result)}")
        if code != 0 or not result["correct"]:
            failed.append(name)
    print(f"workloads with failed output checks: {failed or 'none'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
