#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the dmt library and the benchmark
program from source into .bench_build/ (CMake, Release), runs one
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. The full record of the run, with
the machine description and the supporting numbers, is written to
.bench_build/results/<workload>-seed<n>-trace<t>.json; a traced run also
writes a Chrome trace-event file beside it.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout is not
    always a git repository, so this names the code that was measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    """CPU model, core count, SIMD flags, build type and code identity."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    simd = [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f",
                        "avx512dq", "avx512bw", "avx512vl") if f in flags]
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "simd": simd,
        "build_type": BUILD_TYPE,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, workloads))

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", stem + ".chrome.json"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark program exited with %d" % done.returncode)
    record = json.loads(lines[-1])

    # The program's metric set must be exactly BENCHMARK.json's.
    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    if want != got:
        fail("metric set differs from BENCHMARK.json %s: missing %s, extra %s"
             % (section, sorted(set(want) - set(got)),
                sorted(set(got) - set(want))))

    attempted, failed = record["attempted"], record["failed"]
    record["environment"] = environment()
    record["failed_share"] = failed / attempted if attempted else 1.0
    record["run"] = vars(args)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    env = record["environment"]
    print("environment: %s, nproc %d, simd %s, %s build, source %s"
          % (env["cpu_model"], env["nproc"], "+".join(env["simd"]) or "none",
             env["build_type"], env["source_sha256"][:12]))
    for failure in record["failures"]:
        print("check failed: " + failure)
    print(json.dumps({"correct": record["correct"] and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
