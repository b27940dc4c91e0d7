#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload serve-skew --seed 1 --seconds 20 --trace 0
builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
runs the omtbench binary with a pinned environment, passes its report
through, and prints as the last line one JSON object holding exactly the
metrics BENCHMARK.json lists: end_to_end with --trace 0, per_layer with
--trace 1 (a per-layer metric of a layer the workload does not run is 0).

Repeat mode:
    python3 perfbench/run.py --workload serve-skew --repeat 10 [--seed 1]
runs the workload N times with seeds seed .. seed+N-1 and prints each
metric's median, quartiles, min/max and quartile spread.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("construct-1m", "serve-skew", "dataplane-lossy")
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "omtbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "omtbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return out / "omtbench"


def pinned_env():
    env = dict(os.environ)
    env["OMT_THREADS"] = "2"       # plus explicit workers/shards in the binary
    env["OMT_FAST_MATH"] = "0"     # the exact math path
    env["OMT_OBS"] = "0"           # the binary enables it per traced operation
    for key in ("OMT_KERNEL_TABLES", "OMT_FAST_MATH_SIMD"):
        env.pop(key, None)
    return env


def run_once(binary, workload, seed, seconds, trace, echo):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (workload, seed))
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def select(result, spec, trace):
    """The result line restricted to the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not trace:
                fail("end-to-end metric %s missing" % name)
            got = {"value": 0.0, "unit": unit}
        if got["value"] is None or got["unit"] != unit:
            fail("metric %s: bad value or unit %r" % (name, got))
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def repeat(binary, spec, args):
    rows = {}
    for i in range(args.repeat):
        seed = args.seed + i
        result = select(run_once(binary, args.workload, seed, args.seconds,
                                 args.trace, echo=False), spec, args.trace)
        print("seed %d: correct=%s attempted=%d failed=%d"
              % (seed, result["correct"], result["attempted"], result["failed"]),
              flush=True)
        for name, m in result["metrics"].items():
            rows.setdefault(name, (m["unit"], []))[1].append(m["value"])
    print("%-34s %-9s %14s %14s %14s %14s %14s %8s" % (
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"))
    for name, (unit, values) in rows.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-34s %-9s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f" % (
            name, unit, med, q1, q3, min(values), max(values), spread))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with consecutive seeds and summarise")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    binary = build()
    if args.repeat >= 2:
        repeat(binary, spec, args)
        return
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace, echo=True)
    print(json.dumps(select(result, spec, args.trace)), flush=True)


if __name__ == "__main__":
    main()
