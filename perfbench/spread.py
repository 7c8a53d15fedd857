#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the first-numbers record.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b]
                                [--record perfbench/first_numbers.json]

Run from the repository root. Runs perfbench/run.py once per workload and
seed (--trace 0) and prints, per end-to-end metric, the median over the
seeds and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside a
third of the metric's bound from BENCHMARK.json. With --record it also
runs each workload traced (first seed) and writes the machine, the build,
each workload's member specs, and every value to the named JSON file.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_run(workload, seed, seconds, *flags):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)] + list(flags)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def machine_and_build():
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "perfbench")
    cache = {}
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                              capture_output=True, text=True).stdout
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "os": platform.platform(),
        "git_sha": sha or "unknown",
        "compiler": compiler.splitlines()[0],
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--record", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = seed_range(args.seeds)
    chosen = [w for w in bench["workloads"]
              if not args.workloads or w["name"] in args.workloads.split(",")]

    record = {"seeds": seeds, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    worst = 0.0
    for w in chosen:
        name = w["name"]
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            result = json.loads(bench_run(name, seed, bench["run_seconds"],
                                          "--trace", "0")[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect result {result}")
            for k in values:
                values[k].append(result["metrics"][k]["value"])
        entry = {"why": w["why"], "end_to_end": {}}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            s = spread(v) if len(v) > 1 else 0.0
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{name:13s} {m['name']:18s} median {statistics.median(v):14.6g}"
                  f" {m['unit']:8s} spread {s:6.3f} (a third of bound"
                  f" {m['bound'] / 3:.3f})", flush=True)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "median": statistics.median(v), "spread": s, "values": v}
        if args.record:
            entry["members_seed_%d" % seeds[0]] = bench_run(
                name, seeds[0], 0, "--list")
            traced = json.loads(bench_run(name, seeds[0], bench["run_seconds"],
                                          "--trace", "1")[-1])
            entry["per_layer_seed_%d" % seeds[0]] = {
                k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        record["machine_and_build"] = machine_and_build()
        with open(os.path.join(ROOT, args.record), "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
