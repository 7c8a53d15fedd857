#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks that BENCHMARK.json is well formed,
runs every workload at a tiny horizon untraced and traced, checks that each
run is correct and prints exactly the metrics BENCHMARK.json names, with
their units, and checks that a perturbed result digest is counted as a
failure. Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = ["--seed", "1", "--seconds", "0", "--horizon-scale", "0.05"]

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)
        print("FAIL", what)


def run(workload, *flags):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload] + list(flags)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    check(proc.returncode == 0, f"{' '.join(cmd[1:])} exited {proc.returncode}:"
          f" {proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def check_shape(bench):
    check(sorted(bench) == sorted(["command", "paths", "run_seconds",
                                   "workloads", "end_to_end", "per_layer"]),
          "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    check(all(NAME.match(n) for n in names), "names are well formed")
    for w in bench["workloads"]:
        check(sorted(w) == ["name", "why"] and 0 < len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w['name']} shape")
    for group, keys in (("end_to_end", ["better", "bound", "name", "unit"]),
                        ("per_layer", ["better", "name", "unit"])):
        for m in bench[group]:
            check(sorted(m) == keys and UNIT.match(m["unit"])
                  and m["better"] in ("higher", "lower")
                  and 0 < m.get("bound", 0.1) <= 0.25, f"metric {m['name']} shape")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s has unit s, lower is better and the largest bound")


def check_metrics(result, expected, what):
    if result is None:
        return
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{what}: correct with no failures")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(got == want, f"{what}: metrics and units match BENCHMARK.json"
          f" (missing {sorted(set(want) - set(got))},"
          f" extra {sorted(set(got) - set(want))})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_shape(bench)
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(run(name, "--trace", "0", *TINY), bench["end_to_end"],
                      f"{name} --trace 0")
        check_metrics(run(name, "--trace", "1", *TINY), bench["per_layer"],
                      f"{name} --trace 1")
    name = bench["workloads"][0]["name"]
    bad = run(name, "--trace", "0", "--perturb-digest", *TINY)
    check(bad is not None and bad["correct"] is False and bad["failed"] >= 1,
          f"{name} --perturb-digest is counted as a failure")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
