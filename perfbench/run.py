#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and through it the
simulator's layer libraries, Release) into $CARGO_TARGET_DIR/perfbench,
.bench_build/perfbench when the variable is unset, then runs the benchmark
binary with the same arguments. Build output goes to stderr; the binary's
last stdout line is the JSON result. See perfbench/README.md.
"""
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(out, "Makefile")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out, "--target", "jtp_perfbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "jtp_perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
