#!/usr/bin/env python3
"""Build the program and the benchmark harness from source, then run one
workload:

    python3 perfbench/run.py --workload catalogue|campaign|wire \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result object. Exits non-zero,
without a result, when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "pnabench.exe")
PNA = os.path.join("_build", "default", "bin", "pna_cli.exe")
OUT = os.path.join("perfbench", "_run")


def main(argv):
    os.chdir(ROOT)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/pnabench.exe",
             "./bin/pna_cli.exe"],
            stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([EXE, *argv, "--pna", PNA, "--out", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
