#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload at a tiny size, untraced and
traced, checking that each run is correct and prints exactly the metrics
BENCHMARK.json names, each with its declared unit.

    python3 perfbench/smoke.py [workload ...]
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for w in workloads:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", w, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            problems = []
            if p.returncode != 0 or not lines:
                problems.append(f"exit {p.returncode}")
            else:
                res = json.loads(lines[-1])
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(res)}")
                if not res.get("correct") or res.get("failed") != 0:
                    problems.append("incorrect outputs")
                got = res.get("metrics", {})
                for name, unit in want[trace].items():
                    m = got.get(name)
                    if m is None:
                        problems.append(f"missing {name}")
                    elif m.get("unit") != unit or not isinstance(
                            m.get("value"), (int, float)):
                        problems.append(f"{name}: {m}")
                for name in set(got) - set(want[trace]):
                    problems.append(f"undeclared {name}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w} trace={trace}: {status}", flush=True)
            if problems:
                bad += 1
                sys.stderr.write(p.stderr[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
