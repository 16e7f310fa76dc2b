#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py briefly:

  * with --plant, which corrupts one output; the run must report
    "correct": false, a positive failed count (so fail_frac > 0), and a
    non-zero exit code;
  * untraced and traced; each run must pass, and its last line must carry
    every end-to-end (resp. per-layer) metric of BENCHMARK.json with its
    unit.

Takes a few minutes. Exits non-zero on the first violated expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Few jobs per run: the checks, not the timings, are under test.
MIN_JOBS = {"fig7_mixed": 3, "catalog_serial": 3,
            "catalog_sharded_faults": 3, "sizing_queries": 60}


def run(workload, trace, plant=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
           "--min-jobs", str(MIN_JOBS[workload])]
    if plant:
        cmd.append("--plant")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def expect(cond, what, log):
    if not cond:
        print("FAIL: " + what)
        print(log[-3000:])
        sys.exit(1)
    print("ok:   " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        code, result, log = run(workload, 0, plant=True)
        expect(code != 0 and result is not None and result["correct"] is False
               and result["failed"] > 0 and result["attempted"] > 0,
               "%s: a planted wrong output fails the run" % workload, log)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, log = run(workload, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0,
                   "%s --trace %d: passes its checks" % (workload, trace), log)
            names = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            expect(set(got) == set(names) and all(
                got[n]["unit"] == u and isinstance(got[n]["value"], (int, float))
                for n, u in names.items()),
                   "%s --trace %d: every %s metric present" % (
                       workload, trace, key), log)
    print("selftest passed")


if __name__ == "__main__":
    main()
