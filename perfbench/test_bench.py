#!/usr/bin/env python3
"""Self-test of the benchmark: every workload on its default and held-out seed.

    python3 perfbench/test_bench.py [--seconds S] [WORKLOAD ...]

For each workload and each seed in perfbench/seeds.json it runs run.py
untraced and traced and requires exit code 0, a result line whose metrics
match BENCHMARK.json, correct == true and failed == 0. Short runs (--seconds,
default 1) keep it to a few minutes; the timing values are not checked.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="1")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names:
        for kind in ("default", "held_out"):
            seed = seeds[name][kind]
            for trace in ("0", "1"):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", args.seconds, "--trace", trace]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                verdict = "FAIL (exit %d)" % proc.returncode
                if proc.returncode == 0 and lines:
                    result = json.loads(lines[-1])
                    ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
                    verdict = "ok" if ok else "FAIL (%d of %d checks failed)" % (
                        result["failed"], result["attempted"])
                if verdict != "ok":
                    failures += 1
                    sys.stderr.write(proc.stderr)
                    print("\n".join(l for l in lines if "FAILED" in l or "digest" in l))
                print("%-12s seed=%-5d (%s) trace=%s: %s" % (name, seed, kind, trace, verdict))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
