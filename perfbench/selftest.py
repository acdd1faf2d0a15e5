#!/usr/bin/env python3
"""Fast self-test of the benchmark.

Runs every workload named in BENCHMARK.json at a tiny size (`--tiny`
divides every input by 64), once untraced and once traced, and checks
that each run prints a correct result with every metric BENCHMARK.json
names for that mode, each with its unit and a finite value.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    modes = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    errors = []
    for workload in spec["workloads"]:
        for trace, wanted in modes.items():
            what = f"{workload['name']} --trace {trace}"
            before = len(errors)
            cmd = spec["command"] + [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", trace, "--tiny",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                errors.append(f"{what}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{what}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{what}: incorrect run\n{out.stderr}")
            printed = result["metrics"]
            for metric in wanted:
                got = printed.get(metric["name"])
                if got is None:
                    errors.append(f"{what}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    errors.append(f"{what}: {metric['name']} unit {got['unit']} != {metric['unit']}")
                elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    errors.append(f"{what}: {metric['name']} = {got['value']}")
            extra = set(printed) - {m["name"] for m in wanted}
            if extra:
                errors.append(f"{what}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{'ok  ' if len(errors) == before else 'FAIL'} {what}", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
