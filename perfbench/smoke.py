"""Smoke test: tiny benchmark runs print every declared metric with its unit.

Usage (from the repository root): python3 perfbench/smoke.py [WORKLOAD ...]

For each workload (default: all of them) it runs ``run.py`` at the shortest
length (two runs) untraced and traced.  It checks that the result is
correct and that the metric names and units match ``BENCHMARK.json``
exactly.  Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", "0", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False
    )
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 2:
        counts = {k: result[k] for k in ("correct", "attempted", "failed")}
        problems.append(f"bad counts {counts}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(printed) & set(expected) if printed[n] != expected[n])
        problems.append(f"missing {missing}, unexpected {extra}, wrong units {units}")
    return problems


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.NAMES)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [w["name"] for w in spec["workloads"]]
    failures = 0
    if declared != list(workloads.NAMES):
        print(f"FAIL BENCHMARK.json workloads {declared} != {list(workloads.NAMES)}")
        failures += 1
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, _declared(spec, key))
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace} {'; '.join(problems)}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
