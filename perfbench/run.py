"""Solver benchmark: one workload, one seed, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload absorb-tensor --seed 0 --seconds 20 --trace 0

Closed loop, one caller: the runner starts one measured run at a time,
each in a fresh process (``perfbench/child.py``), until ``--seconds`` have
passed and at least two runs are done.  Every run uses the same seed, so
the runs must agree bit for bit; each run's correctness gates and that
agreement decide ``correct``.  The last stdout line is one JSON object:
end-to-end medians with ``--trace 0``; per-layer medians from traced runs,
interleaved with untraced ones, with ``--trace 1``.  Outputs and spans stay
under ``.bench_out/`` in the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "step_ms": "ms", "emit_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 120
MAX_CRASHES = 3


def _run_child(args, traced, work_dir):
    out_dir = tempfile.mkdtemp(dir=work_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--out", out_dir]
    if traced:
        spans = f"spans-{args.workload}-seed{args.seed}.json"
        cmd += ["--trace", os.path.join(ROOT, ".bench_out", spans)]
    env = dict(os.environ, TMPDIR=work_dir)
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        print(f"run timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"run exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def _enough(results, trace):
    untraced = sum(1 for r in results if not r["traced"])
    if trace:
        return untraced >= 1 and len(results) - untraced >= 1
    return untraced >= 2


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Solver benchmark runner")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "uzawa_transport", "__init__.py")):
        print("no solver source under src/uzawa_transport; nothing to measure", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_out", "tmp")
    os.makedirs(work_dir, exist_ok=True)

    start = time.monotonic()
    durations, results, attempted, failed, crashes = [], [], 0, 0, 0
    # Start another run only while it is expected to end within --seconds,
    # so a whole benchmark run lasts about --seconds on every workload.
    while (
        not _enough(results, args.trace)
        or time.monotonic() - start + _median(durations) <= args.seconds
    ):
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        began = time.monotonic()
        result = _run_child(args, traced, work_dir)
        durations.append(time.monotonic() - began)
        if result is None:
            failed += 1
            crashes += 1
            if crashes >= MAX_CRASHES:
                print(f"{crashes} runs crashed; giving up", file=sys.stderr)
                return 1
            continue
        results.append(result)
        if not all(result["gates"].values()) or result["fingerprint"] != results[0]["fingerprint"]:
            failed += 1
            print(f"gates failed: {result['gates']}", file=sys.stderr)

    untraced = [r for r in results if not r["traced"]]
    if args.trace:
        traced = [r for r in results if r["traced"]]
        metrics = {
            name: {"value": _median([r["layers"][name][0] for r in traced]), "unit": unit}
            for name, (_, unit) in traced[0]["layers"].items()
        }
        step_traced = _median([r["end_to_end"]["step_ms"] for r in traced])
        step_plain = _median([r["end_to_end"]["step_ms"] for r in untraced])
        metrics["trace.overhead_frac"] = {"value": step_traced / step_plain - 1.0, "unit": "ratio"}
    else:
        metrics = {
            name: {"value": _median([r["end_to_end"][name] for r in untraced]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
