#!/usr/bin/env python3
"""The repo benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Each workload runs in a fresh subprocess with every ``REPRO_*`` variable
scrubbed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
above it give quartiles across passes and sample counts.

Without ``--workload`` every workload runs.  ``--selfcheck`` runs the whole
benchmark twice on the same code and fails if two medians disagree by more
than the metric's bound; ``--smoke`` shrinks every size to finish in seconds.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from harness import scrubbed_env, spec
from workloads import NAMES

CHILD_TIMEOUT = 170


def child(args):
    """Run one workload in this process and print its result as JSON."""
    import harness
    import workloads

    workload = workloads.load(args.workload, smoke=args.smoke)
    try:
        if args.trace:
            result = harness.trace(workload, args.seed)
        else:
            result = harness.measure(workload, args.seed, args.seconds)
    finally:
        workload.teardown()
    print(json.dumps(result))


def run_child(workload, seed, seconds, trace, smoke):
    """One workload in a fresh, scrubbed subprocess; its result dict."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    # Its own session, so that a timeout also stops the server it started.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=scrubbed_env(), text=True, start_new_session=True
    )
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT} s")
    if process.returncode != 0:
        raise SystemExit(f"{workload}: benchmark process exited with {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def report(result, units):
    """Human-readable lines, then the contract's JSON line."""
    name = result["workload"]
    for metric, found in result["metrics"].items():
        unit = found.get("unit", units.get(metric, ""))
        line = f"{name:15s} {metric:32s} {found['value']:14.4f} {unit:6s}"
        if "q1" in found:
            line += (f" q1={found['q1']:.4f} median={found['median']:.4f}"
                     f" q3={found['q3']:.4f} n={found['samples']}")
        print(line)
    if "passes" in result:
        print(f"{name:15s} passes={result['passes']} ops_per_pass={result['ops_per_pass']} "
              f"environment={json.dumps(result['environment'])}")
    for metric, reason in result.get("absent", {}).items():
        print(f"{name:15s} ABSENT {metric}: {reason}")
    for error in result["errors"]:
        print(f"{name:15s} ERROR {error}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": found["value"], "unit": found.get("unit", units.get(metric, ""))}
            for metric, found in result["metrics"].items()
        },
    }


def run_all(args, units):
    """Every workload once; ``{workload: contract line}``."""
    lines = {}
    for workload in NAMES:
        lines[workload] = report(
            run_child(workload, args.seed, args.seconds, args.trace, args.smoke), units
        )
    return lines


def selfcheck(args, units, bounds):
    """A/A: two full runs of the same code must agree within every bound."""
    first, second = run_all(args, units), run_all(args, units)
    worst = 0
    print(f"{'workload':15s} {'metric':12s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for workload in NAMES:
        for metric, bound in bounds.items():
            a = first[workload]["metrics"][metric]["value"]
            b = second[workload]["metrics"][metric]["value"]
            difference = abs(a - b) / min(a, b)
            flag = "" if difference <= bound else "  EXCEEDED"
            worst += bool(flag)
            print(f"{workload:15s} {metric:12s} {a:12.4f} {b:12.4f} {difference:8.4f} {bound:6.2f}{flag}")
    return 1 if worst else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args)
        return 0

    benchmark = spec()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else benchmark["run_seconds"]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    if args.selfcheck:
        return selfcheck(args, units, {m["name"]: m["bound"] for m in benchmark["end_to_end"]})
    if args.workload:
        line = report(run_child(args.workload, args.seed, args.seconds, args.trace, args.smoke), units)
        print(json.dumps(line))
        return 0
    lines = run_all(args, units)
    print(json.dumps(lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
