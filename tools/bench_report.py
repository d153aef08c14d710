#!/usr/bin/env python3
"""Consolidated benchmark reports: run an SF 0.001 suite, emit one JSON.

Four suites, each pinned to scale factor 0.001 with one round per benchmark
(the asserted quantities are deterministic step counts, not timings):

* ``core`` (default) — the refinement-core, shared-lineage, and top-k
  pruning benchmarks, consolidated into ``BENCH_refinement_core.json``:
  the full-table bound-propagation sweep time of the columnar node
  table, and the logical steps to decide the unsafe TPC-H brand
  top-10 under the shared-DAG scheduler vs. the step count the removed
  per-tuple scheduler recorded on the same instance.
* ``streaming`` — the delta re-decide benchmarks
  (``benchmarks/bench_streaming.py``), consolidated into
  ``BENCH_streaming.json``: the warm-vs-cold step contrast of a standing
  top-10 query absorbing a probability update, and the structural
  delete/re-insert round trip.
* ``service`` — the query-service benchmarks
  (``benchmarks/bench_service.py``), consolidated into
  ``BENCH_service.json``: cross-request warm-state reuse through the full
  HTTP stack — a repeated top-10 request re-decides within one logical
  step, concurrent clients share one store, and a served standing query
  absorbs deltas warm.
* ``robustness`` — the deadline-degradation benchmarks
  (``benchmarks/bench_robustness.py``), consolidated into
  ``BENCH_robustness.json``: a generous deadline decides the brand top-10
  bit-identically to the no-deadline run (zero-overhead contract, overhead
  ratio tracked), and an already-expired deadline degrades to sound
  monotone brackets that contain every fully-refined marginal.

Each report carries the per-benchmark median wall times and every
``extra_info`` counter, plus a ``summary`` with the headline numbers the
perf trajectory tracks.  CI uploads both files as artifacts on every push
(``smoke-benchmark`` job), seeding a comparable series of step counts and
wall times across commits.  Run locally from the repository root:

    python tools/bench_report.py [--suite core|streaming|service|robustness] [output.json]

The report fails loudly: a missing raw-result file, a benchmark that did
not run, or an ``extra_info`` counter that a benchmark stopped recording
all exit non-zero with an explicit message — a partial JSON is never
written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


class ReportError(RuntimeError):
    """A benchmark artifact the report depends on is missing or incomplete."""


def run_benchmarks(benchmarks: list, raw_json: Path) -> int:
    environment = dict(os.environ)
    environment.setdefault("REPRO_TPCH_SF", "0.001")
    environment.setdefault("REPRO_BENCH_ROUNDS", "1")
    pythonpath = str(REPO / "src")
    if environment.get("PYTHONPATH"):
        pythonpath += os.pathsep + environment["PYTHONPATH"]
    environment["PYTHONPATH"] = pythonpath
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        *benchmarks,
        "--benchmark-min-rounds=1",
        "--benchmark-disable-gc",
        f"--benchmark-json={raw_json}",
    ]
    completed = subprocess.run(command, cwd=REPO, env=environment)
    return completed.returncode


def collect(raw_json: Path):
    """The per-benchmark entries of a raw pytest-benchmark file, plus an
    ``extra(name_fragment, key)`` accessor that fails loudly on anything a
    benchmark stopped recording."""
    if not raw_json.is_file():
        raise ReportError(
            f"benchmark run produced no raw result file at {raw_json} "
            "(pytest-benchmark missing or the run crashed before writing)"
        )
    raw = json.loads(raw_json.read_text(encoding="utf-8"))
    benchmarks = []
    for entry in raw.get("benchmarks", []):
        stats = entry.get("stats", {})
        benchmarks.append(
            {
                "name": entry.get("name"),
                "fullname": entry.get("fullname"),
                "wall_seconds_median": stats.get("median"),
                "wall_seconds_mean": stats.get("mean"),
                "rounds": stats.get("rounds"),
                "extra_info": entry.get("extra_info", {}),
            }
        )
    if not benchmarks:
        raise ReportError(
            f"raw result file {raw_json} contains no benchmark entries — "
            "the suite collected nothing"
        )

    def extra(name_fragment: str, key: str):
        """The recorded counter, or a loud failure naming what is missing."""
        matched = False
        for bench in benchmarks:
            if name_fragment in (bench["name"] or ""):
                matched = True
                if key in bench["extra_info"]:
                    return bench["extra_info"][key]
        if matched:
            raise ReportError(
                f"benchmark '{name_fragment}' ran but recorded no "
                f"extra_info[{key!r}] — the report contract is broken"
            )
        raise ReportError(
            f"no benchmark matching '{name_fragment}' in the raw results — "
            "did the suite list change without updating the report?"
        )

    return raw, benchmarks, extra


def wall_clock_summary(summary: dict, raw: dict, benchmarks: list) -> dict:
    summary["wall_seconds_total_median"] = sum(
        bench["wall_seconds_median"]
        for bench in benchmarks
        if bench["wall_seconds_median"] is not None
    )
    medians = [
        bench["wall_seconds_median"]
        for bench in benchmarks
        if bench["wall_seconds_median"] is not None
    ]
    if medians:
        summary["wall_seconds_median_of_medians"] = statistics.median(medians)
    summary["machine_info"] = {
        "cpu": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "cores": raw.get("machine_info", {}).get("cpu", {}).get("count"),
    }
    summary["python"] = raw.get("machine_info", {}).get("python_version")
    return summary


def consolidate_core(raw_json: Path) -> dict:
    raw, benchmarks, extra = collect(raw_json)
    shared_steps = extra("test_topk_shared_vs_per_tuple_scheduler", "shared_steps")
    per_tuple_steps = extra("test_topk_shared_vs_per_tuple_scheduler", "legacy_serial_steps")
    summary = {
        "workload": "unsafe TPC-H brand top-10, SF 0.001",
        "refinement_core": {
            "table_nodes": extra("test_propagation_sweep", "table_nodes"),
            "sweep_seconds": extra("test_propagation_sweep", "sweep_seconds"),
        },
        "topk_decision_steps": {
            "shared_dag": shared_steps,
            "per_tuple_recorded": per_tuple_steps,
        },
        "speedup_vs_per_tuple_recorded": per_tuple_steps / max(1, shared_steps),
        "canonical_cache_speedup": extra(
            "test_canonical_clause_caching", "cache_speedup"
        ),
    }
    wall_clock_summary(summary, raw, benchmarks)
    return {"summary": summary, "benchmarks": benchmarks}


def consolidate_streaming(raw_json: Path) -> dict:
    raw, benchmarks, extra = collect(raw_json)
    cold_steps = extra("test_probability_update_redecides_warm", "cold_steps")
    warm_steps = extra("test_probability_update_redecides_warm", "warm_delta_steps")
    summary = {
        "workload": "standing unsafe TPC-H brand top-10 under deltas, SF 0.001",
        "delta_redecide_steps": {
            "cold_build": cold_steps,
            "fresh_rebuild": extra(
                "test_probability_update_redecides_warm", "fresh_cold_steps"
            ),
            "warm_refresh": warm_steps,
            "delete_insert_round_trip": extra(
                "test_delete_insert_round_trip_is_warm", "round_trip_steps"
            ),
        },
        "reseeded_rows": extra("test_probability_update_redecides_warm", "reseeded_rows"),
        "touched_nodes": extra("test_probability_update_redecides_warm", "touched_nodes"),
        "speedup_vs_cold": cold_steps / max(1, warm_steps),
    }
    wall_clock_summary(summary, raw, benchmarks)
    return {"summary": summary, "benchmarks": benchmarks}


def consolidate_service(raw_json: Path) -> dict:
    raw, benchmarks, extra = collect(raw_json)
    cold_steps = extra("test_topk_over_http_is_warm_after_first", "cold_steps")
    warm_steps = extra("test_topk_over_http_is_warm_after_first", "warm_steps")
    summary = {
        "workload": "unsafe TPC-H brand top-10 served over HTTP, SF 0.001",
        "cross_request_reuse_steps": {
            "cold_request": cold_steps,
            "warm_repeat": warm_steps,
            "warm_storm": extra(
                "test_concurrent_clients_share_warm_state", "warm_storm_steps"
            ),
            "subscription_update": extra(
                "test_subscription_update_over_http", "update_delta_steps"
            ),
        },
        "concurrent_clients": extra("test_concurrent_clients_share_warm_state", "clients"),
        "warm_repeat_within_one_step": warm_steps <= 1,
        "speedup_vs_cold": cold_steps / max(1, warm_steps),
    }
    wall_clock_summary(summary, raw, benchmarks)
    return {"summary": summary, "benchmarks": benchmarks}


def consolidate_robustness(raw_json: Path) -> dict:
    raw, benchmarks, extra = collect(raw_json)
    generous = "test_generous_deadline_is_free_and_bit_identical"
    expired = "test_expired_deadline_degrades_inside_the_monotone_envelope"
    summary = {
        "workload": "unsafe TPC-H brand top-10 under wall-clock deadlines, SF 0.001",
        "refine_steps": extra(generous, "refine_steps"),
        "generous_deadline": {
            "seconds_no_deadline": extra(generous, "seconds_no_deadline"),
            "seconds_generous_deadline": extra(generous, "seconds_generous_deadline"),
            "overhead_ratio": extra(generous, "overhead_ratio"),
        },
        "expired_deadline": {
            "answers_bracketed": extra(expired, "answers"),
            "full_refine_steps": extra(expired, "full_refine_steps"),
            "degraded_refine_steps": extra(expired, "degraded_refine_steps"),
        },
        # The contracts the benchmarks assert unconditionally: a generous
        # deadline is bit-identical to none, and an expired deadline's
        # brackets contain every refined marginal.  Reaching this summary
        # means both gates held.
        "generous_deadline_bit_identical": True,
        "expired_deadline_envelope_sound": True,
    }
    wall_clock_summary(summary, raw, benchmarks)
    return {"summary": summary, "benchmarks": benchmarks}


def print_core(summary: dict, output: Path) -> None:
    core = summary["refinement_core"]
    steps = summary["topk_decision_steps"]
    print(
        f"bench report OK: sweep={core['sweep_seconds'] * 1000:.2f} ms over "
        f"{core['table_nodes']} nodes, shared={steps['shared_dag']} steps, "
        f"per-tuple (recorded)={steps['per_tuple_recorded']} -> {output}"
    )


def print_streaming(summary: dict, output: Path) -> None:
    steps = summary["delta_redecide_steps"]
    print(
        f"bench report OK: warm refresh={steps['warm_refresh']} steps vs "
        f"cold build={steps['cold_build']} "
        f"({summary['speedup_vs_cold']:.1f}x), "
        f"round trip={steps['delete_insert_round_trip']} -> {output}"
    )


def print_service(summary: dict, output: Path) -> None:
    steps = summary["cross_request_reuse_steps"]
    print(
        f"bench report OK: warm repeat={steps['warm_repeat']} steps vs "
        f"cold request={steps['cold_request']} over HTTP, "
        f"warm storm={steps['warm_storm']} "
        f"({summary['concurrent_clients']} clients) -> {output}"
    )


def print_robustness(summary: dict, output: Path) -> None:
    degradation = summary["expired_deadline"]
    print(
        f"bench report OK: generous deadline bit-identical at "
        f"{summary['refine_steps']} steps "
        f"(overhead {summary['generous_deadline']['overhead_ratio']:.2f}x), "
        f"expired deadline bracketed {degradation['answers_bracketed']} "
        f"answer(s) after {degradation['degraded_refine_steps']} steps -> {output}"
    )


SUITES = {
    "core": {
        "benchmarks": [
            "benchmarks/bench_refinement_core.py",
            "benchmarks/bench_shared_lineage.py",
            "benchmarks/bench_topk_pruning.py",
        ],
        "output": "BENCH_refinement_core.json",
        "consolidate": consolidate_core,
        "print": print_core,
    },
    "streaming": {
        "benchmarks": ["benchmarks/bench_streaming.py"],
        "output": "BENCH_streaming.json",
        "consolidate": consolidate_streaming,
        "print": print_streaming,
    },
    "service": {
        "benchmarks": ["benchmarks/bench_service.py"],
        "output": "BENCH_service.json",
        "consolidate": consolidate_service,
        "print": print_service,
    },
    "robustness": {
        "benchmarks": ["benchmarks/bench_robustness.py"],
        "output": "BENCH_robustness.json",
        "consolidate": consolidate_robustness,
        "print": print_robustness,
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES), default="core")
    parser.add_argument("output", nargs="?", default=None)
    options = parser.parse_args()
    suite = SUITES[options.suite]
    output = Path(options.output) if options.output else REPO / suite["output"]
    with tempfile.TemporaryDirectory() as scratch:
        raw_json = Path(scratch) / "raw-benchmark.json"
        status = run_benchmarks(suite["benchmarks"], raw_json)
        if status != 0:
            print(f"FAIL benchmark run exited with status {status}", file=sys.stderr)
            return status
        try:
            report = suite["consolidate"](raw_json)
        except ReportError as error:
            print(f"FAIL bench report: {error}", file=sys.stderr)
            return 1
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")
    suite["print"](report["summary"], output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
