"""Pass-pipeline gains benchmark: what does -O2 actually buy?

Runs every named suite workload through every synthesiser (plus the
monolithic incremental form, the pipeline's flagship victim), optimizes
each program at ``-O2``, and writes ``BENCH_pass_gains.json`` at the
repository root: per-workload rows, a per-synthesiser summary with the
mean percentage of steps eliminated and the median synthesis wall time,
a ``fires`` table (synthesiser x pass: how many times each ``-O2`` pass
was accepted and removed steps or writes, read from
``OptReport.results``), plus the host's CPU count and Python and numpy
versions.

Used by the CI ``pass-gains`` job as a regression gate — the process
exits non-zero if any ``-O2`` program comes out *longer* than its
``-O0`` form, if any optimized program fails replay validation, if any
``-O0`` or ``-O2`` program leaves the paper's bounds
``|Td| <= len <= 3*(|Td|+1)`` (Thms. 4.2/4.3), if no synthesiser
reaches a 10% mean reduction at ``-O2`` (the pipeline's reason to
exist), or if any ``-O2`` pass fires zero times over all cells (a pass
that never changes a program does not earn its place).  The incremental
form is held to the lower bound only: it pays about ``6*|Td|`` cycles
for a table that is a source/target blend between chunks
(:mod:`repro.core.incremental`).

Run with ``make bench-passes``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import sys
from time import perf_counter

from repro import api
from repro.api import METHODS
from repro.core.bounds import lower_bound, upper_bound
from repro.core.incremental import chunks_to_program, incremental_chunks
from repro.core.optimal import SearchLimitExceeded
from repro.core.passes import PassPipeline
from repro.workloads.suite import migration_suite

LEVEL = "O2"
OPTIMAL_BUDGET = 60_000
MIN_MEAN_PCT = 10.0  # acceptance: best synthesiser's -O2 mean reduction
#: Synthesisers outside the Thm. 4.2 upper bound by construction.
NO_UPPER_BOUND = ("incremental",)


def _synthesise(method, source, target):
    if method == "incremental":
        return chunks_to_program(
            incremental_chunks(source, target), source, target
        )
    if method == "optimal":
        from repro.core.optimal import optimal_program

        return optimal_program(source, target, max_expansions=OPTIMAL_BUDGET)
    return api.synthesise(
        source, target, options=api.Options(method=method, seed=0)
    )


def _host() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main() -> int:
    methods = tuple(METHODS) + ("incremental",)
    pipeline = PassPipeline.for_level(LEVEL)
    pass_names = [pss.name for pss in pipeline.passes]
    rows = []
    failures = []
    synth_seconds = {method: [] for method in methods}
    fires = {method: dict.fromkeys(pass_names, 0) for method in methods}
    for workload, factory in sorted(migration_suite().items()):
        source, target = factory()
        lower = lower_bound(source, target)
        for method in methods:
            upper = (
                float("inf")
                if method in NO_UPPER_BOUND
                else upper_bound(source, target)
            )

            def check_bounds(level, program):
                if not lower <= len(program) <= upper:
                    failures.append(
                        f"{workload} x {method} -{level}: {len(program)} "
                        f"steps outside the bounds [{lower}, {upper}]"
                    )

            started = perf_counter()
            try:
                base = _synthesise(method, source, target)
            except SearchLimitExceeded:
                continue  # the exact search is a calibration tool only
            synth_seconds[method].append(perf_counter() - started)
            check_bounds("O0", base)
            optimized, report = pipeline.run(base)
            for result in report.results:
                fires[method][result.name] += result.fired
            valid = optimized.is_valid()
            pct = (
                100.0 * (len(base) - len(optimized)) / len(base)
                if len(base)
                else 0.0
            )
            rows.append(
                {
                    "workload": workload,
                    "method": method,
                    "level": LEVEL,
                    "steps_o0": len(base),
                    "steps": len(optimized),
                    "writes_o0": base.write_count,
                    "writes": optimized.write_count,
                    "pct_steps_eliminated": round(pct, 2),
                    "seconds": round(report.seconds, 6),
                    "valid": valid,
                }
            )
            if not valid:
                failures.append(
                    f"{workload} x {method} -{LEVEL}: optimized program "
                    "failed replay validation"
                )
            if len(optimized) > len(base):
                failures.append(
                    f"{workload} x {method} -{LEVEL}: lengthened "
                    f"{len(base)} -> {len(optimized)}"
                )
            check_bounds(LEVEL, optimized)

    summary = {}
    for method in methods:
        summary[method] = {}
        if synth_seconds[method]:
            summary[method]["synthesis_s_median"] = round(
                statistics.median(synth_seconds[method]), 6
            )
        sample = [
            r["pct_steps_eliminated"] for r in rows if r["method"] == method
        ]
        if sample:
            summary[method][LEVEL] = {
                "workloads": len(sample),
                "mean_pct_steps_eliminated": round(
                    sum(sample) / len(sample), 2
                ),
                "max_pct_steps_eliminated": round(max(sample), 2),
            }

    best_method, best_pct = max(
        (
            (method, stats.get(LEVEL, {}).get("mean_pct_steps_eliminated", 0.0))
            for method, stats in summary.items()
        ),
        key=lambda pair: pair[1],
    )
    if best_pct < MIN_MEAN_PCT:
        failures.append(
            f"best -O2 mean reduction is {best_pct}% ({best_method}); "
            f"the pipeline must reach {MIN_MEAN_PCT}% on at least one "
            "synthesiser"
        )
    fire_totals = {
        name: sum(fires[method][name] for method in methods)
        for name in pass_names
    }
    for name, total in fire_totals.items():
        if not total:
            failures.append(
                f"-{LEVEL} pass {name} fired 0 times over {len(rows)} cells"
            )

    payload = {
        "benchmark": "pass_gains",
        "host": _host(),
        "level": LEVEL,
        "rows": rows,
        "summary": summary,
        "fires": fires,
        "criteria": {
            "zero_validity_regressions": not any(
                "validation" in f for f in failures
            ),
            "o2_never_lengthens": not any("lengthened" in f for f in failures),
            "within_bounds": not any("bounds" in f for f in failures),
            "best_o2": {"method": best_method, "mean_pct": best_pct},
            "every_pass_fires": all(fire_totals.values()),
        },
        "failures": failures,
    }
    out = pathlib.Path(__file__).resolve().parent.parent
    out = out / "BENCH_pass_gains.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"pass gains over {len(rows)} (workload, method) cells at -{LEVEL}:")
    for method, stats in sorted(summary.items()):
        if "synthesis_s_median" in stats:
            print(
                f"  {method:12s} synthesis median "
                f"{1e3 * stats['synthesis_s_median']:8.3f} ms"
            )
        if LEVEL in stats:
            cell = stats[LEVEL]
            print(
                f"  {method:12s} -{LEVEL}: mean "
                f"{cell['mean_pct_steps_eliminated']:6.2f}% "
                f"(max {cell['max_pct_steps_eliminated']:.2f}%, "
                f"{cell['workloads']} workloads)"
            )
    print(f"best -{LEVEL}: {best_method} at {best_pct}% mean steps eliminated")
    print(
        "fires: "
        + ", ".join(f"{name} {total}" for name, total in fire_totals.items())
    )
    print(f"written: {out}")
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
