"""Benchmark entry point: one workload, one seed, one measured (or traced) run.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sessions-thread --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the current directory, never
from an installed copy.  The run prints its metadata, the input digest,
the host reference time before and after, a table of the workload's
figures and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run measures half its time untraced and half traced,
prints the per-layer table, writes the spans under ``.perfbench/`` and
reports the per-layer metrics.  Exit status: 0 when every output was
correct, 1 when any operation failed, 2 when the program cannot be
imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys


def _import_program() -> None:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program under {src}: run from a checkout's root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def _number(value: float) -> float:
    # A failed operation counts as missing every latency percentile; JSON
    # has no infinity, so it reads as a latency no run could reach.
    return 1e12 if math.isinf(value) else value


def windows(out) -> "list[dict]":
    """Per-window figures over the run's operations.

    The host's speed changes in bursts of seconds, so the timed figures
    are taken per window and reported as their :func:`interquartile_mean`.
    A window is a fixed number of consecutive operations in completion
    order (``out.window_ops``, about a quarter to half a second of work);
    its throughput is its correct operations over the time since the
    previous window ended, so it reads as measured rather than as a
    whole count per fixed interval.  Operations after the last whole
    window are checked for correctness but not timed.
    """
    from workloads import percentile

    order = sorted(range(len(out.op_end)), key=out.op_end.__getitem__)
    ends = [out.op_end[i] for i in order]
    lats = [out.op_lat[i] for i in order]
    size = min(out.window_ops, len(lats)) or 1
    rows = []
    previous = 0.0
    for k in range(size, len(lats) + 1, size):
        chunk = lats[k - size:k]
        rows.append({
            "ops_per_s": sum(1 for lat in chunk if lat != math.inf)
            / max(ends[k - 1] - previous, 1e-9),
            "op_p50_ms": percentile(chunk, 50) * 1e3,
        })
        previous = ends[k - 1]
    return rows or [{"ops_per_s": 0.0, "op_p50_ms": math.inf}]


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``.

    Like the median, it ignores the few windows a stall of the host
    ruins; like the mean, it moves in proportion to the mix when a run
    flips between a fast and a slow state for seconds at a time, where
    the median jumps from one state's figure to the other's as the mix
    crosses one half.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(out) -> dict:
    rows = windows(out)
    values = {"setup_s": (statistics.median(out.setup_s), "s")}
    for name, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms")):
        values[name] = (interquartile_mean([row[name] for row in rows]), unit)
    values["op_cycles"] = (out.op_cycles, "cycles")
    values["peak_rss_mb"] = (out.peak_rss_mb, "MB")
    return {k: {"value": _number(v), "unit": u} for k, (v, u) in values.items()}


def _primary(out) -> "tuple[float, bool]":
    """The workload's headline figure and whether higher is better
    (what ``obs.trace_overhead_pct`` compares)."""
    if "sym_per_s" in out.notes:
        return float(out.notes["sym_per_s"]), True
    return end_to_end(out)["op_p50_ms"]["value"], False


def print_outcome(out) -> None:
    from workloads import percentile

    print(f"workload {out.workload}  inputs {out.digest}")
    print(
        f"operations attempted {out.attempted}  succeeded "
        f"{out.attempted - out.failed}  failed {out.failed}  "
        f"window {out.window_s:.3f} s"
    )
    later = out.setup_s[1:] or out.setup_s
    print(
        f"setup_s {len(out.setup_s)} set-ups: first {out.setup_s[0]:.4f} s "
        f"(lazy imports), then min {min(later):.4f} median "
        f"{statistics.median(later):.4f} max {max(later):.4f}"
    )
    print(
        f"op p50 {percentile(out.op_lat, 50) * 1e3:.3f} ms  "
        f"op p90 {percentile(out.op_lat, 90) * 1e3:.3f} ms  "
        f"op p99 {percentile(out.op_lat, 99) * 1e3:.3f} ms (whole run, diagnostic)"
    )
    rows = windows(out)
    for name in ("ops_per_s", "op_p50_ms"):
        print(f"windows {name} " + " ".join(f"{row[name]:.4g}" for row in rows))
    for key, value in out.notes.items():
        if key == "errors":
            for line in value:
                print(f"FAILED: {line}")
        elif isinstance(value, float):
            print(f"{key} {value:.4f}")
        else:
            print(f"{key} {value}")


def stop_children() -> None:
    """Stop and reap every process the run started.

    The process fleet's workers are joined by its ``close``; what is left
    is ``multiprocessing``'s resource tracker, which the first shared
    memory segment starts and which would otherwise outlive the run (and
    stay behind as a zombie once it exits).  Stopping it also unlinks any
    segment the program failed to.  A worker still alive (a run that
    ended in an error) is terminated and joined first.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    # A SIGTERM unwinds like an exit, so the children are still stopped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import host
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    host.warn_env()
    print("meta " + json.dumps(host.metadata(), sort_keys=True))
    reference_before = host.reference_loop_ms()

    if not args.trace:
        out = workload(args.seed, args.seconds)
        reference_after = host.reference_loop_ms()
        print_outcome(out)
        metrics = end_to_end(out)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        failed, attempted = out.failed, out.attempted
    else:
        from layers import Aggregate, Tracer, layer_table, per_layer_metrics

        half = args.seconds / 2.0
        base = workload(args.seed, half, exact=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload(args.seed, half, tracer, exact=False)
        finally:
            tracer.uninstall()
        reference_after = host.reference_loop_ms()
        print("-- untraced half")
        print_outcome(base)
        print("-- traced half")
        print_outcome(traced)
        agg = Aggregate(tracer)
        setup = Aggregate(tracer, "setup")
        for line in layer_table(agg):
            print(line)
        untraced_value, higher = _primary(base)
        traced_value, _ = _primary(traced)
        change = (traced_value - untraced_value) / untraced_value
        extra = dict(traced.extra)
        extra["trace_overhead_pct"] = 100.0 * (-change if higher else change)
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in per_layer_metrics(agg, setup, extra).items()
        }
        print(f"obs.trace_overhead_pct {extra['trace_overhead_pct']:.2f}")
        tracer.write(os.path.join(
            ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl"
        ))
        failed = base.failed + traced.failed
        attempted = base.attempted + traced.attempted
    print(
        f"host reference loop {reference_before:.2f} ms before, "
        f"{reference_after:.2f} ms after"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if ".backend_share." in name:
        return "share"
    for suffix, unit in (
        ("_ms", "ms"), ("_us", "us"), ("_share", "share"), ("_pct", "%"),
        ("_per_s", "1/s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
